"""Weight fields: evaluable scalar penalties with quadrature metadata.

A :class:`WeightField` is a weight w(t, x) on base x fiber, given by its fiber
restriction ``restrict``: t -> (x -> w(t, x)), which computes the terms that
depend on t alone once per fiber; every transform evaluates a weight through
it.  The weight on a packed point, ``fn``, is derived from it and cannot be
set, and ``weight_from_fn`` is the only place that packs (t, x): its
function receives the point as a tuple of Python floats, and an
OverflowError there is +inf when the weight has a lower bound and
NonConvergent when it has none.  With the restriction come the metadata the
transforms need:

* a certified global lower bound, required before a weight may be used as a
  twist (the integrals only stay finite because ``e^{-weight}`` is bounded);
* the spheres on which the weight has a kink (:class:`SphereSeam`), so
  quadrature panels split at them instead of straddling them;
* radial structure -- "depends only on the distance to a moving center" --
  which is what lets kernel computations collapse to one-dimensional moment
  integrals; a weight whose profile a kernel route reads also carries it, as
  the radial restriction t -> (r -> w(t, a(t) + r e_1)), which
  ``radial_profile`` alone turns into a ``RadialProfile``;
* an optional decay rate: ``weight >= rate * dist - C`` for some constant C,
  with dist the distance to the radial center.  It records why integrals
  over unbounded fibers converge, and it sets the scale of the panel ladder
  around each seam.

The catalog is closed: the cone penalties used for localization (a quadratic
cone in the real case, a log cone in the complex case), the log shell weight
of the kernel bounds, the named counterexample weights, constants, and sums of
these.  Constructors populate all metadata; nothing is inferred.  Every
catalog weight writes its formula once, as its restriction, and a sum binds
the sum of its parts' restrictions.  Other modules read a formula from here:
every profile that ``bergman`` integrates is a weight's ``radial_profile``,
the log dent's with that weight's seam as its kink radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParam, MethodUnavailable, NonConvergent, UnknownName
from .geometry import AffineFiberMap, FiberDomain, _as_real_point, _indices, _real_tuple
from .numerics import BallVolume

__all__ = [
    "WeightField", "SphereSeam", "RadialProfile",
    "convex_localizer", "psh_localizer", "lemma3_weight", "stock_weight",
    "constant_weight", "weight_from_fn",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# Seam descriptors


@dataclass(frozen=True)
class SphereSeam:
    """Kink locus ``|t - base_center|^2 + |x - center(t)|^2 = radius^2``.

    Without ``base_center`` the sphere lives in the fiber and follows the
    base: ``|x - center(t)| = radius`` over every t.  With it, the sphere is a
    fixed one in base x fiber, whose slice at t shrinks with the base offset
    and vanishes where the sphere misses the fiber.
    """

    center: AffineFiberMap
    radius: float
    base_center: Optional[tuple] = None

    def __post_init__(self):
        (radius,) = _real_tuple((self.radius,))
        if not radius >= 0.0:
            raise InvalidParam("seam radius must be nonnegative")
        object.__setattr__(self, "radius", radius)
        if self.base_center is not None:
            object.__setattr__(self, "base_center", _real_tuple(self.base_center))

    def in_fiber(self, t):
        """``(fiber center, radius)`` of the slice at t, or None if it is empty.

        t is a sequence of Python floats.  The base offset is squared as
        ``d * d``, as ``Ball.slice_first`` squares it, so a seam sphere and a
        ball slice of the same sphere round alike; an offset whose square
        leaves the float range squares to inf, and the slice is empty."""
        if self.base_center is None:
            return self.center.at(t), self.radius
        off2 = 0.0
        for ti, bi in zip(t, self.base_center):
            d = ti - bi
            off2 += d * d
        rad2 = self.radius * self.radius - off2
        if rad2 <= 0.0:
            return None
        return self.center.at(t), math.sqrt(rad2)


# ---------------------------------------------------------------------------
# Weight fields


@dataclass(frozen=True)
class WeightField:
    """A scalar field on base x fiber with evaluation and quadrature metadata.

    ``restrict`` maps a packed base point t to the function ``x -> w(t, x)``
    on the fiber, which returns a float; ``+inf`` is allowed and
    short-circuits ``e^{-w}`` to zero, ``-inf`` and NaN are never produced by
    the catalog constructors.  Both t and x are tuples of Python floats,
    read by index: ``on_fiber`` binds t as ``FiberDomain.t``, quadrature and
    the grid minimizer pass x as one (``integrate_fiber``'s point, a grid
    point), and ``__call__`` packs its point as one too, so a catalog
    restriction never computes in numpy scalars.  ``fn``, the weight on a
    packed point (base coordinates then fiber coordinates), is derived from
    it:
    ``restrict(())`` itself when the base is empty, else
    ``p -> restrict(p[:nb])(p[nb:])``.  It is not a constructor argument, and
    ``dataclasses.replace`` cannot set it.
    ``radial_fn(t)``, if given, is the profile ``r -> w(t, a(t) + r e_1)``
    about ``a = radial_center``, with the t-only terms bound once; it needs
    the center, which may stand alone.
    """

    restrict: Callable[[Sequence[float]], Callable[[Sequence[float]], float]]
    base_rdim: int
    fiber_rdim: int
    lower_bound: Optional[float] = None
    seams: tuple = ()
    radial_center: Optional[AffineFiberMap] = None
    radial_fn: Optional[Callable[[Sequence[float]], Callable[[float], float]]] = None
    decay_rate: Optional[float] = None  # about radial_center
    constant: Optional[float] = None
    fn: Callable[[Sequence[float]], float] = field(init=False)

    def __post_init__(self):
        nb, nf = _indices((self.base_rdim, self.fiber_rdim), "a weight's split")
        if nb < 0 or nf < 1:
            raise InvalidParam("need base_rdim >= 0 and fiber_rdim >= 1")
        object.__setattr__(self, "base_rdim", nb)
        object.__setattr__(self, "fiber_rdim", nf)
        if self.radial_fn is not None and self.radial_center is None:
            raise InvalidParam("a radial_fn needs a radial_center")
        if self.decay_rate is not None and not self.decay_rate > 0.0:
            raise InvalidParam("decay rate must be positive")
        if self.constant is not None and self.lower_bound != self.constant:
            raise InvalidParam("a constant weight's lower bound is its value")
        centers = [(s.center, s.base_center) for s in self.seams]
        if self.radial_center is not None:
            centers.append((self.radial_center, None))
        for c, b in centers:
            if (c.base_rdim, c.fiber_rdim) != (self.base_rdim, self.fiber_rdim) \
                    or (b is not None and len(b) != self.base_rdim):
                raise InvalidParam(
                    f"center of split ({c.base_rdim},{c.fiber_rdim}) does not match "
                    f"weight split ({self.base_rdim},{self.fiber_rdim})")
        restrict = self.restrict
        object.__setattr__(self, "fn", restrict(()) if not nb
                           else lambda p: restrict(p[:nb])(p[nb:]))

    @property
    def rdim(self) -> int:
        return self.base_rdim + self.fiber_rdim

    def __call__(self, p) -> float:
        return float(self.fn(_as_real_point(p, "real", self.rdim)))

    def at(self, t, x) -> float:
        return self(np.hstack([t, x]))

    def on_fiber(self, fib: FiberDomain) -> Callable[[Sequence[float]], float]:
        """The weight restricted to the fiber ``fib`` over its base point t:
        ``restrict(t)``, ``x -> w(t, x)`` with the t-only terms bound once, here.

        t is bound as a tuple of Python floats, and the result takes x as a
        tuple of them too.  The result is the ``fn`` of a fiber-only
        WeightField, so that it is still one weight evaluation per point.
        A huge t gives no warning: a catalog restriction squares Python
        floats, which overflow to +inf, and a function from
        ``weight_from_fn`` is +inf or NonConvergent there, as it documents.

        Raises InvalidParam when the weight's split is not the domain's."""
        dom = fib.parent
        if (self.base_rdim, self.fiber_rdim) != (dom.base_rdim, dom.fiber_rdim):
            raise InvalidParam(
                f"weight split ({self.base_rdim},{self.fiber_rdim}) does not match "
                f"domain split ({dom.base_rdim},{dom.fiber_rdim})"
            )
        weight = self.restrict(fib.t)
        return WeightField(restrict=lambda t: weight, base_rdim=0,
                           fiber_rdim=self.fiber_rdim).fn

    def fiber_density(self, fib: FiberDomain) -> Callable[[Sequence[float]], float]:
        """The integrand ``x -> e^{-w(t, x)}`` on the fiber ``fib``: 0.0 where
        the weight is +inf, through ``on_fiber``; x is read by index, as
        ``integrate_fiber`` passes it."""
        weight = self.on_fiber(fib)

        def density(x: Sequence[float]) -> float:
            v = weight(x)
            return 0.0 if v == _INF else math.exp(-v)
        return density

    def fiber_seams(self, t) -> tuple:
        """The seams' slices at t as ``(fiber center, radius)`` pairs; t is
        bound as a tuple of Python floats."""
        t = tuple(map(float, t))
        return tuple(sl for sl in (s.in_fiber(t) for s in self.seams) if sl is not None)

    def radial_profile(self, t, cutoff: float = _INF) -> "RadialProfile":
        """The profile ``radial_fn(t)`` on the disc of radius ``cutoff``, with
        the radii of the seams centered exactly on ``radial_center.at(t)``:
        the one place a kernel route's profile is built.  t is bound as a
        tuple of Python floats; a weight without a ``radial_fn`` raises
        MethodUnavailable."""
        if self.radial_fn is None:
            raise MethodUnavailable("weight has no radial profile about the moving center")
        t = tuple(map(float, t))
        center = self.radial_center.at(t)
        return RadialProfile(fn=self.radial_fn(t), cutoff=cutoff,
                             seam_radii=tuple(r for (c, r) in self.fiber_seams(t)
                                              if c == center))

    def __add__(self, other: "WeightField") -> "WeightField":
        if not isinstance(other, WeightField):
            return NotImplemented
        if (self.base_rdim, self.fiber_rdim) != (other.base_rdim, other.fiber_rdim):
            raise InvalidParam("cannot add weights with different coordinate splits")
        rf, rg = self.restrict, other.restrict
        lb = None
        if self.lower_bound is not None and other.lower_bound is not None:
            lb = self.lower_bound + other.lower_bound
        const = None
        if self.constant is not None and other.constant is not None:
            const = self.constant + other.constant

        center, radial, rate = _combine_radial(self, other)
        return WeightField(
            restrict=lambda t: _added(rf(t), rg(t)), base_rdim=self.base_rdim,
            fiber_rdim=self.fiber_rdim, lower_bound=lb, seams=self.seams + other.seams,
            radial_center=center, radial_fn=radial, decay_rate=rate, constant=const,
        )


def _added(f, g):
    """Pointwise f + g, with +inf from either part short-circuiting the other."""
    def added(p):
        a = f(p)
        if a == _INF:
            return _INF
        b = g(p)
        return _INF if b == _INF else a + b
    return added


def _combine_radial(a: WeightField, b: WeightField):
    """Radial metadata of a sum, ``(center, radial_fn, decay_rate)``: a radial
    part keeps its center beside a constant or beside a part about the same
    center.  The parts' rates add, and a part without one must be bounded
    below (a constant is); otherwise the sum has no rate.  The profiles add
    as the restrictions do, a constant's restriction serving as its own."""
    for const, radial in ((a, b), (b, a)):
        if const.constant is not None and radial.radial_center is not None:
            center = radial.radial_center
            break
    else:
        if a.radial_center is None or a.radial_center != b.radial_center:
            return None, None, None
        center = a.radial_center
    ra, rb = (w.restrict if w.constant is not None else w.radial_fn for w in (a, b))
    fn = None if ra is None or rb is None else lambda t: _added(ra(t), rb(t))
    rates = [w.decay_rate for w in (a, b) if w.decay_rate is not None]
    bounded = all(w.decay_rate is not None or w.lower_bound is not None for w in (a, b))
    return center, fn, (sum(rates) if rates and bounded else None)


def weight_from_fn(fn, base_rdim: int, fiber_rdim: int, *, lower_bound=None,
                   seams=(), radial_center=None, radial_fn=None) -> WeightField:
    """A weight from ``fn`` on a packed point (base coordinates, then fiber
    coordinates).  Its restriction packs (t, x) into one tuple at every
    point, so ``fn`` receives a tuple of Python floats; this is the only
    place a point is packed.

    Python floats raise OverflowError where numpy returns inf (``x ** 2`` at
    1e200).  A weight with a lower bound can only overflow upward, so there
    it is +inf; without one the sign is unknown, and the point raises
    NonConvergent."""
    def restrict(t):
        def weight(x):
            try:
                return fn((*t, *x))
            except OverflowError:
                if lower_bound is None:
                    raise NonConvergent(
                        "weight overflowed, and no lower bound gives its sign") from None
                return _INF
        return weight
    return WeightField(restrict=restrict, base_rdim=base_rdim, fiber_rdim=fiber_rdim,
                       lower_bound=lower_bound, seams=tuple(seams),
                       radial_center=radial_center, radial_fn=radial_fn)


def constant_weight(c: float, base_rdim: int, fiber_rdim: int) -> WeightField:
    c = float(c)
    if not math.isfinite(c):
        raise InvalidParam("constant weight must be finite")
    return WeightField(restrict=lambda t: lambda x: c, base_rdim=base_rdim,
                       fiber_rdim=fiber_rdim, lower_bound=c, constant=c)


# ---------------------------------------------------------------------------
# Radial profiles (for moment integrals)


@dataclass(frozen=True)
class RadialProfile:
    """A radial weight r -> value with a domain cutoff and seam radii.

    ``cutoff`` is the radius of the disc the profile lives on (``inf`` for the
    whole plane); the profile is treated as +inf beyond it.
    """

    fn: Callable[[float], float]
    cutoff: float = _INF
    seam_radii: tuple = ()

    def __post_init__(self):
        if not self.cutoff > 0.0:
            raise InvalidParam("cutoff radius must be positive")
        object.__setattr__(self, "seam_radii",
                           tuple(float(r) for r in self.seam_radii if 0.0 < r < self.cutoff))

    def __call__(self, r: float) -> float:
        return float(self.fn(float(r)))


# ---------------------------------------------------------------------------
# The weight catalog


def _distance(x: Sequence[float], c: Sequence[float]) -> float:
    """|x - c| as the square root of a plain left-to-right sum of squares.

    Subtracts coordinate by coordinate, so two sequences of Python floats
    never meet numpy; ``np.linalg.norm`` would take its bits from BLAS's
    CPU-specific kernels.
    """
    d2 = 0.0
    for xi, ci in zip(x, c):
        d = xi - ci
        d2 += d * d
    return math.sqrt(d2)


def _cone_about(cone, a: AffineFiberMap):
    """The restriction of ``cone(|x - a(t)|)``, with a(t) computed once per fiber."""
    def restrict(t):
        c = a.at(t)
        return lambda x: cone(_distance(x, c))

    return restrict


def convex_localizer(k: int, a: AffineFiberMap) -> WeightField:
    """Quadratic cone penalty of sharpness k about the moving point a(t).

    Value ``k^2 * max(|x - a(t)| - 1/k, 0) + log(sigma_n / k^n)``: flat at its
    lower bound on the ball of radius 1/k around a(t), then growing with slope
    k^2.  Convex along every segment; the normalization makes the twisted
    marginal converge to the weight's value at a(t).
    """
    k = int(k)
    if k < 1:
        raise InvalidParam("sharpness index k must be a positive integer")
    n = a.fiber_rdim
    lb = math.log(BallVolume.of(n)) - n * math.log(k)
    kk = float(k * k)
    inv_k = 1.0 / k

    def cone(r):
        return kk * max(r - inv_k, 0.0) + lb

    return WeightField(
        restrict=_cone_about(cone, a), base_rdim=a.base_rdim, fiber_rdim=n,
        lower_bound=lb, seams=(SphereSeam(a, inv_k),),
        radial_center=a, decay_rate=kk,
    )


def psh_localizer(k: int, a: AffineFiberMap) -> WeightField:
    """Log cone penalty of sharpness k about the moving point a(tau).

    Value ``k * max(log(k |z - a(tau)|), 0) + log(sigma_2 / k^2)`` on a
    one-dimensional complex fiber (2 packed reals): flat at its lower bound on
    the disc of radius 1/k, then growing like k log.  The growth makes
    ``e^{-penalty}`` decay as ``|z|^{-k}``, integrable on the plane once k
    exceeds 2.
    """
    k = int(k)
    if k < 1:
        raise InvalidParam("sharpness index k must be a positive integer")
    if a.fiber_rdim != 2:
        raise InvalidParam(f"center map has {a.fiber_rdim} packed fiber reals, expected 2")
    lb = math.log(BallVolume.of(2)) - 2 * math.log(k)
    kf = float(k)

    def cone(r: float) -> float:
        return kf * math.log(kf * r) + lb if r * kf > 1.0 else lb

    return WeightField(
        restrict=_cone_about(cone, a), base_rdim=a.base_rdim, fiber_rdim=2,
        lower_bound=lb, seams=(SphereSeam(a, 1.0 / k),),
        radial_center=a, radial_fn=lambda t: cone,
    )


def lemma3_weight(k: int, r: float) -> WeightField:
    """Pure-fiber log penalty ``k * max(log(|z| / r), 0)`` on the plane.

    Zero on the disc of radius r, growing like k log outside; ``e^{-w}`` decays
    as ``(|z|/r)^{-k}``.
    """
    k = int(k)
    if k < 1 or not r > 0.0:
        raise InvalidParam("need k >= 1 and r > 0")
    kf, rf = float(k), float(r)
    origin = AffineFiberMap.constant((0.0, 0.0), 0)

    def cone(s: float) -> float:
        return kf * math.log(s / rf) if s > rf else 0.0

    return WeightField(
        restrict=lambda t: lambda x: cone(math.hypot(x[0], x[1])),
        base_rdim=0, fiber_rdim=2, lower_bound=0.0,
        seams=(SphereSeam(origin, rf, base_center=()),), radial_center=origin,
    )


def _dent(radius: float, e2: float) -> WeightField:
    """|t^2 + x^2 - e2| on R x R, with e2 = radius^2: kinked on that circle."""
    origin = AffineFiberMap.constant((0.0,), 1)

    def restrict(t):
        tt = t[0] * t[0]
        return lambda x: abs(tt + x[0] * x[0] - e2)

    return WeightField(
        restrict=restrict,
        base_rdim=1, fiber_rdim=1, lower_bound=0.0,
        seams=(SphereSeam(origin, radius, base_center=(0.0,)),),
        radial_center=origin, decay_rate=1.0,
    )


def stock_weight(name: str, eps: float | None = None) -> WeightField:
    """Named counterexample weights: see the catalog below.

    * ``prekopa_cex``: |t^2 + x^2 - eps^2| on R x R -- a radially symmetric
      non-convex dent whose marginal is still convex.
    * ``berndtsson_cex``: (3/2) log(1 + ||z|^2 + |w|^2 - eps^2|) on C x C -- a
      radially symmetric non-psh dent whose fiberwise kernel is still log-psh.
      It rounds as ``(|z|^2 - eps^2) + |w|^2``, the base terms bound once per
      fiber; ``bergman.berndtsson_profile`` is its ``radial_profile``.
    * ``minprinciple_cex``: |t^2 + x^2 - 1| on R x R -- non-convex with a
      convex fiberwise infimum max(t^2 - 1, 0).
    """
    if name == "prekopa_cex":
        if eps is None or not (0.0 < eps < 1.0):
            raise InvalidParam("prekopa_cex needs eps in (0, 1)")
        return _dent(eps, float(eps) ** 2)
    if name == "berndtsson_cex":
        if eps is None or not (0.0 < eps < 1.0):
            raise InvalidParam("berndtsson_cex needs eps in (0, 1)")
        eps = float(eps)
        e2 = eps * eps
        origin = AffineFiberMap.constant((0.0, 0.0), 2)

        def restrict(t):
            c = (t[0] * t[0] + t[1] * t[1]) - e2
            return lambda x: 1.5 * math.log1p(abs(c + (x[0] * x[0] + x[1] * x[1])))

        return WeightField(
            restrict=restrict,
            base_rdim=2, fiber_rdim=2, lower_bound=0.0,
            seams=(SphereSeam(origin, eps, base_center=(0.0, 0.0)),),
            radial_center=origin,  # its profile: the point at distance r from 0
            radial_fn=lambda t: lambda r, w=restrict(t): w((r, 0.0)),
        )
    if name == "minprinciple_cex":
        return _dent(1.0, 1.0)
    raise UnknownName(f"no weight named {name!r} in the catalog")
