"""Weight fields: evaluable scalar penalties with quadrature metadata.

A :class:`WeightField` is a function on packed real coordinates (base point
first, fiber point after it) together with the metadata the transforms need:

* a certified global lower bound, required before a weight may be used as a
  twist (the integrals only stay finite because ``e^{-weight}`` is bounded);
* seam descriptors for every non-smooth locus, so quadrature panels split at
  kinks instead of straddling them;
* radial structure -- "depends only on the distance to a moving center" --
  which is what lets kernel computations collapse to one-dimensional moment
  integrals;
* an optional linear decay envelope ``weight >= rate * (dist - radius)``
  recording why integrals over unbounded fibers converge.

The catalog is closed: the cone penalties used for localization (a quadratic
cone in the real case, a log cone in the complex case), the log shell weight
of the kernel bounds, the named counterexample weights, constants, and sums of
these.  Constructors populate all metadata; nothing is inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParam, UnknownName
from .geometry import AffineFiberMap, FiberDomain
from .numerics import BallVolume

__all__ = [
    "WeightField", "FixedSphereSeam", "MovingSphereSeam", "RadialProfile",
    "convex_localizer", "psh_localizer", "lemma3_weight", "stock_weight",
    "constant_weight", "weight_from_fn",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# Seam descriptors


@dataclass(frozen=True)
class FixedSphereSeam:
    """Kink locus ``|p[axes] - center| = radius`` at a fixed full-space sphere."""

    center: tuple
    radius: float
    axes: tuple

    def __post_init__(self):
        if len(self.center) != len(self.axes):
            raise InvalidParam("seam center and axes lengths differ")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))

    def _fiber_reduction(self, t, base_rdim):
        """Remaining (fiber axes, fiber center, radius^2) once the base is fixed."""
        off2 = 0.0
        fib_axes, fib_center = [], []
        for a, c in zip(self.axes, self.center):
            if a < base_rdim:
                off2 += (t[a] - c) ** 2
            else:
                fib_axes.append(a - base_rdim)
                fib_center.append(c)
        return fib_axes, fib_center, self.radius * self.radius - off2

    def fiber_points(self, t, base_rdim):
        axes, ctr, rad2 = self._fiber_reduction(t, base_rdim)
        if len(axes) != 1 or rad2 <= 0.0:
            return ()
        s = math.sqrt(rad2)
        return (ctr[0] - s, ctr[0] + s)

    def fiber_circles(self, t, base_rdim):
        axes, ctr, rad2 = self._fiber_reduction(t, base_rdim)
        if len(axes) != 2 or rad2 <= 0.0:
            return ()
        return ((ctr[0], ctr[1], math.sqrt(rad2)),)


@dataclass(frozen=True)
class MovingSphereSeam:
    """Kink locus ``|x - center_map(t)| = radius`` in the fiber, following the base."""

    center_map: AffineFiberMap
    radius: float

    def fiber_points(self, t, base_rdim):
        c = self.center_map.at(t)
        if c.size != 1:
            return ()
        return (float(c[0]) - self.radius, float(c[0]) + self.radius)

    def fiber_circles(self, t, base_rdim):
        c = self.center_map.at(t)
        if c.size != 2:
            return ()
        return ((float(c[0]), float(c[1]), self.radius),)


# ---------------------------------------------------------------------------
# Weight fields


@dataclass(frozen=True)
class WeightField:
    """A scalar field on base x fiber with evaluation and quadrature metadata.

    ``fn`` maps a packed real point (base coordinates then fiber coordinates)
    to a float; ``+inf`` is allowed and short-circuits ``e^{-w}`` to zero,
    ``-inf`` and NaN are never produced by the catalog constructors.
    """

    fn: Callable[[np.ndarray], float]
    base_rdim: int
    fiber_rdim: int
    lower_bound: Optional[float] = None
    seams: tuple = ()
    radial_center: Optional[AffineFiberMap] = None
    radial_fn: Optional[Callable[[np.ndarray, float], float]] = None
    envelope: Optional[tuple] = None  # (rate, radius) about radial_center
    constant: Optional[float] = None

    def __post_init__(self):
        if self.base_rdim < 0 or self.fiber_rdim < 1:
            raise InvalidParam("need base_rdim >= 0 and fiber_rdim >= 1")
        if (self.radial_fn is None) != (self.radial_center is None):
            raise InvalidParam("radial_fn and radial_center come as a pair")
        if self.envelope is not None:
            rate, radius = self.envelope
            if rate <= 0.0 or not math.isfinite(radius):
                raise InvalidParam("envelope rate must be positive and its radius finite")

    @property
    def rdim(self) -> int:
        return self.base_rdim + self.fiber_rdim

    def __call__(self, p) -> float:
        p = np.asarray(p, dtype=float).ravel()
        if p.size != self.rdim:
            raise InvalidParam(f"expected a packed point of dimension {self.rdim}")
        return float(self.fn(p))

    def at(self, t, x) -> float:
        return self(np.hstack([t, x]))

    def on_fiber(self, fib: FiberDomain) -> Callable[[np.ndarray], float]:
        """The weight restricted to the fiber ``fib`` over its base point t:
        ``x -> fn(t, x)``, or ``fn`` itself when the base is empty.

        Raises InvalidParam when the weight's split is not the domain's."""
        dom = fib.parent
        if (self.base_rdim, self.fiber_rdim) != (dom.base_rdim, dom.fiber_rdim):
            raise InvalidParam(
                f"weight split ({self.base_rdim},{self.fiber_rdim}) does not match "
                f"domain split ({dom.base_rdim},{dom.fiber_rdim})"
            )
        fn, t = self.fn, fib.t
        if not t.size:
            return fn
        return lambda x: fn(np.concatenate((t, x)))

    def fiber_point_seams(self, t) -> tuple:
        t = np.asarray(t, dtype=float).ravel()
        out = []
        for s in self.seams:
            out.extend(s.fiber_points(t, self.base_rdim))
        return tuple(out)

    def fiber_circle_seams(self, t) -> tuple:
        t = np.asarray(t, dtype=float).ravel()
        out = []
        for s in self.seams:
            out.extend(s.fiber_circles(t, self.base_rdim))
        return tuple(out)

    def seam_radii_at(self, t=()) -> tuple:
        """Radii of the registered seams as distances from the radial center."""
        if self.radial_center is None:
            return ()
        t = np.asarray(t, dtype=float).ravel()
        c = self.radial_center.at(t)
        radii = []
        for s in self.seams:
            if isinstance(s, MovingSphereSeam):
                radii.append(s.radius)
            elif isinstance(s, FixedSphereSeam):
                axes, ctr, rad2 = s._fiber_reduction(t, self.base_rdim)
                if rad2 > 0.0 and np.array_equal(ctr, c):
                    radii.append(math.sqrt(rad2))
        return tuple(r for r in radii if r > 0.0)

    def __add__(self, other: "WeightField") -> "WeightField":
        if not isinstance(other, WeightField):
            return NotImplemented
        if (self.base_rdim, self.fiber_rdim) != (other.base_rdim, other.fiber_rdim):
            raise InvalidParam("cannot add weights with different coordinate splits")
        f, g = self.fn, other.fn

        def added(p):
            a = f(p)
            if a == _INF:
                return _INF
            b = g(p)
            return _INF if b == _INF else a + b

        lb = None
        if self.lower_bound is not None and other.lower_bound is not None:
            lb = self.lower_bound + other.lower_bound
        const = None
        if self.constant is not None and other.constant is not None:
            const = self.constant + other.constant

        center, radial = _combine_radial(self, other)
        env = _combine_envelopes(self, other, center)
        return WeightField(
            fn=added, base_rdim=self.base_rdim, fiber_rdim=self.fiber_rdim,
            lower_bound=lb, seams=self.seams + other.seams,
            radial_center=center, radial_fn=radial, envelope=env,
            constant=const,
        )


def _combine_radial(a: WeightField, b: WeightField):
    """Radial metadata of a sum: preserved under constants and matching centers."""
    if a.constant is not None and b.radial_fn is not None:
        c = a.constant
        rb = b.radial_fn
        return b.radial_center, (lambda t, r: c + rb(t, r))
    if b.constant is not None and a.radial_fn is not None:
        c = b.constant
        ra = a.radial_fn
        return a.radial_center, (lambda t, r: ra(t, r) + c)
    if a.radial_fn is not None and b.radial_fn is not None \
            and a.radial_center == b.radial_center:
        ra, rb = a.radial_fn, b.radial_fn
        return a.radial_center, (lambda t, r: ra(t, r) + rb(t, r))
    return None, None


def _combine_envelopes(a: WeightField, b: WeightField, center):
    """Envelope of a sum, when one can be certified about the surviving center."""
    if center is None:
        return None
    ea = a.envelope if a.radial_center == center else None
    eb = b.envelope if b.radial_center == center else None
    if ea is not None and eb is not None:
        return (ea[0] + eb[0], max(ea[1], eb[1]))
    for env, mate in ((ea, b), (eb, a)):
        if env is None:
            continue
        bound = mate.constant if mate.constant is not None else mate.lower_bound
        if bound is None:
            return None
        rate, radius = env
        if bound < 0.0:
            radius = radius - bound / rate
        return (rate, radius)
    return None


def weight_from_fn(fn, base_rdim: int, fiber_rdim: int, *, lower_bound=None,
                   seams=(), radial_center=None, radial_fn=None,
                   envelope=None) -> WeightField:
    return WeightField(fn=fn, base_rdim=base_rdim, fiber_rdim=fiber_rdim,
                       lower_bound=lower_bound, seams=tuple(seams),
                       radial_center=radial_center, radial_fn=radial_fn,
                       envelope=envelope)


def constant_weight(c: float, base_rdim: int, fiber_rdim: int) -> WeightField:
    c = float(c)
    if not math.isfinite(c):
        raise InvalidParam("constant weight must be finite")
    return WeightField(fn=lambda p: c, base_rdim=base_rdim, fiber_rdim=fiber_rdim,
                       lower_bound=c, constant=c)


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
        if self.cutoff <= 0.0:
            raise InvalidParam("cutoff radius must be positive")
        object.__setattr__(self, "seam_radii",
                           tuple(float(r) for r in self.seam_radii if 0.0 < r < self.cutoff))

    def __call__(self, r: float) -> float:
        return float(self.fn(float(r)))


# ---------------------------------------------------------------------------
# The weight catalog


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
    nb = a.base_rdim
    kk = float(k * k)
    inv_k = 1.0 / k

    def cone(r):
        return kk * max(r - inv_k, 0.0) + lb

    def fn(p):
        return cone(float(np.linalg.norm(p[nb:] - a.at(p[:nb]))))

    return WeightField(
        fn=fn, base_rdim=nb, fiber_rdim=n, lower_bound=lb,
        seams=(MovingSphereSeam(a, inv_k),),
        radial_center=a,
        radial_fn=lambda t, r: cone(r),
        envelope=(kk, inv_k - lb / kk),
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
    nb = a.base_rdim
    kf = float(k)

    def cone(r: float) -> float:
        return kf * math.log(kf * r) + lb if r * kf > 1.0 else lb

    def fn(p):
        r = float(np.linalg.norm(p[nb:] - a.at(p[:nb])))
        return cone(r)

    return WeightField(
        fn=fn, base_rdim=nb, fiber_rdim=2, lower_bound=lb,
        seams=(MovingSphereSeam(a, 1.0 / k),),
        radial_center=a,
        radial_fn=lambda t, r: cone(float(r)),
    )


def lemma3_weight(k: int, r: float) -> WeightField:
    """Pure-fiber log penalty ``k * max(log(|z| / r), 0)`` on the plane.

    Zero on the disc of radius r, growing like k log outside; ``e^{-w}`` decays
    as ``(|z|/r)^{-k}``.
    """
    k = int(k)
    if k < 1 or r <= 0.0:
        raise InvalidParam("need k >= 1 and r > 0")
    kf, rf = float(k), float(r)

    def cone(s: float) -> float:
        return kf * math.log(s / rf) if s > rf else 0.0

    return WeightField(
        fn=lambda p: cone(float(np.hypot(p[0], p[1]))),
        base_rdim=0, fiber_rdim=2, lower_bound=0.0,
        seams=(FixedSphereSeam((0.0, 0.0), rf, (0, 1)),),
        radial_center=AffineFiberMap.constant((0.0, 0.0), 0),
        radial_fn=lambda t, s: cone(float(s)),
    )


def stock_weight(name: str, eps: float | None = None) -> WeightField:
    """Named counterexample weights: see the catalog below.

    * ``prekopa_cex``: |t^2 + x^2 - eps^2| on R x R -- a radially symmetric
      non-convex dent whose marginal is still convex.
    * ``berndtsson_cex``: (3/2) log(1 + ||z|^2 + |w|^2 - eps^2|) on C x C -- a
      radially symmetric non-psh dent whose fiberwise kernel is still log-psh.
    * ``minprinciple_cex``: |t^2 + x^2 - 1| on R x R -- non-convex with a
      convex fiberwise infimum max(t^2 - 1, 0).
    """
    if name == "prekopa_cex":
        if eps is None or not (0.0 < eps < 1.0):
            raise InvalidParam("prekopa_cex needs eps in (0, 1)")
        e2 = float(eps) ** 2

        def dent(t, r):
            return abs(t[0] * t[0] + r * r - e2)

        return WeightField(
            fn=lambda p: dent(p, p[1]),
            base_rdim=1, fiber_rdim=1, lower_bound=0.0,
            seams=(FixedSphereSeam((0.0, 0.0), float(eps), (0, 1)),),
            radial_center=AffineFiberMap.constant((0.0,), 1),
            radial_fn=dent,
            envelope=(1.0, 1.0 + float(eps)),
        )
    if name == "berndtsson_cex":
        if eps is None or not (0.0 < eps < 1.0):
            raise InvalidParam("berndtsson_cex needs eps in (0, 1)")
        e2 = float(eps) ** 2

        def log_dent(q):
            return 1.5 * math.log1p(abs(q - e2))

        return WeightField(
            fn=lambda p: log_dent(float(p @ p)),
            base_rdim=2, fiber_rdim=2, lower_bound=0.0,
            seams=(FixedSphereSeam((0.0, 0.0, 0.0, 0.0), float(eps), (0, 1, 2, 3)),),
            radial_center=AffineFiberMap.constant((0.0, 0.0), 2),
            radial_fn=lambda t, r: log_dent(t[0] * t[0] + t[1] * t[1] + r * r),
        )
    if name == "minprinciple_cex":
        def dent(t, r):
            return abs(t[0] * t[0] + r * r - 1.0)

        return WeightField(
            fn=lambda p: dent(p, p[1]),
            base_rdim=1, fiber_rdim=1, lower_bound=0.0,
            seams=(FixedSphereSeam((0.0, 0.0), 1.0, (0, 1)),),
            radial_center=AffineFiberMap.constant((0.0,), 1),
            radial_fn=dent,
            envelope=(1.0, 2.0),
        )
    raise UnknownName(f"no weight named {name!r} in the catalog")
