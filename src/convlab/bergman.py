"""Weighted reproducing kernels on plane regions, by two routes.

For a weight ``w`` on a region of the complex plane, the space of holomorphic
functions with finite ``int |f|^2 e^{-w}`` has a reproducing kernel; its
diagonal ``B(z)`` is the largest value of ``|f(z)|^2`` over unit-norm
competitors.  The lab computes it two ways:

* **radial route** -- when the weight and region are rotation invariant the
  monomials are orthogonal, every moment is a one-dimensional integral, and
  ``B(z) = sum |z|^{2j} / m_j`` over the finite moments;
* **gram route** -- on an arbitrary bounded region, assemble the Gram matrix
  of the monomial basis by two-dimensional quadrature and evaluate
  ``B(z) = b(z)^H G^{-1} b(z)``.

The two routes build different integrals but run on the same GK15 core of
``numerics``.  The closed forms of the log dent family (the fiber mass, the
log-kernel curve and its inner Laplacian) call no quadrature at all, so they
are independent of that core and check it.  The quadrature side reads each
weight's profile from ``WeightField.radial_profile`` (the log dent's, so its
formula is written once, in ``weights``); ``kernel_curve`` is the radial
route along the base, and ``bergman_gram`` the Gram route at a point.

Truncation makes both routes converge to the kernel from below (adding basis
functions enlarges the competitor space), so finite-degree values are honest
lower bounds.  The module also carries the diagnostics built on kernels: the
moment-divergence audit ("which monomials carry finite mass at all"), the
log-kernel curve along a base variable with its closed-form twin, mean-value
audits for subharmonicity, and a five-point Laplacian check against a closed
form.

The mean-value audit evaluates its function as an array map: one call on all
centers and one call per probe circle, each on a complex array of points and
returning real values of the same shape.  The log dent closed forms are
elementwise in ``|z|`` (a float in gives a float out), so composed with
``abs`` they are such a map.  A function that can only take one point at a
time is wrapped by its caller in a loop over the points (``np.vectorize``
does it); that per-point adapter is the only scalar loop of the audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (DivergentIntegral, IllConditioned, InvalidParam,
                     MethodUnavailable, NonConvergent, ZeroKernel)
from .geometry import (AffineFiberMap, Domain, boundary_distance, disc_region,
                       fiber)
from .numerics import integrate_1d, integrate_fiber, skirt_ladder
from .weights import (RadialProfile, WeightField, lemma3_weight, psh_localizer,
                      stock_weight)

__all__ = [
    "MomentTable", "radial_moments", "bergman_radial",
    "GramKernel", "gram_kernel", "bergman_gram",
    "berndtsson_profile", "berndtsson_m0_closed", "berndtsson_phi_closed",
    "berndtsson_phi_curve", "berndtsson_inner_laplacian", "laplacian_check",
    "LaplacianRow", "psh_mean_value_check", "PshReport",
    "lemma2_harness", "Lemma2Row", "lemma3_harness", "Lemma3Row",
    "kernel_curve",
]

_COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# Radial route


@dataclass(frozen=True)
class MomentTable:
    """Monomial moments ``m_j = int |z|^{2j} e^{-w}`` with divergence flags."""

    values: tuple
    statuses: tuple  # "finite" | "divergent"

    def __post_init__(self):
        if len(self.values) != len(self.statuses):
            raise InvalidParam("values and statuses differ in length")
        if any(s not in ("finite", "divergent") for s in self.statuses):
            raise InvalidParam("statuses must be 'finite' or 'divergent'")

    def __len__(self) -> int:
        return len(self.values)

    def finite(self, j: int) -> bool:
        return self.statuses[j] == "finite"

    def to_csv(self) -> str:
        lines = ["k,value,status"]
        for j, (v, s) in enumerate(zip(self.values, self.statuses)):
            lines.append(f"{j},{repr(float(v))},{s}")
        return "\n".join(lines) + "\n"


def radial_moments(profile: RadialProfile, max_index: int) -> MomentTable:
    """Moments of a radial weight: ``m_j = 2 pi int r^{2j+1} e^{-profile(r)} dr``.

    Each moment is its own scalar integral up to the cutoff, so its bits do
    not depend on ``max_index``.  On the full plane a diverging tail is
    recorded as status ``divergent`` instead of raising: which moments
    survive is a result, not an error.
    """
    if max_index < 0:
        raise InvalidParam("need max_index >= 0")
    seams = skirt_ladder(profile.seam_radii)
    two_pi, fn, exp = 2.0 * math.pi, profile.fn, math.exp

    def moment(j):
        power = 2 * j + 1
        return lambda r: two_pi * r ** power * exp(-fn(r))

    values, statuses = [], []
    for j in range(max_index + 1):
        try:
            # on a divergent tail a float r ** (2j + 1) raises, but a profile
            # with numpy coefficients warns first; the inf panel is the verdict
            with np.errstate(over="ignore"):
                value = integrate_1d(moment(j), 0.0, profile.cutoff, breakpoints=seams)
            values.append(float(value))
            statuses.append("finite")
        except DivergentIntegral:
            values.append(math.inf)
            statuses.append("divergent")
    return MomentTable(values=tuple(values), statuses=tuple(statuses))


def _radial_mass(profile: RadialProfile) -> float:
    """The moment m_0 of a radial weight, which must be finite and positive."""
    mt = radial_moments(profile, 0)
    if not mt.finite(0):
        raise DivergentIntegral("fiber mass diverged")
    if not mt.values[0] > 0.0:
        raise NonConvergent("fiber mass underflows to zero")
    return mt.values[0]


def bergman_radial(moments: MomentTable, rho: float = 0.0) -> float:
    """Kernel diagonal at radius rho from the moment table.

    ``B(rho) = sum rho^{2j} / m_j`` over the finite moments; divergent moments
    contribute nothing because their monomials are not in the space.  Raises
    ZeroKernel when no moment at all is finite -- the space holds only 0.
    """
    rho = float(rho)
    if not rho >= 0.0:
        raise InvalidParam("rho is a radius; need rho >= 0")
    finite = [(j, v) for j, (v, s) in enumerate(zip(moments.values, moments.statuses))
              if s == "finite"]
    if not finite:
        raise ZeroKernel("every moment diverges; the space contains only zero")
    total = 0.0
    for j, v in finite:
        if not v > 0.0:
            raise InvalidParam(f"moment {j} is not positive")
        total += rho ** (2 * j) / v
    return total


# ---------------------------------------------------------------------------
# Gram route


@dataclass(frozen=True)
class GramKernel:
    """Gram matrix of shifted monomials ``(z - center)^j`` under ``e^{-w}``.

    ``factor`` is derived from ``matrix``: the rows of the lower-triangular L
    with G = L L^H, each a tuple of Python complex numbers ending in its real
    diagonal.  It is computed in plain Python in a fixed order, so its bits
    follow no BLAS or LAPACK kernel, and it reads only the real part of each
    diagonal entry of G.  A pivot that is not positive (NaN included) raises
    IllConditioned: G is then not positive definite.
    """

    matrix: np.ndarray
    center: complex
    cond: float
    factor: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rows = []
        for i, g in enumerate(self.matrix.tolist()):
            row = []
            for j, above in enumerate(rows):
                s = g[j]
                for lk, ak in zip(row, above):
                    s -= lk * ak.conjugate()
                row.append(s / above[-1])
            pivot = g[i].real
            for x in row:
                pivot -= x.real * x.real + x.imag * x.imag
            if not pivot > 0.0:
                raise IllConditioned("gram matrix is not positive definite "
                                     "(degree too high for the mass present)")
            row.append(math.sqrt(pivot))
            rows.append(tuple(row))
        object.__setattr__(self, "factor", tuple(rows))

    def value(self, z: complex | None = None) -> float:
        """Kernel diagonal ``B(z)`` for the truncated basis (a lower bound).

        ``B(z) = |y|^2`` where L y = b(z), solved by forward substitution.
        """
        z = self.center if z is None else complex(z)
        b = ((z - self.center) ** np.arange(self.matrix.shape[0])).tolist()
        y, total = [], 0.0
        for row, s in zip(self.factor, b):
            for lk, yk in zip(row, y):
                s -= lk * yk
            yi = s / row[-1]
            y.append(yi)
            total += yi.real * yi.real + yi.imag * yi.imag
        return total


def gram_kernel(w: WeightField, domain: Domain, t=(), center: complex = 0j,
                degree: int = 8) -> GramKernel:
    """Assemble the monomial Gram matrix over the fiber of ``domain`` at t.

    The integrand is the upper triangle of the rank-one tensor
    ``b(z) b(z)^H e^{-w(t,z)}``, (d+1)(d+2)/2 entries integrated in one
    adaptive pass, and the lower triangle is its conjugate; nothing is
    symmetrized.  The density e^{-w} is the per-point integrand, and the
    monomial products are its ``factor``: they are formed once per call of
    the panel rule, for the 15 points of every panel in the call in one numpy
    expression, and rounded as per point: ``(b[rows] * conj(b)[cols]) *
    density`` with ``b = (z - center) ** j``.  ``np.take`` gathers the rows
    and columns, so the products come back C-ordered and the panel rule
    stacks them without a copy.
    Where numpy's complex products take FMA kernels (X86_V3 and up), a
    diagonal entry keeps an imaginary part at roundoff level, which the
    factor of G ignores.  G is factored once, by ``GramKernel``; a pivot that
    is not positive or a condition number (``np.linalg.cond``) beyond 1e12
    raises IllConditioned rather than returning a silently meaningless
    inverse.
    """
    if degree < 0:
        raise InvalidParam("need degree >= 0")
    if domain.kind != "complex" or domain.fiber_rdim != 2:
        raise InvalidParam("gram route needs a one-dimensional complex fiber")
    fib = fiber(domain, t)
    density = w.fiber_density(fib)
    c = complex(center)
    js = np.arange(degree + 1)
    rows, cols = np.triu_indices(degree + 1)

    def monomials(points):
        b = np.array([complex(x, y) - c for (x, y) in points])[:, None] ** js
        return np.take(b, rows, 1) * np.take(b.conj(), cols, 1)

    upper = integrate_fiber(density, fib, seams=w.fiber_seams(fib.t), factor=monomials)
    gram = np.empty((degree + 1, degree + 1), dtype=complex)
    gram[cols, rows] = np.conj(upper)
    gram[rows, cols] = upper
    cond = float(np.linalg.cond(gram))
    kernel = GramKernel(matrix=gram, center=c, cond=cond)
    if cond > _COND_LIMIT:
        raise IllConditioned(f"gram matrix condition number {cond:.3e} exceeds "
                             f"{_COND_LIMIT:.0e}")
    return kernel


def bergman_gram(w: WeightField, domain: Domain, t=(), at: complex = 0j,
                 degree: int = 8) -> float:
    """Kernel diagonal at ``at`` by the gram route (basis shifted to ``at``)."""
    return gram_kernel(w, domain, t, center=at, degree=degree).value(at)


# ---------------------------------------------------------------------------
# The log-dent weight family: closed forms and curves


def berndtsson_profile(z: complex, eps: float) -> RadialProfile:
    """Fiber profile of the log dent weight at base point z.

    ``r -> (3/2) log(1 + | |z|^2 + r^2 - eps^2 |)`` on the whole plane: the
    ``radial_profile`` of ``stock_weight("berndtsson_cex", eps)`` at
    t = (|z|, 0), whose seam registers the kink radius when the base point
    sits inside the dent.  An eps outside (0, 1) raises the catalog's
    InvalidParam.
    """
    w = stock_weight("berndtsson_cex", eps)
    z_abs = abs(complex(z))
    if not math.isfinite(z_abs * z_abs):
        raise InvalidParam("base point must have a finite |z|^2")
    return w.radial_profile((z_abs, 0.0))


def _log_dent_mass(z_abs, eps: float) -> np.ndarray:
    """Both branches of the log dent fiber mass, elementwise over ``z_abs``."""
    if not (0.0 < eps < 1.0):
        raise InvalidParam("needs eps in (0, 1)")
    za = np.abs(np.asarray(z_abs, dtype=float))
    with np.errstate(over="ignore"):
        zz = za * za
    if not np.isfinite(zz).all():
        raise InvalidParam("base point must have a finite |z|^2")
    outer = za >= eps
    # each branch's radicand is positive on its own side of |z| = eps, so
    # choosing it first leaves no unused branch to evaluate
    s = 2.0 * math.pi / np.sqrt(np.where(outer, 1.0 - eps * eps + zz,
                                          1.0 + eps * eps - zz))
    return np.where(outer, s, 4.0 * math.pi - s)


def _like(z_abs, value: np.ndarray):
    """A Python float for a scalar ``z_abs``, else the array itself."""
    return float(value) if np.ndim(z_abs) == 0 else value


def berndtsson_m0_closed(z_abs, eps: float):
    """Closed-form mass of the log dent fiber: derived by the substitution
    u = r^2, which makes the integrand an exact power of (1 + |c + u|).

    Elementwise: a float ``z_abs`` gives a float, an array gives an array of
    its shape.  A non-finite ``|z|^2`` anywhere raises InvalidParam."""
    return _like(z_abs, _log_dent_mass(z_abs, eps))


def berndtsson_phi_closed(z_abs, eps: float):
    """Closed form of the log-kernel curve ``-log B(z) = log m_0(z)`` ... with
    the sign convention that the curve is minus the log of the fiber mass.

    Elementwise, like ``berndtsson_m0_closed``."""
    return _like(z_abs, -np.log(_log_dent_mass(z_abs, eps)))


def berndtsson_phi_curve(eps: float, z_abs_list) -> list:
    """Quadrature route for the log-kernel curve: ``-log m_0`` per base point.

    Shares no arithmetic with the closed form; agreement of the two is one of
    the package's primary cross-checks.
    """
    out = []
    for za in z_abs_list:
        mass = _radial_mass(berndtsson_profile(complex(abs(float(za)), 0.0), eps))
        out.append(-math.log(mass))
    return out


def berndtsson_inner_laplacian(z_abs, eps: float):
    """Closed-form Laplacian (d^2/dz dzbar) of the inner-branch log-kernel curve.

    Valid for |z| < eps, where the curve is ``-log(2 - 1/sqrt(1+eps^2-|z|^2))``
    up to an additive constant.  Strict positivity of this expression on the
    whole dent is what rules out any harmonic repair of the curve.

    Elementwise, like ``berndtsson_m0_closed``; any ``|z| >= eps`` raises
    InvalidParam."""
    if not (0.0 < eps < 1.0):
        raise InvalidParam("needs eps in (0, 1)")
    za = np.abs(np.asarray(z_abs, dtype=float))
    if (za >= eps).any():
        raise InvalidParam("closed form only holds strictly inside the dent")
    q = 1.0 + eps * eps - za * za
    s = np.sqrt(q)
    num = (2.0 + 2.0 * eps * eps + za * za) * s - (1.0 + eps * eps)
    d = 2.0 * s - 1.0
    return _like(z_abs, num / (2.0 * q * q * (d * d)))


@dataclass(frozen=True)
class LaplacianRow:
    z_abs: float
    numeric: float
    closed: float
    error: float


def laplacian_check(eps: float, z_abs_list, h: float = 1e-3) -> list:
    """Five-point stencil Laplacian of the inner log-kernel branch vs closed form.

    The stencil runs on the inner-branch curve itself; each probe point must
    keep the whole stencil strictly inside the dent.  Rows carry the stencil
    value, the closed form, and their gap -- O(h^2) when both are right.
    """
    if not h > 0.0:
        raise InvalidParam("stencil step must be positive")

    def u(z: complex) -> float:
        return -math.log(2.0 - 1.0 / math.sqrt(1.0 + eps * eps - abs(z) ** 2))

    rows = []
    for za in z_abs_list:
        za = abs(float(za))
        if za + 2.0 * h >= eps:
            raise InvalidParam(f"stencil at |z|={za:g} leaves the dent (eps={eps:g})")
        z = complex(za, 0.0)
        stencil = (u(z + h) + u(z - h) + u(z + 1j * h) + u(z - 1j * h) - 4.0 * u(z))
        numeric = stencil / (4.0 * h * h)
        closed = berndtsson_inner_laplacian(za, eps)
        rows.append(LaplacianRow(z_abs=za, numeric=numeric, closed=closed,
                                 error=abs(numeric - closed)))
    return rows


# ---------------------------------------------------------------------------
# Subharmonicity audit


@dataclass(frozen=True)
class PshReport:
    checked: int
    worst_deficit: float
    witness: Optional[tuple]
    tol: float
    verdict: bool


def _on_points(u: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """``u`` at every point of the complex array ``z``, checked for shape."""
    v = np.asarray(u(z))
    if v.shape != z.shape:
        raise InvalidParam(f"u must map an array of points to values of the same "
                           f"shape: got {v.shape} for {z.shape}")
    return v


@lru_cache(maxsize=8)
def _circle(n_angles: int) -> np.ndarray:
    """The ``n_angles`` equally spaced points of the unit circle from 1,
    shared between calls and read-only."""
    angles = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    angles.flags.writeable = False
    return angles


def psh_mean_value_check(u: Callable[[np.ndarray], np.ndarray], centers, radii,
                         n_angles: int = 1024, tol: float = 0.0) -> PshReport:
    """Sub-mean-value audit: ``u(c) <= circle average`` for every (c, radius).

    ``u`` is an array map: it takes a complex array of points and returns the
    real values there, in the same shape (InvalidParam otherwise).  It is
    called once on all centers and once per (center, radius) circle on
    ``c + radius * angles``; a function of one point at a time is wrapped in
    a loop over the points by its caller (``np.vectorize`` does it).

    The worst deficit ``u(c) - average`` over all probes is reported; a
    positive deficit beyond tol is a certified subharmonicity failure at the
    witness (center, radius).  Uniform angles make the average a trapezoid
    rule, spectrally accurate for smooth circle restrictions.  Radii must be
    positive and finite (InvalidParam); a probe whose deficit is NaN raises
    NonConvergent naming its center and radius.
    """
    if n_angles < 8:
        raise InvalidParam("need at least 8 angles")
    if not math.isfinite(tol):
        raise InvalidParam("tol must be finite")
    centers, radii = [complex(c) for c in centers], [float(rho) for rho in radii]
    if not centers or not radii:
        raise InvalidParam("need at least one center and one radius")
    if not all(math.isfinite(rho) and rho > 0.0 for rho in radii):
        raise InvalidParam("probe radii must be positive and finite")
    angles = _circle(n_angles)
    at_centers = _on_points(u, np.array(centers, dtype=complex))
    worst = -math.inf
    witness = None
    checked = 0
    for c, uc in zip(centers, at_centers):
        uc = float(uc)
        for rho in radii:
            mean = float(np.mean(_on_points(u, c + rho * angles)))
            deficit = uc - mean
            if math.isnan(deficit):
                # a NaN deficit never compares above the worst one, so the
                # audit would pass without having looked at this probe
                raise NonConvergent(
                    f"sub-mean probe at center {c!r}, radius {rho!r} is NaN "
                    f"(u(center) = {uc!r}, circle mean = {mean!r})")
            checked += 1
            if deficit > worst:
                worst = deficit
                witness = (c.real, c.imag, rho)
    return PshReport(checked=checked, worst_deficit=worst, witness=witness,
                     tol=float(tol), verdict=bool(worst <= tol))


# ---------------------------------------------------------------------------
# Localized-kernel harnesses


@dataclass(frozen=True)
class Lemma2Row:
    k: int
    value: float
    target: float
    error: float
    upper: float


def _exp_or_nonconvergent(v: float, what: str) -> float:
    """e^v, raising NonConvergent where it overflows, as an underflowing
    fiber mass does in ``_radial_mass``."""
    try:
        return math.exp(v)
    except OverflowError:
        raise NonConvergent(f"{what} e^{v!r} overflows") from None


def lemma2_harness(profile: RadialProfile, ks) -> list:
    """Localized kernel values at the center of a radial weight, per sharpness.

    For each k the profile ``psh_localizer(k, 0).radial_profile(())`` of the
    log cone of sharpness k, seam included, is added to the profile, and the
    kernel diagonal at 0 is computed by the radial route (``1/m_0``).  The
    target is ``e^{profile(0)}``; the certified finite-k upper bound is
    ``exp(max of the profile on the cone's flat disc, out to its seam 1/k)``.
    """
    target = _exp_or_nonconvergent(profile(0.0), "target")
    origin = AffineFiberMap.constant((0.0, 0.0), 0)
    rows = []
    for k in ks:
        k = int(k)
        if k < 3:
            raise InvalidParam("need k >= 3 for integrable plane penalties")
        cone = psh_localizer(k, origin).radial_profile(())
        (flat,) = cone.seam_radii
        combined = RadialProfile(
            fn=lambda r, cone=cone.fn: profile.fn(r) + cone(r),
            cutoff=profile.cutoff,
            seam_radii=profile.seam_radii + cone.seam_radii,
        )
        value = 1.0 / _radial_mass(combined)
        grid = np.linspace(0.0, flat, 2049)
        upper = _exp_or_nonconvergent(max(profile.fn(float(r)) for r in grid),
                                      "upper bound")
        rows.append(Lemma2Row(k=k, value=value, target=target,
                              error=abs(value - target), upper=upper))
    return rows


@dataclass(frozen=True)
class Lemma3Row:
    k: int
    lower: float
    value: float
    upper: Optional[float]


def lemma3_harness(ks, r: float, domain: Domain | None = None,
                   degree: int = 8) -> list:
    """Kernel bounds for the log shell weight on a plane region.

    For each sharpness k the kernel diagonal at 0 under ``e^{-shell_k}`` is
    computed by the gram route and bracketed by two closed-route bounds: the
    constant competitor ``1/int e^{-shell_k}`` from below, and from above --
    valid once the shell radius ball sits inside the region and k exceeds
    2 -- the reciprocal mass ``1/(pi r^2)`` of the limit disc.  The upper
    bound is omitted (None) when its validity conditions fail.
    """
    if domain is None:
        domain = disc_region(1.0)
    if domain.kind != "complex" or domain.base_rdim != 0 or domain.fiber_rdim != 2:
        raise InvalidParam("needs a pure plane region")
    ball_fits = boundary_distance(domain, (0.0, 0.0)).value >= float(r)
    fib = fiber(domain, ())
    rows = []
    for k in ks:
        k = int(k)
        w = lemma3_weight(k, r)
        mass = integrate_fiber(w.fiber_density(fib), fib, seams=w.fiber_seams(()))
        if not mass > 0.0:
            raise NonConvergent("fiber mass underflows to zero")
        lower = 1.0 / mass
        value = bergman_gram(w, domain, degree=degree)
        upper = 1.0 / (math.pi * r * r) if (ball_fits and k > 2) else None
        rows.append(Lemma3Row(k=k, lower=lower, value=value, upper=upper))
    return rows


# ---------------------------------------------------------------------------
# Kernel curves along the base


def kernel_curve(w: WeightField, domain: Domain, a: AffineFiberMap, k: int,
                 taus) -> list:
    """Localized kernel diagonal ``B(a(tau))`` per tau, by the radial route.

    Adds the log-cone penalty of sharpness k about the moving center and
    reads ``1/m_0`` of the sum's ``radial_profile(t, cutoff)``, which the sum
    has when ``w`` is a constant or has a ``radial_fn`` about a(tau).  The
    cutoff is the fiber node's ``disc_radius`` about a(tau): a full plane or a
    disc centered on a(tau) exactly; anything else raises MethodUnavailable so
    a silently wrong fast path cannot exist.  The Gram value at the same point
    is ``bergman_gram(w + psh_localizer(k, a), domain, t, at=complex(*a.at(t)))``.
    """
    if domain.kind != "complex" or domain.fiber_rdim != 2:
        raise InvalidParam("kernel curves need one-dimensional complex fibers")
    combined = w + psh_localizer(k, a)
    out = []
    for tau in taus:
        t = domain.base_point(tau)
        cutoff = fiber(domain, t).node.disc_radius(a.at(t))
        if cutoff is None:
            raise MethodUnavailable(
                "fiber is not a plane or a disc centered on the moving center")
        out.append(1.0 / _radial_mass(combined.radial_profile(t, cutoff)))
    return out
