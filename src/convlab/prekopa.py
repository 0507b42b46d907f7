"""Fiberwise log-mass transforms and convexity diagnostics.

The central object is the marginal transform of a weight ``w`` over a domain
fibered by a base variable::

    marginal(t) = -log  integral over the fiber at t  of  e^{-w(t, x)} dx

Convexity of this curve in t is the quantity under test everywhere in this
package: it survives for convex weights on convex domains, it survives for the
radial dent weight even though the dent itself is not convex, and it fails in
a certified way on a dumbbell-shaped domain, which the midpoint probe here
detects.  Twisted variants add a localization penalty to the weight; with the
quadratic cone penalty the twisted marginal collapses, as the penalty
sharpens, to the weight's value along the moving center, which is what the
localization harness measures.

All transforms return ``+inf`` for empty or mass-zero fibers and propagate
quadrature failures as exceptions; they never return NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParam, NonConvergent, PointOutsideDomain
from .geometry import AffineFiberMap, Domain, fiber
# integrate_1d is unused here but stays importable as prekopa.integrate_1d:
# perfbench/test_perfbench.py checks that the layer tracer wraps it.
from .numerics import integrate_1d, integrate_fiber, minimize_over_fiber
from .weights import WeightField, _distance, convex_localizer

__all__ = [
    "marginal_transform", "twisted_marginal", "min_principle_transform",
    "infimum_over_fiber", "localization_rows", "LocalizationRow",
    "midpoint_divergence_probe", "MidpointProbeRow", "MidpointProbeReport",
    "convexity_check", "ConvexityReport", "MarginalCurve",
    "sample_marginal_curve", "dent_marginal_closed",
]


def marginal_transform(w: WeightField, domain: Domain, t) -> float:
    """-log of the fiber mass of ``e^{-w}`` over the slice of the domain at t.

    Returns ``+inf`` when the fiber is empty or its mass underflows to zero.
    The weight's seams at t, and its decay rate, go to ``integrate_fiber`` as
    the weight gives them, so kinked integrands are still integrated at full
    accuracy.
    """
    fib = fiber(domain, t)
    mass = integrate_fiber(w.fiber_density(fib), fib, seams=w.fiber_seams(fib.t),
                           rate=w.decay_rate)
    if mass <= 0.0:
        return math.inf
    return -math.log(mass)


def twisted_marginal(w: WeightField, twist: WeightField, domain: Domain, t) -> float:
    """Marginal transform of ``w + twist``.

    The twist must carry a certified global lower bound: that is what keeps
    ``e^{-w-twist}`` integrable on unbounded fibers that ``e^{-w}`` alone
    already handles, and it is a hard precondition rather than a convention.
    """
    if twist.lower_bound is None:
        raise InvalidParam("twist weight carries no certified lower bound")
    return marginal_transform(w + twist, domain, t)


# ---------------------------------------------------------------------------
# Localization harness


@dataclass(frozen=True)
class LocalizationRow:
    k: int
    value: float
    target: float
    error: float


def localization_rows(w: WeightField, domain: Domain, a: AffineFiberMap,
                      ks, t) -> list:
    """Twisted marginals with sharpening cone penalties centered on a(t).

    Each row holds the sharpness index, the twisted marginal at t, the target
    value ``w(t, a(t))``, and the absolute gap.  The gap is expected to shrink
    like 1/k when a(t) lies in the open fiber; a target that is not finite
    raises NonConvergent.
    """
    t_arr = domain.base_point(t)
    target = w.at(t_arr, a.at(t_arr))
    if not math.isfinite(target):
        raise NonConvergent(f"weight on the moving center is {target}")
    rows = []
    for k in ks:
        psi = convex_localizer(int(k), a)
        val = twisted_marginal(w, psi, domain, t_arr)
        rows.append(LocalizationRow(k=int(k), value=val, target=target,
                                    error=abs(val - target)))
    return rows


# ---------------------------------------------------------------------------
# Minimum principle


def infimum_over_fiber(w: WeightField, domain: Domain, t, search_box=None):
    """Numerical infimum of ``w(t, .)`` over the closed fiber at t.

    Returns (argmin, value).  Unbounded fibers need an explicit search box.
    """
    fib = fiber(domain, t)
    return minimize_over_fiber(w.on_fiber(fib), fib, search_box=search_box)


def min_principle_transform(w: WeightField, domain: Domain, a: AffineFiberMap,
                            k: float, t) -> float:
    """Infimal convolution ``inf_x [ w(t,x) + k |x - a(t)| ]`` over the fiber.

    This is the degenerate endpoint of the localization family: penalties
    proportional to distance instead of cones with flat feet.  The anchor
    value ``w(t, a(t))`` is always evaluated directly, so the result never
    exceeds it and the search region for unbounded fibers can be certified
    from the weight's lower bound.  A +inf anchor on an unbounded fiber
    certifies no region and raises NonConvergent.
    """
    if not k > 0.0:
        raise InvalidParam("penalty slope k must be positive")
    fib = fiber(domain, t)
    c = a.at(fib.t)
    if len(c) != domain.fiber_rdim:
        raise InvalidParam("anchor map does not match the fiber dimension")

    weight = w.on_fiber(fib)

    def g(x) -> float:
        v = weight(x)
        return v if v == math.inf else v + k * _distance(x, c)
    anchor = weight(c) if fib.member(c, closed=True) else None
    box = None
    lo, hi = fib.bounds()
    if not all(map(math.isfinite, lo + hi)):
        if anchor is None:
            raise PointOutsideDomain("anchor point is outside the closed fiber")
        if w.lower_bound is None:
            raise InvalidParam(
                "unbounded fiber: the weight needs a lower bound to box the search")
        if anchor == math.inf:
            raise NonConvergent("anchor value is +inf; the search cannot be boxed")
        radius = (anchor - w.lower_bound) / k + 1.0
        box = [(ci - radius, ci + radius) for ci in c]

    _, val = minimize_over_fiber(g, fib, search_box=box)
    if anchor is not None:
        val = min(val, anchor)
    return float(val)


# ---------------------------------------------------------------------------
# Midpoint divergence probe


@dataclass(frozen=True)
class MidpointProbeRow:
    k: int
    left: float
    mid: float
    right: float
    violation: float


@dataclass(frozen=True)
class MidpointProbeReport:
    rows: tuple
    midpoint: tuple
    verdict: bool


def midpoint_divergence_probe(w: WeightField, domain: Domain, p0, p1,
                              ks=(8, 16, 32, 64)) -> MidpointProbeReport:
    """Certify a midpoint convexity failure of twisted marginals.

    ``p0`` and ``p1`` are packed points of the total space.  The probe runs
    the localization family whose moving center passes through both points,
    evaluates the twisted marginal at the two base points and their midpoint,
    and reports ``mid - (left + right)/2`` per sharpness index.  The verdict
    is True when the sharpest penalty shows a violation exceeding 1; a
    midpoint value of ``+inf`` over a finite chord qualifies, which is exactly
    what happens when the segment between two fiber components leaves the
    domain.
    """
    nb = domain.base_rdim
    p0, p1 = domain.point(p0), domain.point(p1)
    for p in (p0, p1):
        if not domain.member(p, closed=True):
            raise PointOutsideDomain("probe point is outside the closed domain")
    t0, t1 = p0[:nb], p1[:nb]
    center = AffineFiberMap.through(t0, p0[nb:], t1, p1[nb:])
    tm = tuple((a + b) / 2.0 for a, b in zip(t0, t1))

    rows = []
    for k in ks:
        psi = convex_localizer(int(k), center)
        left = twisted_marginal(w, psi, domain, t0)
        right = twisted_marginal(w, psi, domain, t1)
        mid = twisted_marginal(w, psi, domain, tm)
        if left == math.inf or right == math.inf:
            violation = -math.inf
        elif mid == math.inf:
            violation = math.inf
        else:
            violation = mid - 0.5 * (left + right)
        rows.append(MidpointProbeRow(k=int(k), left=left, mid=mid, right=right,
                                     violation=violation))
    verdict = bool(rows and rows[-1].violation > 1.0)
    return MidpointProbeReport(rows=tuple(rows), midpoint=tm, verdict=verdict)


# ---------------------------------------------------------------------------
# Convexity verdicts on sampled curves


@dataclass(frozen=True)
class ConvexityReport:
    checked: int
    skipped: int
    worst_violation: float
    witness: Optional[tuple]
    tol: float
    verdict: bool


def convexity_check(ts, values, tol: float = 1e-9) -> ConvexityReport:
    """Midpoint convexity audit of a curve sampled on a uniform grid.

    Every pair of grid indices with an exact grid midpoint is tested:
    ``v[m] <= (v[i] + v[j])/2 + tol``.  Values of ``+inf`` are legal; a pair
    whose chord is infinite certifies nothing and is counted as skipped, while
    an infinite midpoint over a finite chord is an infinite violation.  A
    curve with no checked triple certifies nothing and fails.  NaN and
    ``-inf`` values and non-finite grid points are rejected.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    vals = [float(v) for v in values]
    if ts.size != len(vals):
        raise InvalidParam("grid and values have different lengths")
    if ts.size < 3:
        raise InvalidParam("need at least three samples")
    if not np.isfinite(ts).all():
        raise InvalidParam("grid points must be finite")
    if np.any(ts[1:] <= ts[:-1]):
        raise InvalidParam("grid must be strictly increasing")
    # a grid wider than the float range is compared at half scale, which is
    # exact at that size, so no step or span overflows
    scaled = ts if math.isfinite(float(ts[-1]) - float(ts[0])) else 0.5 * ts
    steps = np.diff(scaled)
    if steps.max() - steps.min() > 1e-9 * (scaled[-1] - scaled[0]):
        raise InvalidParam("grid must be uniform for exact midpoints")
    if any(math.isnan(v) or v == -math.inf for v in vals):
        raise InvalidParam("curve contains NaN or -inf")
    if not math.isfinite(tol):
        raise InvalidParam("tol must be finite")

    checked = skipped = 0
    worst = -math.inf
    witness = None
    n = ts.size
    for i in range(n - 2):
        vi = vals[i]
        for j in range(i + 2, n, 2):
            vj = vals[j]
            if vi == math.inf or vj == math.inf:
                skipped += 1
                continue
            m = (i + j) // 2
            vm = vals[m]
            checked += 1
            # halving each end first keeps a chord near the float maximum finite
            violation = math.inf if vm == math.inf else vm - (0.5 * vi + 0.5 * vj)
            if violation > worst:
                worst = violation
                witness = (float(ts[i]), float(ts[m]), float(ts[j]))
    verdict = bool(checked > 0 and worst <= tol)
    return ConvexityReport(checked=checked, skipped=skipped, worst_violation=worst,
                           witness=witness, tol=float(tol), verdict=verdict)


@dataclass(frozen=True)
class MarginalCurve:
    """A marginal transform sampled on a uniform base grid."""

    ts: tuple
    values: tuple

    def convexity(self, tol: float = 1e-9) -> ConvexityReport:
        return convexity_check(self.ts, self.values, tol)

    def to_csv(self) -> str:
        lines = ["t,value"]
        lines.extend(f"{repr(t)},{repr(v)}" for t, v in zip(self.ts, self.values))
        return "\n".join(lines) + "\n"


def sample_marginal_curve(w: WeightField, domain: Domain, ts) -> MarginalCurve:
    ts = tuple(float(t) for t in np.asarray(ts, dtype=float).ravel())
    return MarginalCurve(ts=ts, values=tuple(marginal_transform(w, domain, t) for t in ts))


# ---------------------------------------------------------------------------
# Closed form for the radial dent marginal


def _exp_square_integral(s: float) -> float:
    """integral of e^{y^2} dy from 0 to s, by its everywhere-convergent series."""
    if s < 0.0:
        raise InvalidParam("needs s >= 0")
    term = s
    total = s
    s2 = s * s
    m = 0
    while True:
        m += 1
        term *= s2 / m
        inc = term / (2 * m + 1)
        total += inc
        if inc < 1e-18 * max(total, 1.0) or m > 200:
            return total


def dent_marginal_closed(t: float, eps: float) -> float:
    """Closed-form marginal of the dent weight ``|t^2 + x^2 - eps^2|`` over x.

    Outside the dent (|t| >= eps) the fiber integrand is a pure Gaussian and
    the marginal is ``t^2 - eps^2 - log(sqrt(pi))``.  Inside, the fiber
    splits at ``|x| = sqrt(eps^2 - t^2)`` into a Gaussian tail and an
    inverted-Gaussian core, each in closed form.  This route shares no code
    with the quadrature transform, which is the point: the two must agree.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParam("needs eps in (0, 1)")
    t = float(t)
    gap = eps * eps - t * t
    if gap <= 0.0:
        return t * t - eps * eps - 0.5 * math.log(math.pi)
    s = math.sqrt(gap)
    tail = math.sqrt(math.pi) / 2.0 * math.erfc(s)
    core = _exp_square_integral(s)
    mass = 2.0 * math.exp(gap) * tail + 2.0 * math.exp(-gap) * core
    return -math.log(mass)

