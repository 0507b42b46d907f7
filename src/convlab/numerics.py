"""Deterministic quadrature and minimization kernels.

Everything downstream (marginal transforms, moment tables, Gram matrices)
reduces to a handful of numerical primitives collected here:

* ``integrate_1d`` -- adaptive Gauss--Kronrod (7/15) panels with interval
  bisection, caller-registered breakpoints, and improper tails handled by
  doubling windows with an empirical Cauchy test.
* ``integrate_fiber`` -- integration over one- and two-dimensional fiber
  regions described by interval decompositions (tensor quadrature with exact
  per-abscissa slicing; no rejection masks).
* ``minimize_over_fiber`` -- deterministic coarse-grid search with local
  refinement and lexicographic tie-breaking.

Design constraints honored throughout: repeated calls with identical inputs
produce bit-identical results (fixed evaluation order, compensated summation,
no randomness, no parallelism), integrands may be scalar-, vector- or
complex-valued (error control uses the max-norm across components), and
divergence is reported by exception rather than by a garbage value.

A GK15 panel calls the integrand once per node (15 calls) and reduces the
stacked node values with four 1-D ``np.dot`` products against the Kronrod and
Gauss weight rows: the Kronrod value, the Gauss value, the absolute-value
integral and the residual about the panel mean.  Array-valued integrands are
flattened to ``(15, m)`` for these products and the value is reshaped back;
scalar integrands stay 1-D, so their error arithmetic runs on numpy scalars.
Each product is a separate BLAS vector call on purpose: one stacked
``(2, 15) @ (15, m)`` product takes a different BLAS path and changes the
last bits of the results.

On a two-dimensional fiber the outer integrand F(x) = int slice(x) dy has
square-root endpoints wherever a slice closes up or a seam circle turns (a
disc's slice is 2 sqrt(r^2 - x^2)), and GK15 converges only algebraically
there.  ``integrate_fiber`` therefore enters each segment between such edges
through the cubic x = e + h u^2 (3 - 2u), whose Jacobian vanishes at both ends
and makes those endpoints smooth (a polynomial endpoint substitution, Sidi
1993).

Deliberately out of scope: quadrature in more than two fiber dimensions,
Monte Carlo fallbacks, oscillatory-integral machinery, and arbitrary
precision.  Slowly convergent algebraic tails (decay weaker than the declared
envelopes) may be reported divergent; that is the documented trade-off of the
doubling-window test.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DivergentIntegral,
    InvalidParam,
    NonConvergent,
    OutOfDomain,
    Unbounded,
)

__all__ = [
    "QuadConfig",
    "MinConfig",
    "BallVolume",
    "integrate_1d",
    "integrate_fiber",
    "minimize_over_fiber",
    "kahan_total",
    "skirt_ladder",
    "DEFAULT_QUAD",
    "DEFAULT_MIN",
]

_EPS = float(np.finfo(np.float64).eps)

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
# Positive abscissae; the full node set is symmetric about 0.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Ascending node layout with matching Kronrod weights and (zero-padded) Gauss
# weights; Gauss nodes are the odd-indexed Kronrod nodes.
_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
_KW = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_GW = np.zeros(15)
_GW[1::2] = list(_WG[:3]) + [_WG[3]] + list(reversed(_WG[:3]))

_MAX_TAIL_DOUBLINGS = 60
_GROWTH_STREAK_LIMIT = 8


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the quadrature engine.

    ``abs_tol``/``rel_tol`` bound the total panel-error estimate.
    ``max_subdiv`` caps the number of panels per adaptive pass and the number
    of tail doublings.  ``tail_radius`` is the initial truncation radius for
    improper integrals; the radius doubles until the increment falls below
    ``abs_tol/4``.  ``tail_growth_bound`` is the largest increment ratio the
    tail test tolerates before declaring divergence early (increments that
    keep growing faster than this for several consecutive doublings can never
    pass the Cauchy test).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdiv: int = 2000
    tail_radius: float = 8.0
    tail_growth_bound: float = 1.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise InvalidParam("abs_tol must be positive and finite")
        if not (self.rel_tol >= 0.0 and math.isfinite(self.rel_tol)):
            raise InvalidParam("rel_tol must be nonnegative and finite")
        if self.max_subdiv < 8:
            raise InvalidParam("max_subdiv must be at least 8")
        if not (self.tail_radius > 0.0 and math.isfinite(self.tail_radius)):
            raise InvalidParam("tail_radius must be positive and finite")
        if self.tail_growth_bound <= 0.0:
            raise InvalidParam("tail_growth_bound must be positive")


@dataclass(frozen=True)
class MinConfig:
    """Grid search controls: node count per axis, refinement rounds, and the
    spacing at which refinement stops."""

    grid_points: int = 33
    refine_iters: int = 40
    tol: float = 1e-10

    def __post_init__(self):
        if self.grid_points < 3:
            raise InvalidParam("grid_points must be at least 3")
        if self.refine_iters < 0:
            raise InvalidParam("refine_iters must be nonnegative")
        if not (self.tol > 0.0):
            raise InvalidParam("tol must be positive")


DEFAULT_QUAD = QuadConfig()
DEFAULT_MIN = MinConfig()


class BallVolume:
    """Volumes sigma_N of the unit ball in R^N.

    Small dimensions come from an exact table (sigma_1 = 2, sigma_2 = pi,
    ...); the general case uses pi^(N/2) / Gamma(N/2 + 1).
    """

    _TABLE = {
        1: 2.0,
        2: math.pi,
        3: 4.0 * math.pi / 3.0,
        4: math.pi * math.pi / 2.0,
    }

    @staticmethod
    def of(n: int) -> float:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidParam(f"ball dimension must be a positive integer, got {n!r}")
        n = int(n)
        if n in BallVolume._TABLE:
            return BallVolume._TABLE[n]
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def kahan_total(parts: Iterable):
    """Compensated sum of floats or same-shape arrays, in iteration order."""
    total = None
    carry = None
    for p in parts:
        p = np.asarray(p)
        if total is None:
            total = p.astype(p.dtype, copy=True)
            carry = np.zeros_like(total)
            continue
        y = p - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if total is None:
        return 0.0
    return total if total.ndim else total[()]


def _panel_rule(f, a: float, b: float):
    """One GK15 evaluation on [a, b].

    Returns (kronrod_value, error_estimate, resabs) where the error estimate
    follows the QUADPACK rescaling: sharp for smooth panels, conservative near
    integrable singularities, floored at the roundoff level of the panel.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    try:
        stack = np.array([f(mid + half * u) for u in _NODES])  # (15, *shape)
    except OverflowError:
        # math.exp and friends raise where np.exp would return inf; either way
        # the panel is non-finite.
        return math.inf, math.inf, math.inf
    shape = stack.shape[1:]
    if not np.isfinite(stack).all():
        return np.full(shape, np.inf), math.inf, math.inf
    # A scalar integrand stays 1-D: through (15, 1) its ``** 1.5`` below would
    # take the array power loop, which can differ from the scalar one in the
    # last bit.
    flat = stack.reshape(15, -1) if stack.ndim > 1 else stack
    resk = np.dot(_KW, flat) * half
    resg = np.dot(_GW, flat) * half
    resabs = np.dot(_KW, np.abs(flat)) * abs(half)
    reskh = resk * 0.5
    resasc = np.dot(_KW, np.abs(flat * half - reskh))

    raw = np.abs(resk - resg)
    err = np.where(
        (resasc != 0.0) & (raw != 0.0),
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc == 0.0, 1.0, resasc)) ** 1.5),
        raw,
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk.reshape(shape), float(err.max()), float(resabs.max())


def _adaptive_segments(f, segments: Sequence[tuple[float, float]], cfg: QuadConfig):
    """Greedy bisection over an initial list of finite segments.

    The panel with the worst error estimate is split first; the loop ends when
    the summed estimates meet max(abs_tol, rel_tol * |integral|).  Panels are
    re-summed left-to-right with compensated arithmetic so the result does not
    depend on the subdivision history.
    """
    panels = []  # (a, b, value, err)
    heap = []
    seq = 0
    for (a, b) in segments:
        if not (b > a):
            continue
        val, err, _ = _panel_rule(f, a, b)
        if not np.isfinite(val).all():
            raise NonConvergent(f"non-finite panel value on [{a}, {b}]")
        panels.append((a, b, val, err))
        heapq.heappush(heap, (-err, seq, len(panels) - 1))
        seq += 1
    if not panels:
        return 0.0, 0.0

    running = panels[0][2] * 0.0
    for p in panels:
        running = running + p[2]
    tot_err = math.fsum(p[3] for p in panels)
    dead = [False] * len(panels)  # panels too narrow to split further

    while True:
        norm = float(np.abs(running).max())
        if tot_err <= max(cfg.abs_tol, cfg.rel_tol * norm):
            break
        if len(panels) >= cfg.max_subdiv:
            raise NonConvergent(
                f"quadrature needed more than {cfg.max_subdiv} panels "
                f"(error estimate {tot_err:.3e})"
            )
        while heap and dead[heap[0][2]]:
            heapq.heappop(heap)
        if not heap:
            raise NonConvergent(
                f"quadrature stalled at error estimate {tot_err:.3e}; "
                "all panels at roundoff width"
            )
        _, _, idx = heapq.heappop(heap)
        a, b, val, err = panels[idx]
        width_floor = 16.0 * _EPS * max(1.0, abs(a), abs(b))
        if (b - a) <= width_floor:
            dead[idx] = True
            continue
        mid = 0.5 * (a + b)
        lval, lerr, _ = _panel_rule(f, a, mid)
        rval, rerr, _ = _panel_rule(f, mid, b)
        if not (np.isfinite(lval).all() and np.isfinite(rval).all()):
            raise NonConvergent(f"non-finite panel value inside [{a}, {b}]")
        panels[idx] = (a, mid, lval, lerr)
        dead[idx] = False
        panels.append((mid, b, rval, rerr))
        dead.append(False)
        heapq.heappush(heap, (-lerr, seq, idx))
        seq += 1
        heapq.heappush(heap, (-rerr, seq, len(panels) - 1))
        seq += 1
        running = running - val + lval + rval
        tot_err = tot_err - err + lerr + rerr

    panels.sort(key=lambda p: (p[0], p[1]))
    value = kahan_total(p[2] for p in panels)
    return value, tot_err


def skirt_ladder(points, rate: float | None = None) -> tuple:
    """Pad breakpoints with geometrically spaced satellites on both sides.

    A kink followed by decay at rate ``rate`` leaves a skirt of width ~1/rate
    that a wide adaptive panel samples as identically zero and never refines.
    Surrounding each breakpoint with a ladder of panel edges at geometric
    distances forces panels whose width matches the decay scale, so the skirt
    is seen and integrated.  Without a rate, a fixed multi-scale ladder covers
    decay scales down to 1e-7.
    """
    scales = [1e-7, 1e-5, 1e-3, 1e-1, 1.0]
    if rate is not None and rate > 0.0:
        base = 1.0 / float(rate)
        scales.extend(base * f for f in (1.0, 8.0, 64.0, 512.0))
    out = []
    for p in points:
        p = float(p)
        out.append(p)
        for s in scales:
            out.append(p - s)
            out.append(p + s)
    return tuple(out)


def _split_at_breakpoints(a: float, b: float, breakpoints) -> list[tuple[float, float]]:
    pts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a] + pts + [b]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _tail_windows(f, start: float, sign: int, r0: float, cfg: QuadConfig, breakpoints):
    """Integrate over [start, +inf) or (-inf, start] by doubling windows.

    Stops once a window contributes at most abs_tol/4 in max-norm; raises
    DivergentIntegral when the doubling budget runs out, when a window value
    is non-finite, or when increments keep growing past tail_growth_bound.
    Returns a list of (left_endpoint, value) pieces.
    """
    wcfg = replace(cfg, abs_tol=max(cfg.abs_tol / 64.0, 1e-300), rel_tol=min(cfg.rel_tol, 1e-9))
    budget = min(cfg.max_subdiv, _MAX_TAIL_DOUBLINGS)
    pieces = []
    inner = start
    radius = r0
    prev_mag = None
    growth_streak = 0
    for _ in range(budget + 1):
        outer = start + sign * radius
        lo, hi = (inner, outer) if sign > 0 else (outer, inner)
        segs = _split_at_breakpoints(lo, hi, breakpoints)
        try:
            val, _ = _adaptive_segments(f, segs, wcfg)
        except NonConvergent as exc:
            raise DivergentIntegral(
                f"tail window [{lo}, {hi}] did not stabilize: {exc}"
            ) from exc
        arr = np.atleast_1d(np.asarray(val))
        if not np.all(np.isfinite(arr)):
            raise DivergentIntegral(
                f"tail window [{lo}, {hi}] is non-finite; integral diverges"
            )
        pieces.append((lo, val))
        mag = float(np.max(np.abs(arr)))
        if mag <= cfg.abs_tol / 4.0:
            return pieces
        if prev_mag is not None and mag > cfg.tail_growth_bound * prev_mag * (1.0 + 1e-12):
            growth_streak += 1
            if growth_streak >= _GROWTH_STREAK_LIMIT:
                raise DivergentIntegral(
                    "tail increments grew for "
                    f"{growth_streak} consecutive doublings (last {mag:.3e})"
                )
        else:
            growth_streak = 0
        prev_mag = mag
        inner = outer
        radius *= 2.0
    raise DivergentIntegral(
        f"tail increment still {prev_mag:.3e} after {budget} doublings "
        f"(abs_tol {cfg.abs_tol:.1e})"
    )


def integrate_1d(f, a: float, b: float, cfg: QuadConfig | None = None, breakpoints=()):
    """Integrate ``f`` over (a, b); either endpoint may be infinite.

    ``f`` maps a float to a float, complex, or ndarray (fixed shape).
    ``breakpoints`` registers known kinks/seams so no panel straddles one.
    Raises NonConvergent when the panel budget is exhausted and
    DivergentIntegral when an improper tail fails the doubling test.
    """
    cfg = cfg or DEFAULT_QUAD
    if math.isnan(a) or math.isnan(b):
        raise InvalidParam("integration endpoints must not be NaN")
    if a > b:
        raise InvalidParam(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    bps = [float(p) for p in breakpoints if math.isfinite(p)]

    pieces = []
    if math.isinf(a) and math.isinf(b):
        r0 = max(cfg.tail_radius, max((abs(p) for p in bps), default=0.0))
        core, _ = _adaptive_segments(f, _split_at_breakpoints(-r0, r0, bps), cfg)
        pieces.append((-r0, core))
        pieces.extend(_tail_windows(f, r0, +1, r0, cfg, bps))
        pieces.extend(_tail_windows(f, -r0, -1, r0, cfg, bps))
    elif math.isinf(b):
        r0 = max(cfg.tail_radius, max(((p - a) for p in bps), default=0.0))
        core, _ = _adaptive_segments(f, _split_at_breakpoints(a, a + r0, bps), cfg)
        pieces.append((a, core))
        pieces.extend(_tail_windows(f, a + r0, +1, r0, cfg, bps))
    elif math.isinf(a):
        r0 = max(cfg.tail_radius, max(((b - p) for p in bps), default=0.0))
        core, _ = _adaptive_segments(f, _split_at_breakpoints(b - r0, b, bps), cfg)
        pieces.append((b - r0, core))
        pieces.extend(_tail_windows(f, b - r0, -1, r0, cfg, bps))
    else:
        value, _ = _adaptive_segments(f, _split_at_breakpoints(a, b, bps), cfg)
        return value

    pieces.sort(key=lambda p: p[0])
    return kahan_total(p[1] for p in pieces)


def _circle_crossings(x: float, circles) -> list[float]:
    out = []
    for (cx, cy, r) in circles:
        d2 = r * r - (x - cx) * (x - cx)
        if d2 > 0.0:
            s = math.sqrt(d2)
            out.extend((cy - s, cy + s))
    return out


def integrate_fiber(f, fiber, cfg: QuadConfig | None = None,
                    point_seams=(), circle_seams=()):
    """Integrate ``f`` over a fiber region of dimension 1 or 2.

    ``fiber`` must expose ``dim``, ``quad_intervals()`` (dimension 1),
    ``slice_intervals(x)`` and ``critical_xs()`` (dimension 2), and
    ``bounds()``.  ``f`` takes an ndarray point of length ``dim``.
    ``point_seams`` are fiber-coordinate breakpoints (dimension 1);
    ``circle_seams`` are (cx, cy, radius) kink circles (dimension 2).
    An empty fiber integrates to 0.

    In dimension 2 the outer integral runs over s, one unit per segment
    between sorted edges e_0 < ... < e_n (the finite x-extremes of the region,
    ``critical_xs()`` and the seam circles): x = e_i + h u^2 (3 - 2u) with
    u = s - i and h = e_{i+1} - e_i.  The Jacobian 6 h u (1 - u) cancels the
    square-root behaviour of the slice length at every edge where a slice
    closes up or a seam circle turns, so plain GK15 panels converge fast
    there.  An unbounded end continues the first or last edge by the
    identity; a plane with no finite edge is integrated in x itself.
    """
    cfg = cfg or DEFAULT_QUAD
    dim = fiber.dim
    if dim == 1:
        intervals = fiber.quad_intervals()
        if not intervals:
            return 0.0
        fn = lambda x: f(np.array([x]))
        values = []
        for (lo, hi) in intervals:
            values.append((lo, integrate_1d(fn, lo, hi, cfg, breakpoints=point_seams)))
        values.sort(key=lambda p: p[0])
        return kahan_total(v for (_, v) in values)
    if dim != 2:
        raise InvalidParam("integrate_fiber supports fiber dimension 1 or 2 only")

    lo, hi = fiber.bounds()
    x_lo, x_hi = float(lo[0]), float(hi[0])
    if x_lo >= x_hi:
        return 0.0
    if math.isinf(x_lo) or math.isinf(x_hi):
        width = 8.0 * cfg.tail_radius
    else:
        width = x_hi - x_lo
    icfg = replace(cfg, abs_tol=max(cfg.abs_tol / (16.0 * max(1.0, width)), 1e-300))

    circles = [(float(cx), float(cy), float(r)) for (cx, cy, r) in circle_seams]

    def outer(x: float):
        slices = fiber.slice_intervals(x)
        if not slices:
            return 0.0
        ybps = _circle_crossings(x, circles)
        parts = []
        for (ylo, yhi) in slices:
            g = lambda y: f(np.array([x, y]))
            parts.append((ylo, integrate_1d(g, ylo, yhi, icfg, breakpoints=ybps)))
        parts.sort(key=lambda p: p[0])
        return kahan_total(v for (_, v) in parts)

    edges = [x_lo, x_hi, *fiber.critical_xs()]
    for (cx, cy, r) in circles:
        edges.extend((cx - r, cx + r))
    edges = sorted({float(e) for e in edges if math.isfinite(e) and x_lo <= e <= x_hi})
    n = len(edges) - 1  # finite segments; -1 for a plane with no finite edge
    x0 = edges[0] if edges else 0.0

    def mapped(s: float):
        if s < 0.0 or n < 1:
            return outer(x0 + s)
        if s > n:
            return outer(edges[n] + (s - n))
        i = min(int(s), n - 1)
        u = s - i
        h = edges[i + 1] - edges[i]
        return outer(edges[i] + h * (u * u * (3.0 - 2.0 * u))) * (6.0 * h * u * (1.0 - u))

    s_lo = -math.inf if math.isinf(x_lo) else 0.0
    s_hi = math.inf if math.isinf(x_hi) else float(n)
    return integrate_1d(mapped, s_lo, s_hi, cfg, breakpoints=range(len(edges)))


def _axis_grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def minimize_over_fiber(f, fiber, cfg: MinConfig | None = None, search_box=None):
    """Deterministic grid minimization of ``f`` over a fiber region.

    ``search_box`` (pairs of (lo, hi) per axis) must be supplied when the
    fiber is unbounded; when the coarse-grid minimum sits on a truncated edge
    and runs downhill there, Unbounded is raised.  Ties on the grid resolve to
    the lexicographically smallest point.  Returns (argmin, value) where the
    returned value never exceeds f at any evaluated grid node.
    """
    cfg = cfg or DEFAULT_MIN
    dim = fiber.dim
    lo, hi = fiber.bounds()
    lo = np.array([float(v) for v in lo])
    hi = np.array([float(v) for v in hi])
    if search_box is not None:
        box = [(float(a), float(b)) for (a, b) in search_box]
        if len(box) != dim:
            raise InvalidParam("search_box dimension mismatch")
        for i, (a, b) in enumerate(box):
            lo[i] = max(lo[i], a)
            hi[i] = min(hi[i], b)
    unbounded = [i for i in range(dim) if math.isinf(lo[i]) or math.isinf(hi[i])]
    if unbounded:
        raise Unbounded(
            f"fiber unbounded along axes {unbounded}; declare a search_box"
        )
    if np.any(lo > hi):
        raise OutOfDomain("search box does not meet the fiber")

    axes = [_axis_grid(lo[i], hi[i], cfg.grid_points) for i in range(dim)]

    def scan(axes_list):
        """Evaluate on the tensor grid; returns (best_point, best_val, best_index)."""
        best_val = math.inf
        best_pt = None
        best_idx = None
        if dim == 1:
            for i, x in enumerate(axes_list[0]):
                p = np.array([x])
                if not fiber.member(p):
                    continue
                v = float(f(p))
                if v < best_val:
                    best_val, best_pt, best_idx = v, p, (i,)
        else:
            for i, x in enumerate(axes_list[0]):
                for j, y in enumerate(axes_list[1]):
                    p = np.array([x, y])
                    if not fiber.member(p):
                        continue
                    v = float(f(p))
                    if v < best_val:
                        best_val, best_pt, best_idx = v, p, (i, j)
        return best_pt, best_val, best_idx

    best_pt, best_val, best_idx = scan(axes)
    if best_pt is None:
        raise OutOfDomain("no grid node lies in the fiber")

    # Downhill-at-the-edge test on the coarse grid: a minimizer pinned to the
    # boundary ring with the inward neighbor above it indicates escape.
    if search_box is not None:
        for ax in range(dim):
            n = cfg.grid_points
            i = best_idx[ax]
            if i in (0, n - 1):
                step = 1 if i == 0 else -1
                nb_idx = list(best_idx)
                nb_idx[ax] += step
                nb = np.array([axes[d][nb_idx[d]] for d in range(dim)])
                if fiber.member(nb) and float(f(nb)) > best_val:
                    raise Unbounded(
                        f"grid minimum sits on the search-box edge along axis {ax} "
                        "and decreases outward"
                    )

    spacing = np.array([
        (hi[i] - lo[i]) / (cfg.grid_points - 1) if cfg.grid_points > 1 else 0.0
        for i in range(dim)
    ])
    center = best_pt
    for _ in range(cfg.refine_iters):
        if np.all(spacing <= cfg.tol):
            break
        new_axes = []
        for i in range(dim):
            a = max(lo[i], center[i] - spacing[i])
            b = min(hi[i], center[i] + spacing[i])
            new_axes.append(_axis_grid(a, b, cfg.grid_points))
        pt, val, _ = scan(new_axes)
        if pt is not None and val < best_val:
            best_val = val
            best_pt = pt
        if pt is not None:
            center = pt
        spacing = np.array([
            (ax[-1] - ax[0]) / (cfg.grid_points - 1) for ax in new_axes
        ])
    return best_pt, best_val

