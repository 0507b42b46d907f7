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

There are no config objects: tolerances and budgets are private module
constants.  The one value that varies inside the engine, the absolute
tolerance, is ``integrate_1d``'s ``abs_tol`` keyword.

Design constraints honored throughout: repeated calls with identical inputs
produce bit-identical results (fixed evaluation order, compensated summation,
no randomness, no parallelism), integrands may be scalar-, vector- or
complex-valued (error control uses the max-norm across components), and
divergence is reported by exception rather than by a garbage value.

A GK15 panel evaluates the integrand at its 15 nodes and reduces the node
values to four sums against the Kronrod and Gauss weights: the Kronrod
value, the Gauss value, the absolute-value integral and the residual about
the panel mean.  Each sum is a plain sum, left to right over the ascending
nodes, whatever the values are.  Numbers (the marginals of every Prekopa
check, every radial moment) are summed in plain Python, each sum written out
as one expression, ``zero + k0 * v0 + k1 * v1 + ... + k0 * v14``: Python's
``+`` is left-associative, so the expression adds term by term in node
order, with no loop.  The builtin ``sum()`` is not used, because from Python
3.12 on it compensates float sums, and neither is ``math.fsum``; either
would round otherwise than the array sums.  Arrays (the Gram tensor) are
summed a whole row at a time, in the same order.  Nothing in a panel calls
BLAS, so no panel depends on OpenBLAS's CPU kernels.

Inside the module there is one integrand protocol, batched: ``_panel_rule``,
``_adaptive_segments`` and ``_tail_windows`` take an integrand over a
panel's 15 nodes.  ``integrate_1d`` is the one adapter that builds it from
what callers pass: a per-node ``f``, called once per node in ascending
order, times an optional ``factor``, which is formed once per panel for all
15 nodes (the Gram route's monomial products).  The product rounds as the
per-node product would.  A batched array may come back in another memory
layout than C order (numpy's advanced indexing returns a transposed one),
and ``sum(axis=0)`` adds the rows one after another only on a C-ordered
stack; so ``_panel_rule`` makes its stack C-ordered, and every batched
integrand may rely on that.

Each node reaches ``f`` as a Python float, formed as ``mid + half * u`` in
Python floats (two roundings, as numpy's array expression rounds them), and
each point of a fiber as a tuple of them, ``(x,)`` or ``(x, y)``.  Numpy
scalars would give the same IEEE results for every operation allowed below,
at several times the cost per operation, so a scalar integrand computes in
Python floats from node to value unless it brings numpy values of its own
(the randomized test suites draw their coefficients as Python floats for
this reason).  The rule below holds for a factor as for any batched
integrand.

The same results must not depend on numpy's SIMD level either.  Some numpy
ufuncs (exp, log, log1p, powers other than squares) have AVX-512 kernels
whose last bits differ from the narrower ones, and a complex product takes
FMA kernels from X86_V3 up.  So an integrand, and any batched integrand,
uses numpy only for exactly rounded operations on real values: +, -, *, /,
sqrt, comparisons, ``np.where`` and ``np.maximum``.  It writes a square as
``x * x`` and keeps exp and log on ``math``, one value at a time.  Three
known exceptions have not moved a report: the Gram factor's complex
products, now formed per panel (and its complex powers); the array panel's
own error rescaling, which takes ``** 1.5`` in numpy; and the array panel's
``np.abs`` of complex values (``resabs``, ``resasc`` and the Kronrod-Gauss
difference), whose bits change between X86_V3 and X86_V2.  The last two can
move an error estimate by an ulp, never a sum.

On a two-dimensional fiber the outer integrand F(x) = int slice(x) dy has
square-root endpoints wherever a slice closes up or a seam circle turns (a
disc's slice is 2 sqrt(r^2 - x^2)), and GK15 converges only algebraically
there.  ``integrate_fiber`` therefore enters each segment between such edges
through the cubic x = e + h u^2 (3 - 2u), whose Jacobian vanishes at both ends
and makes those endpoints smooth (a polynomial endpoint substitution, Sidi
1993).

Deliberately out of scope: quadrature in more than two fiber dimensions,
Monte Carlo fallbacks, oscillatory-integral machinery, and arbitrary
precision.  Slowly convergent algebraic tails may be reported divergent; that
is the documented trade-off of the doubling-window test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable

import numpy as np

from .errors import (
    DivergentIntegral,
    InvalidParam,
    NonConvergent,
    OutOfDomain,
    Unbounded,
)

__all__ = [
    "BallVolume",
    "integrate_1d",
    "integrate_fiber",
    "minimize_over_fiber",
    "kahan_total",
    "skirt_ladder",
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

# Ascending node layout, as Python floats, with matching Kronrod weights, and
# the Gauss weights of the odd-indexed Kronrod nodes, which are the Gauss
# nodes.  The weight rows serve the array reduction; the scalar one reads
# the symmetric halves _WGK and _WG directly.
_NODES_ROW = tuple([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
_KW = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_GW = np.array(list(_WG[:3]) + [_WG[3]] + list(reversed(_WG[:3])))

# Quadrature: the panel-error budget max(abs_tol, _REL_TOL * |I|) and the
# panel cap of one adaptive pass.  An improper integral integrates a core of
# half-width at least _TAIL_RADIUS, then doubles tail windows until one adds
# at most abs_tol/4; increments that grow for _GROWTH_STREAK_LIMIT doublings
# in a row can never pass that test and are declared divergent early.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_PANELS = 2000
_TAIL_RADIUS = 8.0
_MAX_TAIL_DOUBLINGS = 60
_GROWTH_STREAK_LIMIT = 8

# Grid minimization: nodes per axis, refinement rounds, and the grid spacing
# at which refinement stops.
_GRID_POINTS = 33
_REFINE_ROUNDS = 40
_MIN_SPACING = 1e-10


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
    """Compensated sum of floats or same-shape arrays, in iteration order.

    Each part keeps its own arithmetic (floats sum as floats, with numpy's
    bits); an empty sum is 0.0.
    """
    it = iter(parts)
    total = next(it, 0.0)
    carry = 0.0
    for p in it:
        y = p - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _panel_rule(f, a: float, b: float):
    """One GK15 evaluation on [a, b].

    Returns (kronrod_value, error_estimate) where the error estimate follows
    the QUADPACK rescaling: sharp for smooth panels, conservative near
    integrable singularities, floored at the roundoff level of the panel.
    ``f`` is batched: it takes the 15 nodes, ascending, as a list of Python
    floats (``mid + half * u`` for each node ``u`` of [-1, 1]) and returns
    their values, as a list of 15 or as an array whose first axis runs over
    the nodes (``integrate_1d`` builds it).  A panel with a non-finite node
    value gives an infinite value and error, and so does an integrand that
    raises OverflowError or ZeroDivisionError.  Every sum runs left to right
    over the ascending nodes.  Node values with one entry each (real or
    complex numbers of any numeric type, 0-d and single-entry arrays) are
    reduced by ``_scalar_rule`` as Python floats or complexes; a list of
    Python floats is passed on as it is, so a scalar panel makes no numpy
    call from node to sum.  Larger values
    are stacked to a C-ordered ``(15, m)`` array, and ``sum(axis=0)`` adds
    whole rows one after another: the same order.  The C order is made here,
    because a batched product can come back in another memory layout, on
    which numpy would sum the rows pairwise.  The signed sums start from the
    same -0.0 (numpy's own start is +0.0).  A single column would be summed
    pairwise, which is why it takes the scalar rule.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    try:
        vals = f([mid + half * u for u in _NODES_ROW])
        if type(vals) is list and all(type(v) is float for v in vals):
            return _scalar_rule(vals, half, -0.0)
        stack = np.ascontiguousarray(vals)  # (15, *shape)
        zero = complex(-0.0, -0.0) if stack.dtype.kind == "c" else -0.0
        if stack.size == 15:
            val, err = _scalar_rule([type(zero)(v) for v in stack.ravel().tolist()], half, zero)
            return (val if stack.ndim == 1 else np.full(stack.shape[1:], val)), err
    except (OverflowError, ZeroDivisionError):
        # math.exp and friends raise where np.exp would return inf, and so
        # do abs() of a complex number beyond the float range and a float
        # ** that leaves it; float division by a node at exactly 0.0 raises
        # where a numpy scalar would return inf.  Either way the panel is
        # non-finite.
        return math.inf, math.inf
    shape = stack.shape[1:]
    if not np.isfinite(stack).all():
        return np.full(shape, np.inf), math.inf
    flat = stack.reshape(15, -1)
    resk = (_KW[:, None] * flat).sum(axis=0, initial=zero) * half
    resg = (_GW[:, None] * flat[1::2]).sum(axis=0, initial=zero) * half
    resabs = (_KW[:, None] * np.abs(flat)).sum(axis=0) * abs(half)
    reskh = resk * 0.5
    resasc = (_KW[:, None] * np.abs(flat * half - reskh)).sum(axis=0)

    raw = np.abs(resk - resg)
    err = np.where(
        (resasc != 0.0) & (raw != 0.0),
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc == 0.0, 1.0, resasc)) ** 1.5),
        raw,
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk.reshape(shape), float(err.max())


def _scalar_rule(vals, half: float, zero):
    """The GK15 sums and error of 15 Python floats (or complexes) in plain Python.

    Each sum runs left to right over the ascending nodes from ``zero``, the
    additive identity -0.0 of the values' type, so it equals a cumulative
    sum of the weighted values, written out as one left-associative
    expression over the unpacked values and the symmetric weights (the
    module docstring says why not ``sum()``); ``abs()`` of a complex value
    is its ``hypot``.
    A sum of |f| or of the residual beyond the float range makes the panel
    non-finite, as a non-finite node value does; otherwise value and error
    are finite.  The rescaling takes its power only below 1, where
    ``min(1, s ** 1.5)`` needs it, so ``**`` never overflows.
    """
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = vals
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    resk = (zero + k0 * v0 + k1 * v1 + k2 * v2 + k3 * v3 + k4 * v4 + k5 * v5
            + k6 * v6 + k7 * v7 + k6 * v8 + k5 * v9 + k4 * v10 + k3 * v11
            + k2 * v12 + k1 * v13 + k0 * v14) * half
    resg = (zero + g0 * v1 + g1 * v3 + g2 * v5 + g3 * v7 + g2 * v9 + g1 * v11
            + g0 * v13) * half
    resabs = (-0.0 + k0 * abs(v0) + k1 * abs(v1) + k2 * abs(v2) + k3 * abs(v3)
              + k4 * abs(v4) + k5 * abs(v5) + k6 * abs(v6) + k7 * abs(v7)
              + k6 * abs(v8) + k5 * abs(v9) + k4 * abs(v10) + k3 * abs(v11)
              + k2 * abs(v12) + k1 * abs(v13) + k0 * abs(v14)) * abs(half)
    reskh = resk * 0.5
    resasc = (-0.0 + k0 * abs(v0 * half - reskh) + k1 * abs(v1 * half - reskh)
              + k2 * abs(v2 * half - reskh) + k3 * abs(v3 * half - reskh)
              + k4 * abs(v4 * half - reskh) + k5 * abs(v5 * half - reskh)
              + k6 * abs(v6 * half - reskh) + k7 * abs(v7 * half - reskh)
              + k6 * abs(v8 * half - reskh) + k5 * abs(v9 * half - reskh)
              + k4 * abs(v10 * half - reskh) + k3 * abs(v11 * half - reskh)
              + k2 * abs(v12 * half - reskh) + k1 * abs(v13 * half - reskh)
              + k0 * abs(v14 * half - reskh))
    if not (resabs < math.inf and resasc < math.inf):  # also false for NaN
        return math.inf, math.inf

    raw = abs(resk - resg)
    if resasc == 0.0 or raw == 0.0:
        err = raw
    else:
        scale = 200.0 * raw / resasc
        err = resasc * scale ** 1.5 if scale < 1.0 else resasc
    return resk, max(err, 50.0 * _EPS * resabs)


def _finite(val) -> bool:
    """Whether a panel value is finite; a Python scalar is tested without numpy."""
    if type(val) is float:
        return math.isfinite(val)
    return bool(np.isfinite(val).all())


def _finite_total(parts, where: str):
    """``kahan_total`` of finite parts; NonConvergent where it leaves the float range."""
    total = kahan_total(parts)
    if not _finite(total):
        raise NonConvergent(f"finite parts on {where} sum beyond the float range")
    return total


def _adaptive_segments(f, a: float, b: float, breakpoints, abs_tol: float):
    """Greedy bisection of [a, b], first cut at the breakpoints inside it.

    ``f`` is a batched integrand, as ``_panel_rule`` takes it.
    The live panels form one heap: the worst error estimate is split first,
    and of two equal estimates the older panel.  A panel at roundoff width is
    set aside; the loop stalls when only such panels remain, and ends when
    the summed estimates meet max(abs_tol, _REL_TOL * |integral|).  Panels
    are re-summed left-to-right with compensated arithmetic so the result
    does not depend on the subdivision history.
    """
    if not b > a:
        return 0.0, 0.0  # a window narrower than the float spacing at its ends
    edges = [a, *sorted({float(p) for p in breakpoints if a < p < b}), b]
    order = itertools.count()  # ties split the older panel first
    live = []  # heap of (-err, order, a, b, value, err)
    settled = []  # panels at roundoff width
    running = 0.0
    for (lo, hi) in zip(edges, edges[1:]):
        val, err = _panel_rule(f, lo, hi)
        if not _finite(val):
            raise NonConvergent(f"non-finite panel value on [{lo}, {hi}]")
        heapq.heappush(live, (-err, next(order), lo, hi, val, err))
        running = running + val
    tot_err = math.fsum(p[5] for p in live)

    while True:
        norm = abs(running) if type(running) is float else float(np.abs(running).max())
        if tot_err <= max(abs_tol, _REL_TOL * norm):
            break
        if len(live) + len(settled) >= _MAX_PANELS:
            raise NonConvergent(
                f"quadrature needed more than {_MAX_PANELS} panels "
                f"(error estimate {tot_err:.3e})"
            )
        if not live:
            raise NonConvergent(
                f"quadrature stalled at error estimate {tot_err:.3e}; "
                "all panels at roundoff width"
            )
        panel = heapq.heappop(live)
        _, _, lo, hi, val, err = panel
        if (hi - lo) <= 16.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            settled.append(panel)
            continue
        mid = 0.5 * (lo + hi)
        lval, lerr = _panel_rule(f, lo, mid)
        rval, rerr = _panel_rule(f, mid, hi)
        if not (_finite(lval) and _finite(rval)):
            raise NonConvergent(f"non-finite panel value inside [{lo}, {hi}]")
        heapq.heappush(live, (-lerr, next(order), lo, mid, lval, lerr))
        heapq.heappush(live, (-rerr, next(order), mid, hi, rval, rerr))
        running = running - val + lval + rval
        tot_err = tot_err - err + lerr + rerr

    panels = sorted(live + settled, key=lambda p: p[2:4])
    return _finite_total((p[4] for p in panels), f"[{a}, {b}]"), tot_err


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


def _tail_windows(f, start: float, sign: int, r0: float, abs_tol: float, breakpoints):
    """Integrate the batched ``f`` over [start, +inf) or (-inf, start] by
    doubling windows.

    Stops once a window contributes at most abs_tol/4 in max-norm; raises
    DivergentIntegral when the doubling budget runs out, when a window value
    is non-finite, or when increments keep growing.  Returns a list of
    (left_endpoint, value) pieces.
    """
    window_tol = max(abs_tol / 64.0, 1e-300)
    pieces = []
    inner = start
    radius = r0
    prev_mag = None
    growth_streak = 0
    for _ in range(_MAX_TAIL_DOUBLINGS + 1):
        outer = start + sign * radius
        lo, hi = (inner, outer) if sign > 0 else (outer, inner)
        try:
            val, _ = _adaptive_segments(f, lo, hi, breakpoints, window_tol)
        except NonConvergent as exc:
            raise DivergentIntegral(
                f"tail window [{lo}, {hi}] did not stabilize: {exc}"
            ) from exc
        pieces.append((lo, val))
        mag = abs(val) if type(val) is float else float(np.max(np.abs(val)))
        if mag <= abs_tol / 4.0:
            return pieces
        if prev_mag is not None and mag > prev_mag * (1.0 + 1e-12):
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
        f"tail increment still {prev_mag:.3e} after {_MAX_TAIL_DOUBLINGS} doublings "
        f"(abs_tol {abs_tol:.1e})"
    )


def integrate_1d(f, a: float, b: float, breakpoints=(), abs_tol: float = _ABS_TOL,
                 factor=None):
    """Integrate ``f`` over (a, b); either endpoint may be infinite.

    ``f`` maps a float to a float, complex, or ndarray (fixed shape); it is
    called with Python floats only, never numpy scalars, once per node.
    ``factor``, if given, is the part of the integrand that is cheaper per
    panel than per node: it takes a panel's 15 nodes as a list of floats and
    returns an array of shape ``(15, *shape)``, and the integrand at the i-th
    node is ``factor(nodes)[i] * f(nodes[i])``, with ``f`` then real-valued.
    The product rounds as the per-node one would, so the result has the
    bits of ``integrate_1d(lambda x: factor([x])[0] * f(x), a, b)``, and
    ``f`` is called at the same nodes in the same order.
    ``breakpoints`` registers known kinks/seams so no panel straddles one.
    ``abs_tol`` is the absolute part of the error budget.  Raises
    NonConvergent when the panel budget is exhausted or finite panels sum
    beyond the float range, and DivergentIntegral when an improper tail
    fails the doubling test.

    All three improper cases take one path, as in QUADPACK's qagi: a finite
    core around an anchor (``a`` if finite, else ``b`` if finite, else 0)
    that reaches ``_TAIL_RADIUS``, 16 ulps of the anchor and every breakpoint
    in (a, b), then doubling tail windows beyond each infinite end.
    """
    if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
        raise InvalidParam("abs_tol must be positive and finite")
    if math.isnan(a) or math.isnan(b):
        raise InvalidParam("integration endpoints must not be NaN")
    if a > b:
        raise InvalidParam(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    if factor is None:
        panel = lambda xs: list(map(f, xs))
    else:
        def panel(xs):
            vals = np.array(list(map(f, xs)))
            rows = factor(xs)
            return rows * vals.reshape(vals.shape + (1,) * (rows.ndim - 1))
    bps = [float(p) for p in breakpoints if math.isfinite(p)]
    if math.isfinite(a) and math.isfinite(b):
        value, _ = _adaptive_segments(panel, a, b, bps, abs_tol)
        return value

    anchor = a if math.isfinite(a) else b if math.isfinite(b) else 0.0
    # 16 ulps make every window move the float: from 1e20, windows of radius
    # _TAIL_RADIUS round to one point and a divergent tail would "add" 0
    r0 = max(_TAIL_RADIUS, 16.0 * math.ulp(anchor),
             max((abs(p - anchor) for p in bps if a < p < b), default=0.0))
    lo = a if math.isfinite(a) else anchor - r0
    hi = b if math.isfinite(b) else anchor + r0
    core, _ = _adaptive_segments(panel, lo, hi, bps, abs_tol)
    pieces = [(lo, core)]
    if math.isinf(b):
        pieces.extend(_tail_windows(panel, hi, +1, r0, abs_tol, bps))
    if math.isinf(a):
        pieces.extend(_tail_windows(panel, lo, -1, r0, abs_tol, bps))
    pieces.sort(key=lambda p: p[0])
    return _finite_total((p[1] for p in pieces), f"[{a}, {b}]")


def _circle_crossings(x: float, circles) -> list[float]:
    out = []
    for (cx, cy, r) in circles:
        d2 = r * r - (x - cx) * (x - cx)
        if d2 > 0.0:
            s = math.sqrt(d2)
            out.extend((cy - s, cy + s))
    return out


def integrate_fiber(f, fiber, point_seams=(), circle_seams=(), factor=None):
    """Integrate ``f`` over a fiber region of dimension 1 or 2.

    ``fiber`` must expose ``dim``, ``quad_intervals()`` (dimension 1),
    ``slice_intervals(x)`` and ``critical_xs()`` (dimension 2), and
    ``bounds()``, which gives (lo, hi) as sequences of Python floats.  ``f``
    takes a point of length ``dim`` as a tuple of Python floats, ``(x,)`` or
    ``(x, y)``, and reads it by index.  ``factor``, if given, multiplies
    ``f`` as in ``integrate_1d``: it takes the 15 points of an innermost
    panel as a list of such tuples (the points of one slice in dimension 2)
    and returns an array of shape ``(15, *shape)``.
    ``point_seams`` are fiber-coordinate breakpoints (dimension 1);
    ``circle_seams`` are ``((cx, cy), radius)`` kink circles (dimension 2).
    An empty fiber integrates to 0.  The tolerances are the module's; each
    inner integral of a two-dimensional fiber runs at ``_ABS_TOL`` divided by
    16 times the outer width (``8 * _TAIL_RADIUS`` for an unbounded one).

    In dimension 2 the outer integral runs over s, one unit per segment
    between sorted edges e_0 < ... < e_n (the finite x-extremes of the region,
    ``critical_xs()`` and the seam circles): x = e_i + h u^2 (3 - 2u) with
    u = s - i and h = e_{i+1} - e_i.  The Jacobian 6 h u (1 - u) cancels the
    square-root behaviour of the slice length at every edge where a slice
    closes up or a seam circle turns, so plain GK15 panels converge fast
    there.  An unbounded end continues the first or last edge by the
    identity; a plane with no finite edge is integrated in x itself.
    """
    dim = fiber.dim
    if dim == 1:
        intervals = fiber.quad_intervals()
        if not intervals:
            return 0.0
        fn = lambda x: f((x,))
        fac = None if factor is None else lambda xs: factor([(x,) for x in xs])
        values = []
        for (lo, hi) in intervals:
            values.append((lo, integrate_1d(fn, lo, hi, breakpoints=point_seams, factor=fac)))
        values.sort(key=lambda p: p[0])
        return _finite_total((v for (_, v) in values), "the fiber")
    if dim != 2:
        raise InvalidParam("integrate_fiber supports fiber dimension 1 or 2 only")

    lo, hi = fiber.bounds()
    x_lo, x_hi = lo[0], hi[0]
    if x_lo >= x_hi:
        return 0.0
    if math.isinf(x_lo) or math.isinf(x_hi):
        width = 8.0 * _TAIL_RADIUS
    else:
        width = x_hi - x_lo
    inner_tol = max(_ABS_TOL / (16.0 * max(1.0, width)), 1e-300)

    circles = [(float(cx), float(cy), float(r)) for ((cx, cy), r) in circle_seams]

    def outer(x: float):
        slices = fiber.slice_intervals(x)
        if not slices:
            return 0.0
        ybps = _circle_crossings(x, circles)
        g = lambda y: f((x, y))
        fac = None if factor is None else lambda ys: factor([(x, y) for y in ys])
        parts = []
        for (ylo, yhi) in slices:
            parts.append((ylo, integrate_1d(g, ylo, yhi, breakpoints=ybps,
                                            abs_tol=inner_tol, factor=fac)))
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
    return integrate_1d(mapped, s_lo, s_hi, breakpoints=range(len(edges)))


def minimize_over_fiber(f, fiber, search_box=None):
    """Deterministic grid minimization of ``f`` over a fiber region.

    ``search_box`` (pairs of (lo, hi) per axis) must be supplied when the
    fiber is unbounded; when the coarse-grid minimum sits on a truncated edge
    and runs downhill there, Unbounded is raised.  Ties on the grid resolve to
    the lexicographically smallest point.  ``f`` and ``fiber.member`` take
    each grid point as a tuple of Python floats.  Returns (argmin, value),
    the argmin as the tuple of floats that was scanned, where the returned
    value never exceeds f at any evaluated grid node; a NaN value never
    wins, and where f has no value below +inf on the grid the result is the
    first grid node in the fiber with +inf.
    """
    dim = fiber.dim
    lo, hi = (list(v) for v in fiber.bounds())
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
    if any(a > b for a, b in zip(lo, hi)):
        raise OutOfDomain("search box does not meet the fiber")

    axes = [np.linspace(lo[i], hi[i], _GRID_POINTS).tolist() for i in range(dim)]

    def scan(axes_list):
        """Evaluate on the tensor grid; returns (best_point, best_val, best_index)."""
        best_val = math.inf
        best_pt = None
        best_idx = None
        indices = itertools.product(*(range(len(ax)) for ax in axes_list))
        for idx, p in zip(indices, itertools.product(*axes_list)):
            if not fiber.member(p):
                continue
            v = float(f(p))
            if best_pt is None:
                best_pt, best_idx = p, idx
            if v < best_val:
                best_val, best_pt, best_idx = v, p, idx
        return best_pt, best_val, best_idx

    best_pt, best_val, best_idx = scan(axes)
    if best_pt is None:
        raise OutOfDomain("no grid node lies in the fiber")

    # Downhill-at-the-edge test on the coarse grid: a minimizer pinned to the
    # boundary ring with the inward neighbor above it indicates escape.
    if search_box is not None:
        for ax in range(dim):
            i = best_idx[ax]
            if i in (0, _GRID_POINTS - 1):
                step = 1 if i == 0 else -1
                nb_idx = list(best_idx)
                nb_idx[ax] += step
                nb = tuple(axes[d][nb_idx[d]] for d in range(dim))
                if fiber.member(nb) and float(f(nb)) > best_val:
                    raise Unbounded(
                        f"grid minimum sits on the search-box edge along axis {ax} "
                        "and decreases outward"
                    )

    spacing = [(hi[i] - lo[i]) / (_GRID_POINTS - 1) for i in range(dim)]
    center = best_pt
    for _ in range(_REFINE_ROUNDS):
        if all(s <= _MIN_SPACING for s in spacing):
            break
        new_axes = []
        for i in range(dim):
            a = max(lo[i], center[i] - spacing[i])
            b = min(hi[i], center[i] + spacing[i])
            new_axes.append(np.linspace(a, b, _GRID_POINTS).tolist())
        pt, val, _ = scan(new_axes)
        if val < best_val:
            best_val = val
            best_pt = pt
        if val < math.inf:
            center = pt
        spacing = [(ax[-1] - ax[0]) / (_GRID_POINTS - 1) for ax in new_axes]
    return best_pt, best_val

