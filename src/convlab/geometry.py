"""Constructive solid geometry for product domains, fibers, and distance probes.

Domains live in R^(m+n) (or C^(m+n), stored as interleaved real pairs) and are
described by CSG trees over two primitives -- balls and boxes -- closed
under union, intersection, and complement.  Primitives may constrain a
subset of the coordinates (a ball over two of four axes is a cylinder), which
is what makes polydiscs and product figures exact.  Membership is decided
exactly for any point; the represented sets are open (complements are taken
against closed primitives).

Three consumers drive the design:

* quadrature wants every fiber slice as a list of disjoint open intervals,
  merged across measure-zero seams so that removing a point from a domain
  cannot change an integral;
* distance probes want the distance to the complement computed exactly from
  primitive distances whenever the tree structure allows it (intersections
  combine by min; products across disjoint axis groups combine by Pythagoras),
  with an honest inexact flag and a certified bracket otherwise;
* the disc criterion wants deterministic sampling of closed analytic discs
  with the boundary samples a literal subset of the disc samples.

Each node class holds its own rules as methods: ``member``, ``slice_first``,
``bounds`` (tuples of Python floats), ``complement`` and ``disc_radius``;
``intervals``, the open-interval decomposition of a one-dimensional node;
``critical_points``, the abscissae where a slice can change shape;
``dist_to_complement``; and ``dist_outside``, the distance to the closure
from a point outside it.  Other modules ask a node and never test its
class.  A compound node reaches each child's ``intervals`` and
``critical_points`` directly.  The distance rules go through the module functions
``dist_to_complement`` and ``dist_to_set``, which are the entry points and
also the recursion step: a union, intersection or complement reaches each
child through them, one call per node visited.  ``dist_to_set`` answers
``0.0`` inside the closure and asks ``dist_outside`` elsewhere.  A union's
``dist_to_complement`` and an intersection's ``dist_outside`` share one
rule, ``_by_axis_groups``.

``member(p, closed=False)`` tests the open set, or with ``closed`` its
closure, and ``slice_first(t, nb, closed=False)`` slices the same set (a
ball cut on its rim leaves a radius-0 ball).  A complement asks its part the
other way, so a fiber over a base point on the boundary of a removed set
keeps that set, and a double complement slices to its part.  Unions and
intersections share one slicing rule: a part that slices to the absorbing
node (``Full`` for a union, ``Empty`` for an intersection) is the whole
slice, and one that slices to the other drops out.

Points are real coordinate vectors.  One point is a tuple of Python floats
(a list serves too); a batch of N points is a coordinate-major array of
shape ``(rdim, N)``: ``p[a]`` is then coordinate ``a`` of every
point at once.  They answer per point: a scalar for one point, an ``(N,)``
array for a batch.  The same code serves both; on scalars it uses
``math.sqrt`` and comparisons where a batch uses ``np.sqrt``,
``np.minimum`` and ``np.maximum``, with the same bits, NaNs and signed zeros
included, so a batch column gets exactly the bits that the same point gets
alone.  Exact flags broadcast against the values: a plain ``True``/``False``
where the flag is the same for every point.

Outside input is packed in one place, ``_as_real_point``, which checks its
size, splits a complex coordinate into its real and imaginary parts, in that
order (a real point refuses one), and returns a tuple of Python floats.
``Domain.point``, ``Domain.base_point``, ``FiberDomain.t`` and
``AffineFiberMap.at`` are such tuples, and every other module uses them as
they come.  The ``Domain`` and ``FiberDomain`` methods and the probes built
on them (``boundary_distance``, ``fiber_distance``,
``midpoint_closure_check``) return Python scalars: a ``bool`` for
membership, a ``float`` for a distance.

``fiber`` slices the domain at ``Domain.base_point(t)`` and keeps the packed
point as ``FiberDomain.t``; the fiberwise transforms of ``prekopa`` and
``bergman`` read it from the fiber and restrict their weight to it with
``WeightField.on_fiber``, which binds the weight's restriction at t once per
fiber, or take the fiber density ``e^{-w(t, x)}`` from
``WeightField.fiber_density``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscEscapesDomain,
    InvalidParam,
    PointOutsideDomain,
)

__all__ = [
    "Ball", "Box", "Full", "Empty", "Union", "Intersection",
    "Complement", "Domain", "FiberDomain", "AffineFiberMap", "AnalyticDisc",
    "DistanceInfo", "MidpointReport", "DiscDistanceReport",
    "fiber", "fiber_distance", "boundary_distance", "disc_distance_check",
    "midpoint_closure_check",
    "ball_domain", "box_domain", "full_space", "bidisc", "hartogs_figure",
    "punctured_ball", "dumbbell", "disc_region", "plane_region",
]

_INF = math.inf
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Disc samples per array pass in disc_distance_check: enough to amortize the
# per-call cost of the CSG recursion, few enough that memory stays flat.
_CHUNK = 4096


# Elementwise helpers.  For one point a rule sees floats (Python or numpy) and
# bools and takes the scalar branch, which gives the bits of the numpy call.


def _is_batch(p) -> bool:
    return getattr(p, "ndim", 1) > 1


def _fill(p, value):
    """``value`` at every point of ``p``: an (N,) array for a batch."""
    return np.full(p.shape[1:], value) if _is_batch(p) else value


def _all(flags) -> bool:
    return flags if type(flags) is bool else flags.all()


def _sqrt(x):
    """np.sqrt of a sum of squares (never negative)."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _minimum(a, b):
    """np.minimum: ``a`` when it is smaller or NaN, else ``b`` (ties give ``b``)."""
    if isinstance(a, float) and isinstance(b, float):
        return a if a < b or a != a else b
    return np.minimum(a, b)


def _maximum(a, b):
    """np.maximum: ``a`` when it is larger or NaN, else ``b`` (ties give ``b``)."""
    if isinstance(a, float) and isinstance(b, float):
        return a if a > b or a != a else b
    return np.maximum(a, b)


def _sum_squares(xs):
    """x0*x0 + x1*x1 + ..., left to right.  Not ``x ** 2``: a numpy scalar's
    power goes through ``pow``, which can miss the array square by an ulp."""
    total = 0.0
    for x in xs:
        total = total + x * x
    return total


# ---------------------------------------------------------------------------
# CSG nodes


class Node:
    """Base class for CSG tree nodes.  Instances are immutable."""

    def member(self, p: np.ndarray, closed: bool = False) -> bool:
        """Whether p is in the open set, or with ``closed`` in its closure."""
        raise NotImplementedError

    def axes_set(self) -> frozenset:
        raise NotImplementedError

    def slice_first(self, t, nb: int, closed: bool = False) -> "Node":
        """Fix the first ``nb`` coordinates to ``t``; remaining axes shift down.

        With ``closed`` the slice is of the closure, which
        ``member(p, closed=True)`` tests.  A complement slices its part the
        other way, so a base point on the boundary of the part keeps it.
        Unions and intersections share one rule, ``_Compound.slice_first``."""
        raise NotImplementedError

    def bounds(self, dim: int) -> tuple:
        """(lo, hi): tuples of Python floats per axis; the whole space here."""
        return (-_INF,) * dim, (_INF,) * dim

    def complement(self) -> "Node":
        """The open complement of the closure, as simple as the node allows."""
        return Complement(self)

    def disc_radius(self, center):
        """The radius of a disc on axes (0, 1) about ``center`` (inf: the plane), else None."""
        return None

    def intervals(self) -> list:
        """Open-interval decomposition, for a one-dimensional node."""
        raise InvalidParam(f"cannot decompose node of type {type(self).__name__}")

    def critical_points(self, axis: int) -> list:
        """Abscissae along ``axis`` where the slice structure can change."""
        return []

    def dist_to_complement(self, p):
        """(signed distance from p to the complement, exact flag)."""
        raise InvalidParam(f"no distance rule for {type(self).__name__}")

    def dist_outside(self, p):
        """(distance from p to the closure, exact flag), where p is outside
        the closure; ``dist_to_set`` masks the points inside."""
        raise InvalidParam(f"no distance rule for {type(self).__name__}")


@dataclass(frozen=True)
class Ball(Node):
    center: tuple
    radius: float
    axes: tuple

    def __post_init__(self):
        if len(self.center) != len(self.axes):
            raise InvalidParam("ball center and axes lengths differ")
        if not self.axes:
            raise InvalidParam("ball needs at least one axis")
        if not self.radius >= 0.0:
            raise InvalidParam("ball radius must be nonnegative")
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "axes", tuple(map(int, self.axes)))

    def _dist2(self, p):
        return _sum_squares([p[a] - c for a, c in zip(self.axes, self.center)])

    def member(self, p, closed=False):
        d2, r2 = self._dist2(p), self.radius * self.radius
        return d2 <= r2 if closed else d2 < r2

    def axes_set(self):
        return frozenset(self.axes)

    def slice_first(self, t, nb, closed=False):
        off2 = 0
        fib_axes, fib_center = [], []
        for a, c in zip(self.axes, self.center):
            if a < nb:
                d = t[a] - c  # d * d, not pow: a huge offset squares to inf
                off2 = off2 + d * d
            else:
                fib_axes.append(a - nb)
                fib_center.append(c)
        r2 = self.radius * self.radius
        if not fib_axes:
            return Full() if (off2 <= r2 if closed else off2 < r2) else Empty()
        rad2 = r2 - off2
        if rad2 < 0.0 or (rad2 == 0.0 and not closed):
            return Empty()
        return Ball(tuple(fib_center), math.sqrt(rad2), tuple(fib_axes))

    def bounds(self, dim):
        lo, hi = [-_INF] * dim, [_INF] * dim
        for a, c in zip(self.axes, self.center):
            lo[a], hi[a] = c - self.radius, c + self.radius
        return tuple(lo), tuple(hi)

    def disc_radius(self, center):
        return self.radius if self.axes == (0, 1) and self.center == tuple(center) else None

    def intervals(self):
        (c,) = self.center
        if self.radius <= 0.0:
            return []
        return [(c - self.radius, c + self.radius)]

    def critical_points(self, axis):
        out = []
        for a, c in zip(self.axes, self.center):
            if a == axis:
                out.extend((c - self.radius, c + self.radius, c))
        return out

    def dist_to_complement(self, p):
        return self.radius - _sqrt(self._dist2(p)), True

    def dist_outside(self, p):
        return _maximum(_sqrt(self._dist2(p)) - self.radius, 0.0), True


@dataclass(frozen=True)
class Box(Node):
    lo: tuple
    hi: tuple
    axes: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.axes)):
            raise InvalidParam("box lo/hi/axes lengths differ")
        if not self.axes:
            raise InvalidParam("box needs at least one axis")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))

    def member(self, p, closed=False):
        out = True
        for a, l, h in zip(self.axes, self.lo, self.hi):
            x = p[a]
            out = out & ((l <= x) & (x <= h) if closed else (l < x) & (x < h))
        return out

    def axes_set(self):
        return frozenset(self.axes)

    def slice_first(self, t, nb, closed=False):
        keep_axes, keep_lo, keep_hi = [], [], []
        for a, l, h in zip(self.axes, self.lo, self.hi):
            if a < nb:
                if not (l <= t[a] <= h if closed else l < t[a] < h):
                    return Empty()
            else:
                keep_axes.append(a - nb)
                keep_lo.append(l)
                keep_hi.append(h)
        if not keep_axes:
            return Full()
        return Box(tuple(keep_lo), tuple(keep_hi), tuple(keep_axes))

    def bounds(self, dim):
        lo, hi = [-_INF] * dim, [_INF] * dim
        for a, l, h in zip(self.axes, self.lo, self.hi):
            lo[a], hi[a] = l, h
        return tuple(lo), tuple(hi)

    def intervals(self):
        (l,), (h,) = self.lo, self.hi
        return [(l, h)] if h > l else []

    def critical_points(self, axis):
        out = []
        for a, l, h in zip(self.axes, self.lo, self.hi):
            if a == axis:
                out.extend((l, h))
        return out

    def dist_to_complement(self, p):
        v = _INF
        for a, l, h in zip(self.axes, self.lo, self.hi):
            v = _minimum(v, _minimum(p[a] - l, h - p[a]))
        return v, True

    def dist_outside(self, p):
        return _sqrt(_sum_squares([_maximum(_maximum(l - p[a], p[a] - h), 0.0)
                                   for a, l, h in zip(self.axes, self.lo, self.hi)])), True


@dataclass(frozen=True)
class Full(Node):
    def member(self, p, closed=False):
        return _fill(p, True)

    def axes_set(self):
        return frozenset()

    def slice_first(self, t, nb, closed=False):
        return Full()

    def complement(self):
        return Empty()

    def disc_radius(self, center):
        return _INF

    def intervals(self):
        return [(-_INF, _INF)]

    def dist_to_complement(self, p):
        return _fill(p, _INF), True


@dataclass(frozen=True)
class Empty(Node):
    def member(self, p, closed=False):
        return _fill(p, False)

    def axes_set(self):
        return frozenset()

    def slice_first(self, t, nb, closed=False):
        return Empty()

    def bounds(self, dim):
        return (_INF,) * dim, (-_INF,) * dim

    def complement(self):
        return Full()

    def intervals(self):
        return []

    def dist_to_complement(self, p):
        return _fill(p, 0.0), True

    def dist_outside(self, p):
        return _fill(p, _INF), True


@dataclass(frozen=True)
class _Compound(Node):
    """What a union and an intersection share: the parts, their axes, the
    bounds and the slicing rule.  ``_ends`` folds the parts' lower and upper
    bounds per axis.  A part that slices to ``_absorbing`` is the whole
    slice; a part that slices to ``_neutral`` drops out.  ``member`` stays on
    each subclass, where the benchmark's tracer counts the outermost call."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise InvalidParam(f"{type(self).__name__.lower()} needs at least one part")

    def axes_set(self):
        return frozenset().union(*(q.axes_set() for q in self.parts))

    def critical_points(self, axis):
        out = []
        for q in self.parts:
            out.extend(q.critical_points(axis))
        return out

    def bounds(self, dim):
        los, his = zip(*(q.bounds(dim) for q in self.parts))
        lo_end, hi_end = self._ends
        return (tuple(functools.reduce(lo_end, ax) for ax in zip(*los)),
                tuple(functools.reduce(hi_end, ax) for ax in zip(*his)))

    def slice_first(self, t, nb, closed=False):
        out = []
        for q in self.parts:
            s = q.slice_first(t, nb, closed)
            if isinstance(s, self._absorbing):
                return s
            if not isinstance(s, self._neutral):
                out.append(s)
        if not out:
            return self._neutral()
        if len(out) == 1:
            return out[0]
        return type(self)(tuple(out))


@dataclass(frozen=True)
class Union(_Compound):
    _absorbing, _neutral, _ends = Full, Empty, (_minimum, _maximum)

    def member(self, p, closed=False):
        out = False
        for q in self.parts:
            out = out | q.member(p, closed)
        return out

    def intervals(self):
        parts = []
        for q in self.parts:
            parts.extend(q.intervals())
        return _merge_open(parts)

    def dist_to_complement(self, p):
        return _by_axis_groups(self.parts, p, dist_to_complement)

    def dist_outside(self, p):
        v, e = _INF, True
        for q in self.parts:
            qv, qe = dist_to_set(q, p)
            v, e = _minimum(v, qv), e & qe
        return v, e


@dataclass(frozen=True)
class Intersection(_Compound):
    _absorbing, _neutral, _ends = Empty, Full, (_maximum, _minimum)

    def member(self, p, closed=False):
        out = True
        for q in self.parts:
            out = out & q.member(p, closed)
        return out

    def intervals(self):
        acc = [(-_INF, _INF)]
        for q in self.parts:
            acc = _intersect_lists(acc, q.intervals())
        return acc

    def dist_to_complement(self, p):
        v, e = _INF, True
        for q in self.parts:
            qv, qe = dist_to_complement(q, p)
            v, e = _minimum(v, qv), e & qe
        return v, e

    def dist_outside(self, p):
        return _by_axis_groups(self.parts, p, dist_to_set)


@dataclass(frozen=True)
class Complement(Node):
    """Open complement of the closed version of ``part``."""

    part: Node

    def member(self, p, closed=False):
        return self.part.member(p, not closed) ^ True  # logical not, scalar or array

    def axes_set(self):
        return self.part.axes_set()

    def slice_first(self, t, nb, closed=False):
        return self.part.slice_first(t, nb, not closed).complement()

    def complement(self):
        return self.part

    def intervals(self):
        return _complement_of_closure(self.part.intervals())

    def critical_points(self, axis):
        return self.part.critical_points(axis)

    def dist_to_complement(self, p):
        return dist_to_set(self.part, p)

    def dist_outside(self, p):
        v, e = dist_to_complement(self.part, p)
        return _maximum(v, 0.0), e


# ---------------------------------------------------------------------------
# 1-d interval decomposition (for quadrature; open intervals, merged across
# measure-zero seams so point punctures are invisible to integrals)


def _merge_open(intervals):
    ivs = sorted((a, b) for (a, b) in intervals if b > a)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _intersect_lists(xs, ys):
    out = []
    for (a, b) in xs:
        for (c, d) in ys:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                out.append((lo, hi))
    return _merge_open(out)


def _complement_of_closure(ivs):
    out = []
    prev = -_INF
    for (a, b) in ivs:
        if a > prev:
            out.append((prev, a))
        prev = max(prev, b)
    if prev < _INF:
        out.append((prev, _INF))
    return out


# ---------------------------------------------------------------------------
# Distances with exactness tracking


def _axis_groups(parts):
    """Partition parts into connected components under shared-axis overlap."""
    groups = []
    for q in parts:
        ax = q.axes_set()
        hit = [g for g in groups if g[0] & ax] if ax else []
        if not hit:
            groups.append([ax, [q]])
        else:
            merged_ax = ax
            merged_parts = [q]
            for g in hit:
                merged_ax = merged_ax | g[0]
                merged_parts.extend(g[1])
                groups.remove(g)
            groups.append([merged_ax, merged_parts])
    return [g[1] for g in groups]


def _by_axis_groups(parts, p, rule):
    """Combine ``rule`` (``dist_to_complement`` or ``dist_to_set``) over
    ``parts``: exact by Pythagoras across disjoint axis groups; within a
    shared group the max of the parts, a lower bound flagged inexact.

    Each group's value is clamped at 0 before it is squared; ``dist_to_set``
    is never negative, so there the clamp keeps the bits."""
    vals, exact = [], True
    for g in _axis_groups(parts):
        if len(g) == 1:
            v, e = rule(g[0], p)
        else:
            v, e = -_INF, False
            for q in g:
                v = _maximum(v, rule(q, p)[0])
        vals.append(v)
        exact = exact & e
    if len(vals) == 1:
        return vals[0], exact
    return _sqrt(_sum_squares([_maximum(v, 0.0) for v in vals])), exact


def dist_to_complement(node: Node, p):
    """(signed distance from p to the complement of node, exact flag).

    Nonnegative when p is in the node; the sign is meaningful to the
    combiners.  ``p`` is one point or an (rdim, N) batch.
    """
    return node.dist_to_complement(p)


def dist_to_set(node: Node, p):
    """(distance from p to the closure of node, exact flag).  Zero inside.

    Points inside the closure get ``0.0`` and an exact flag; when every point
    is inside, the tree below is not visited at all.
    """
    inside = node.member(p, closed=True)
    if _all(inside):
        return _fill(p, 0.0), True
    v, e = node.dist_outside(p)
    if not _is_batch(p):
        return v, e
    return np.where(inside, 0.0, v), inside | e


# ---------------------------------------------------------------------------
# Domains


def _as_real_point(p, kind: str, rdim: int) -> tuple:
    arr = np.asarray(p)
    if arr.dtype.kind == "c":
        if kind != "complex":
            raise InvalidParam("expected a real point, got complex coordinates")
        if 2 * arr.size != rdim:
            raise InvalidParam(f"expected {rdim // 2} complex coordinates, got {arr.size}")
        # interleaved (re, im) pairs
        return tuple(arr.astype(complex).ravel().view(float).tolist())
    arr = np.asarray(arr, dtype=float).ravel()
    if arr.size != rdim:
        raise InvalidParam(f"expected a real point of dimension {rdim}, got {arr.size}")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class Domain:
    """An open set in R^(m+n) or C^(m+n) with a declared base/fiber split."""

    csg: Node
    split: tuple
    kind: str = "real"

    def __post_init__(self):
        m, n = self.split
        if m < 0 or n < 0 or m + n < 1:
            raise InvalidParam(f"bad ambient split {self.split}")
        if self.kind not in ("real", "complex"):
            raise InvalidParam(f"kind must be 'real' or 'complex', got {self.kind!r}")
        object.__setattr__(self, "split", (int(m), int(n)))
        bad = [a for a in self.csg.axes_set() if not (0 <= a < self.rdim)]
        if bad:
            raise InvalidParam(f"csg axes {bad} outside ambient dimension {self.rdim}")

    @property
    def mult(self) -> int:
        return 2 if self.kind == "complex" else 1

    @property
    def base_rdim(self) -> int:
        return self.split[0] * self.mult

    @property
    def fiber_rdim(self) -> int:
        return self.split[1] * self.mult

    @property
    def rdim(self) -> int:
        return self.base_rdim + self.fiber_rdim

    def point(self, p) -> tuple:
        return _as_real_point(p, self.kind, self.rdim)

    def base_point(self, t) -> tuple:
        """The base coordinates of ``t``, packed as reals: the one place a
        base point is checked for size and packed."""
        return _as_real_point(t, self.kind, self.base_rdim)

    def member(self, p, closed: bool = False) -> bool:
        return bool(self.csg.member(self.point(p), closed))


@dataclass(frozen=True)
class FiberDomain:
    """The slice of a domain over a fixed base point.

    Membership delegates to the parent domain (exact); the sliced CSG node
    drives interval decompositions, bounds, and distances.
    """

    parent: Domain
    t: tuple
    node: Node
    dim: int

    def member(self, x, closed: bool = False) -> bool:
        x = _as_real_point(x, self.parent.kind, self.dim)
        return bool(self.parent.csg.member(self.t + x, closed))

    def quad_intervals(self) -> list:
        if self.dim != 1:
            raise InvalidParam("quad_intervals applies to one-dimensional fibers")
        return self.node.intervals()

    def slice_intervals(self, x: float) -> list:
        if self.dim != 2:
            raise InvalidParam("slice_intervals applies to two-dimensional fibers")
        return self.node.slice_first([float(x)], 1).intervals()

    def critical_xs(self) -> list:
        return sorted(set(self.node.critical_points(0)))

    def bounds(self):
        return self.node.bounds(self.dim)


def fiber(domain: Domain, t) -> FiberDomain:
    t = domain.base_point(t)
    return FiberDomain(domain, t, domain.csg.slice_first(t, domain.base_rdim),
                       domain.fiber_rdim)


@dataclass(frozen=True)
class DistanceInfo:
    value: float
    exact: bool
    bracket: float  # certified width of [lower, value]; 0 when exact


def _ray_directions(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(20210921)
    dirs = rng.standard_normal((128, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    eyes = np.concatenate([np.eye(dim), -np.eye(dim)])
    return np.concatenate([eyes, dirs])


def _ray_exit_upper_bound(node: Node, q: tuple, lower: float) -> float:
    """Smallest boundary crossing found along a deterministic ray fan."""
    p = np.array(q)
    best = _INF
    for d in _ray_directions(p.size):
        lam = max(lower, 1e-9)
        cap = 1e9
        inside = lam
        while node.member((p + lam * d).tolist()):
            inside = lam
            lam *= 2.0
            if lam > cap:
                break
        if lam > cap:
            continue
        outside = lam
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if node.member((p + mid * d).tolist()):
                inside = mid
            else:
                outside = mid
        best = min(best, outside)
    return best


def _distance_in(node: Node, q: tuple) -> DistanceInfo:
    """Distance from the packed point ``q`` of ``node`` to its complement."""
    if not node.member(q):
        raise PointOutsideDomain(f"point {list(q)} is not in the domain")
    v, exact = dist_to_complement(node, q)
    if exact:
        return DistanceInfo(float(v), True, 0.0)
    lower = max(float(v), 0.0)
    upper = _ray_exit_upper_bound(node, q, lower)
    if math.isinf(upper):
        return DistanceInfo(lower, False, _INF)
    return DistanceInfo(float(upper), False, float(upper - lower))


def boundary_distance(domain: Domain, p) -> DistanceInfo:
    """Distance from an interior point to the domain's complement.

    Exact (bracket 0) whenever the CSG recursion supports it; otherwise the
    returned value is a sampled upper bound and ``bracket`` certifies the gap
    to the recursive lower bound.  Raises PointOutsideDomain for outside
    points.
    """
    return _distance_in(domain.csg, domain.point(p))


def fiber_distance(domain: Domain, t, x) -> float:
    """Distance from x to the complement of the fiber over t (within the fiber).

    The point is tested against the domain itself, then measured on the
    sliced node as ``boundary_distance`` measures on a domain."""
    fd = fiber(domain, t)
    q = _as_real_point(x, domain.kind, fd.dim)
    if not domain.csg.member(fd.t + q):
        raise PointOutsideDomain(
            f"fiber point {list(q)} is not in the slice over {list(fd.t)}"
        )
    return _distance_in(fd.node, q).value


# ---------------------------------------------------------------------------
# Affine fiber maps and analytic discs


@dataclass(frozen=True)
class AffineFiberMap:
    """a(t) = x0 + A (t - t0), in packed real coordinates."""

    x0: tuple
    mat: tuple  # rows, one per fiber coordinate
    t0: tuple

    def __post_init__(self):
        x0 = tuple(float(v) for v in self.x0)
        t0 = tuple(float(v) for v in self.t0)
        mat = tuple(tuple(float(v) for v in row) for row in self.mat)
        if len(mat) != len(x0):
            raise InvalidParam("matrix row count must match fiber dimension")
        for row in mat:
            if len(row) != len(t0):
                raise InvalidParam("matrix column count must match base dimension")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "t0", t0)

    @property
    def base_rdim(self) -> int:
        return len(self.t0)

    @property
    def fiber_rdim(self) -> int:
        return len(self.x0)

    def at(self, t) -> tuple:
        """Each row of A (t - t0) summed left to right from -0.0, with no BLAS
        call: a one-column row gives exactly ``x0 + a (t - t0)``."""
        t = _as_real_point(t, "real", self.base_rdim)
        dt = [ti - si for ti, si in zip(t, self.t0)]
        out = []
        for xi, row in zip(self.x0, self.mat):
            s = -0.0
            for aij, dj in zip(row, dt):
                s = s + aij * dj
            out.append(xi + s)
        return tuple(out)

    @staticmethod
    def constant(x0, base_rdim: int) -> "AffineFiberMap":
        x0, zeros = np.atleast_1d(x0), (0.0,) * base_rdim
        return AffineFiberMap(x0, (zeros,) * len(x0), zeros)

    @staticmethod
    def through(t0, x0, t1, x1) -> "AffineFiberMap":
        """a(t0) = x0 and a(t1) = x1, changing only along d = t1 - t0: A is
        (x1 - x0) d^T / |d|^2, each entry ``(x1[i] - x0[i]) * d[j] / |d|^2``."""
        t0, x0, t1, x1 = (_as_real_point(v, "real", np.size(v)) for v in (t0, x0, t1, x1))
        d = [b - a for a, b in zip(t0, t1)]
        denom = _sum_squares(d)
        if denom == 0.0 or len(t0) != len(t1) or len(x0) != len(x1):
            raise InvalidParam("through() needs distinct base points and matching sizes")
        return AffineFiberMap(x0, tuple(tuple((b - a) * dj / denom for dj in d)
                                        for a, b in zip(x0, x1)), t0)

    @staticmethod
    def complex_affine(a0: complex, slope: complex = 0.0, t0: complex = 0.0) -> "AffineFiberMap":
        """Holomorphic affine map a(tau) = a0 + slope (tau - t0), packed as reals."""
        a0 = complex(a0)
        s = complex(slope)
        t0 = complex(t0)
        mat = ((s.real, -s.imag), (s.imag, s.real))
        return AffineFiberMap((a0.real, a0.imag), mat, (t0.real, t0.imag))


def _horner(coeffs, wr, wi):
    """(real, imaginary) part of sum_k coeffs[k] w^k at w = wr + i wi.

    Horner's rule written out with the operations of Python's complex product
    and sum, so Python floats and float arrays give the bits of ``acc * w + c``.
    """
    re = im = 0.0
    for c in reversed(coeffs):
        re, im = re * wr - im * wi + c.real, re * wi + im * wr + c.imag
    return re, im


@dataclass(frozen=True)
class AnalyticDisc:
    """A polynomial map of the closed unit disc into C x C^n.

    ``base`` holds the ascending coefficients of the base component; each
    entry of ``fibers`` holds the coefficients of one fiber component.
    """

    base: tuple
    fibers: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(complex(c) for c in self.base))
        object.__setattr__(self, "fibers",
                           tuple(tuple(complex(c) for c in g) for g in self.fibers))
        if not self.base:
            raise InvalidParam("base component needs at least one coefficient")
        if not self.fibers:
            raise InvalidParam("need at least one fiber component")

    @property
    def n_fiber(self) -> int:
        return len(self.fibers)

    def eval_real(self, w) -> np.ndarray:
        """Packed real coordinates: (2 + 2 n_fiber,) at one ``w``, or
        (2 + 2 n_fiber, N) at an array of N parameters."""
        w = np.asarray(w, dtype=complex)
        return np.array([x for g in (self.base, *self.fibers)
                         for x in _horner(g, w.real, w.imag)])


@dataclass(frozen=True)
class DiscDistanceReport:
    d_disc: float
    d_boundary: float
    gap: float
    n_interior: int
    n_boundary: int
    exact: bool


def _polar(r, th) -> np.ndarray:
    """complex(r * cos(th), r * sin(th)), elementwise."""
    w = np.empty(np.shape(th), dtype=complex)
    w.real = r * np.cos(th)
    w.imag = r * np.sin(th)
    return w


def _disc_samples(n_boundary: int, n_interior: int):
    """The disc parameters ``w`` in scan order, at most ``_CHUNK`` at a time.

    Yields ``(on_boundary, w)``: first ``n_boundary`` equally spaced points of
    the unit circle from ``w = 1``, then a deterministic, near-uniform
    sunflower of ``n_interior + 1`` points of the closed disc from ``w = 0``.
    """
    for lo in range(0, n_boundary, _CHUNK):
        j = np.arange(lo, min(lo + _CHUNK, n_boundary))
        yield True, _polar(1.0, 2.0 * math.pi * j / n_boundary)
    for lo in range(0, n_interior + 1, _CHUNK):
        j = np.arange(lo, min(lo + _CHUNK, n_interior + 1))
        yield False, _polar(np.sqrt(j / (n_interior + 1.0)), j * _GOLDEN_ANGLE)


def disc_distance_check(domain: Domain, disc: AnalyticDisc,
                        n_interior: int = 4000, n_boundary: int = 256) -> DiscDistanceReport:
    """Compare the deepest boundary distance over a closed analytic disc with
    the deepest over its boundary circle.

    ``gap = d_disc - d_boundary`` is nonpositive by construction (the boundary
    samples are a subset of the disc samples); a strictly negative gap
    exhibits a disc whose interior approaches the boundary of the domain more
    closely than its edge does.  Raises DiscEscapesDomain, naming the first
    escaping sample, when any sample leaves the domain.
    """
    if domain.kind != "complex":
        raise InvalidParam("disc_distance_check needs a complex-coordinate domain")
    if domain.split[0] != 1 or domain.split[1] != disc.n_fiber:
        raise InvalidParam(
            f"disc maps into C x C^{disc.n_fiber}, domain split is {domain.split}"
        )
    if n_boundary < 8 or n_interior < 1:
        raise InvalidParam("need n_boundary >= 8 and n_interior >= 1")

    exact_all = True
    d_boundary = d_disc = _INF
    for on_boundary, w in _disc_samples(n_boundary, n_interior):
        p = disc.eval_real(w)
        # a batch square past the float range is inf with no warning, as a
        # float's is; guarded here, once per chunk, the per-point path pays nothing
        with np.errstate(over="ignore"):
            inside = domain.csg.member(p)
            if not inside.all():
                first = complex(w[np.argmin(inside)])
                raise DiscEscapesDomain(f"disc point at w={first!r} leaves the domain")
            v, e = dist_to_complement(domain.csg, p)
        exact_all = exact_all and bool(np.all(e))
        chunk_min = float(v.min())
        d_disc = min(d_disc, chunk_min)
        if on_boundary:
            d_boundary = min(d_boundary, chunk_min)

    return DiscDistanceReport(
        d_disc=d_disc,
        d_boundary=d_boundary,
        gap=d_disc - d_boundary,
        n_interior=n_interior + 1,
        n_boundary=n_boundary,
        exact=exact_all,
    )


@dataclass(frozen=True)
class MidpointReport:
    midpoint: tuple
    in_closure: bool


def midpoint_closure_check(domain: Domain, p0, p1) -> MidpointReport:
    """Whether the midpoint of two domain points stays in the closure."""
    a = domain.point(p0)
    b = domain.point(p1)
    for name, q in (("p0", a), ("p1", b)):
        if not domain.csg.member(q):
            raise PointOutsideDomain(f"{name} = {list(q)} is not in the domain")
    mid = tuple(0.5 * (ai + bi) for ai, bi in zip(a, b))
    return MidpointReport(mid, bool(domain.csg.member(mid, closed=True)))


# ---------------------------------------------------------------------------
# Stock domains


def full_space(split, kind: str = "real") -> Domain:
    return Domain(Full(), tuple(split), kind)


def ball_domain(split, radius: float = 1.0, center=None, kind: str = "real") -> Domain:
    m, n = split
    mult = 2 if kind == "complex" else 1
    dim = (m + n) * mult
    if center is None:
        center = (0.0,) * dim
    return Domain(Ball(tuple(center), radius, tuple(range(dim))), (m, n), kind)


def box_domain(lo, hi, split, kind: str = "real") -> Domain:
    dim = len(lo)
    return Domain(Box(tuple(lo), tuple(hi), tuple(range(dim))), tuple(split), kind)


def punctured_ball(split, radius: float = 1.0, kind: str = "real") -> Domain:
    """The unit ball with the origin removed."""
    m, n = split
    mult = 2 if kind == "complex" else 1
    dim = (m + n) * mult
    axes = tuple(range(dim))
    zero = (0.0,) * dim
    node = Intersection((Ball(zero, radius, axes), Complement(Ball(zero, 0.0, axes))))
    return Domain(node, (m, n), kind)


def bidisc() -> Domain:
    """The unit bidisc in C^2, split into base disc x fiber disc."""
    node = Intersection((
        Ball((0.0, 0.0), 1.0, (0, 1)),
        Ball((0.0, 0.0), 1.0, (2, 3)),
    ))
    return Domain(node, (1, 1), "complex")


def hartogs_figure(inner: float = 0.5) -> Domain:
    """The bidisc with the closed set {|tau| <= inner} x {|z| >= inner} removed."""
    if not (0.0 < inner < 1.0):
        raise InvalidParam("inner radius must lie in (0, 1)")
    removed = Intersection((
        Ball((0.0, 0.0), inner, (0, 1)),
        Complement(Ball((0.0, 0.0), inner, (2, 3))),
    ))
    node = Intersection((
        Ball((0.0, 0.0), 1.0, (0, 1)),
        Ball((0.0, 0.0), 1.0, (2, 3)),
        Complement(removed),
    ))
    return Domain(node, (1, 1), "complex")


def dumbbell(bulge: float = 0.3, neck: float = 0.02, reach: float = 1.0) -> Domain:
    """Two bulges joined by a thin neck along the base axis, in R x R."""
    if not (0.0 < neck < bulge):
        raise InvalidParam("need 0 < neck < bulge")
    node = Union((
        Ball((-reach, 0.0), bulge, (0, 1)),
        Ball((reach, 0.0), bulge, (0, 1)),
        Box((-reach, -neck), (reach, neck), (0, 1)),
    ))
    return Domain(node, (1, 1), "real")


def disc_region(radius: float = 1.0, center: complex = 0j) -> Domain:
    """A disc in C, set up as a pure-fiber region (split (0, 1))."""
    c = complex(center)
    return Domain(Ball((c.real, c.imag), radius, (0, 1)), (0, 1), "complex")


def plane_region() -> Domain:
    """All of C as a pure-fiber region."""
    return Domain(Full(), (0, 1), "complex")
