import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convlab import geometry
from convlab.errors import DiscEscapesDomain, InvalidParam, OutOfDomain, PointOutsideDomain
from convlab.geometry import (
    AffineFiberMap,
    AnalyticDisc,
    Ball,
    Box,
    Complement,
    Domain,
    Empty,
    Full,
    Intersection,
    Union,
    ball_domain,
    bidisc,
    boundary_distance,
    box_domain,
    disc_distance_check,
    dist_to_complement,
    dist_to_set,
    dumbbell,
    fiber,
    fiber_distance,
    hartogs_figure,
    midpoint_closure_check,
    punctured_ball,
)
from convlab.numerics import minimize_over_fiber
from convlab.prekopa import midpoint_divergence_probe
from convlab.scenarios import run_scenario
from convlab.weights import lemma3_weight, stock_weight


def vesica() -> Domain:
    """Union of two unit discs centered at (-1/2, 0) and (1/2, 0)."""
    return Domain(
        Union(parts=(
            Ball(center=(-0.5, 0.0), radius=1.0, axes=(0, 1)),
            Ball(center=(0.5, 0.0), radius=1.0, axes=(0, 1)),
        )),
        (0, 2),
        "real",
    )


class TestBoundaryDistance:
    def test_ball_is_exact(self):
        info = boundary_distance(ball_domain(split=(0, 2), radius=1.0), (0.3, 0.0))
        assert info.exact
        np.testing.assert_allclose(info.value, 0.7, rtol=1e-15)
        assert info.bracket == 0.0

    def test_box(self):
        dom = box_domain((0.0, 0.0), (2.0, 1.0), split=(0, 2))
        info = boundary_distance(dom, (0.5, 0.4))
        np.testing.assert_allclose(info.value, 0.4, rtol=1e-15)

    def test_union_of_discs(self):
        # From the center the nearest boundary points of the union are the
        # two lens corners at height +-sqrt(3)/2, not either circle alone.
        info = boundary_distance(vesica(), (0.0, 0.0))
        np.testing.assert_allclose(info.value, math.sqrt(3.0) / 2.0, rtol=1e-12)
        assert not info.exact
        assert info.bracket >= 0.0

    def test_puncture_counts(self):
        pb = punctured_ball(split=(0, 2), radius=1.0)
        np.testing.assert_allclose(
            boundary_distance(pb, (0.1, 0.0)).value, 0.1, rtol=1e-12
        )
        np.testing.assert_allclose(
            boundary_distance(pb, (0.8, 0.0)).value, 0.2, rtol=1e-12
        )


class TestFiberSlices:
    def test_bidisc_fiber_is_a_disc(self):
        fd = fiber(bidisc(), (0.0, 0.0))
        assert isinstance(fd.node, Ball)
        assert fd.node.radius == 1.0

    def test_hartogs_fibers_change_shape(self):
        hf = hartogs_figure(inner=0.5)
        assert isinstance(fiber(hf, (0.8, 0.0)).node, Ball)
        assert isinstance(fiber(hf, (0.2, 0.0)).node, Intersection)

    def test_fiber_distance_on_the_bidisc(self):
        np.testing.assert_allclose(
            fiber_distance(bidisc(), (0.0, 0.0), (0.3, 0.0)), 0.7, rtol=1e-15
        )

    def test_fiber_distance_on_a_seam_sees_the_closed_part(self):
        # Over a base point on the boundary of a removed set the slice keeps
        # that set: the puncture at the origin, the disc |z| < 1/2 of the
        # Hartogs figure at |tau| = 1/2.
        assert fiber_distance(punctured_ball((1, 1)), 0.0, 0.1) == 0.1
        assert fiber_distance(hartogs_figure(0.5), 0.5 + 0j, 0.3 + 0j) == 0.2
        # The puncture is a seam of measure zero: integrals do not see it.
        assert fiber(punctured_ball((1, 1)), 0.0).quad_intervals() == [(-1.0, 1.0)]

    def test_dumbbell_neck_halfwidth(self):
        dom = dumbbell(bulge=0.3, neck=0.02)
        np.testing.assert_allclose(fiber_distance(dom, (0.0,), (0.0,)), 0.02)

    @pytest.mark.parametrize("t", [1e200, -1e200, 1.7e308])
    def test_a_huge_base_offset_slices_a_ball_to_nothing(self, t):
        # the square of the offset leaves the float range: inf, not OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fiber(ball_domain((1, 1)), t).node == Empty()


def _interior_columns(dom, seed, n, scale):
    """``n`` seeded points of ``dom``, uniform in the box |coordinate| < scale
    and kept when inside, as packed (base, fiber) arrays of shape (rdim, n)."""
    rng = np.random.default_rng(seed)
    cols = []
    while len(cols) < n:
        p = rng.uniform(-1.0, 1.0, dom.rdim) * scale
        if dom.member(p):
            cols.append(p)
    q = np.array(cols).T
    return q[:dom.base_rdim], q[dom.base_rdim:]


def _hartogs_columns():
    """Base points below, at and above |tau| = 1/2, each with fiber points."""
    t, x = _interior_columns(hartogs_figure(0.5), 3, 40, (1.0, 1.0, 1.0, 1.0))
    on_seam = np.array([[0.5, 0.0, -0.5, 0.5, 0.0], [0.0, 0.5, 0.0, 0.0, -0.5]])
    near = np.array([[0.3, -0.1, 0.0, 0.2, 0.4], [0.1, 0.2, -0.45, 0.0, 0.1]])
    return np.hstack((t, on_seam)), np.hstack((x, near))


_BATCHES = {
    "bidisc": lambda: (bidisc(), *_interior_columns(bidisc(), 1, 64, 1.0)),
    "hartogs": lambda: (hartogs_figure(0.5), *_hartogs_columns()),
    "complex-ball": lambda: (ball_domain((1, 1), kind="complex"),
                             *_interior_columns(ball_domain((1, 1), kind="complex"), 2, 32, 1.0)),
    # the neck's slices are one box; the bulges' are inexact unions
    "dumbbell": lambda: (dumbbell(), *_interior_columns(dumbbell(), 4, 48, (1.3, 0.3))),
    # no base axes: one slice, the whole union, whose distance is not exact
    "vesica": lambda: (vesica(), *_interior_columns(vesica(), 5, 6, 1.5)),
}


class TestFiberDistanceBatch:
    @pytest.mark.parametrize("name", sorted(_BATCHES))
    def test_each_column_has_the_bits_of_the_point_alone(self, name):
        dom, t, x = _BATCHES[name]()
        got = fiber_distance(dom, t, x)
        assert got.shape == (t.shape[1],)
        for j in range(t.shape[1]):
            assert got[j].hex() == fiber_distance(dom, t[:, j], x[:, j]).hex(), j

    def test_an_empty_batch(self):
        assert fiber_distance(bidisc(), np.empty((2, 0)), np.empty((2, 0))).shape == (0,)

    @pytest.mark.parametrize("bad", [2.0, 1e200])
    def test_the_first_outside_column_raises_as_it_does_alone(self, bad):
        dom = hartogs_figure(0.5)
        t = np.array([[0.1, 0.2, 0.0, 0.3], [0.0, 0.0, 0.1, 0.0]])
        x = np.array([[0.1, bad, 0.2, -bad], [0.0, 0.0, 0.7, 0.0]])
        with pytest.raises(PointOutsideDomain) as alone:
            fiber_distance(dom, t[:, 1], x[:, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PointOutsideDomain) as batch:
                fiber_distance(dom, t, x)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("t,x", [
        (np.zeros((1, 3)), np.zeros((2, 3))),
        (np.zeros((2, 3)), np.zeros((2, 4))),
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros((2, 3)), np.zeros(2)),
        (np.zeros((1, 3), complex), np.zeros((1, 3), complex)),
    ], ids=["base-rows", "columns", "fiber-rows", "single-fiber", "complex"])
    def test_a_batch_off_the_split_is_refused(self, t, x):
        with pytest.raises(InvalidParam):
            fiber_distance(bidisc(), t, x)


# Coordinates on a grid of halves, so that a drawn point often sits exactly on
# a drawn sphere: (1/2, 0) is on the circle of radius 1/2 about the origin.
_HALVES = (-1.0, -0.5, 0.0, 0.5, 1.0)
_GRID = st.sampled_from(_HALVES)


@st.composite
def csg_trees(draw, nb, depth=3):
    """A CSG tree of balls, boxes, unions, intersections and complements on
    ``nb`` base and ``nb`` fiber axes; a primitive reads the base only, the
    fiber only, or both, equally often."""
    kind = draw(st.sampled_from(("ball", "box", "union", "intersection", "complement")
                                if depth else ("ball", "box")))
    if kind in ("ball", "box"):
        reads = draw(st.sampled_from(((0,), (nb,), (0, nb))))  # the halves' first axes
        axes = draw(st.permutations([a for lo in reads for a in range(lo, lo + nb)
                                     if a == lo or draw(st.booleans())]))
        if kind == "ball":
            return Ball(tuple(draw(_GRID) for _ in axes),
                        draw(st.sampled_from((0.0, 0.5, 1.0))), tuple(axes))
        ends = [sorted(draw(st.lists(_GRID, min_size=2, max_size=2, unique=True)))
                for _ in axes]
        return Box(tuple(lo for lo, _ in ends), tuple(hi for _, hi in ends), tuple(axes))
    if kind == "complement":
        return Complement(draw(csg_trees(nb, depth - 1)))
    parts = draw(st.lists(csg_trees(nb, depth - 1), min_size=1, max_size=3))
    return (Union if kind == "union" else Intersection)(tuple(parts))


@st.composite
def fiber_batches(draw):
    """A domain on a real or complex (1, 1) split and a batch on it.  The base
    columns are a few grid points, each once and some again, so that columns
    repeat and sit on base spheres; the fiber points are grid points, drawn
    either freely or inside the domain."""
    kind = draw(st.sampled_from(("real", "complex")))
    dom = Domain(draw(csg_trees(1 if kind == "real" else 2)), (1, 1), kind)
    nb, nf = dom.base_rdim, dom.fiber_rdim
    if nb == 1:  # the whole base grid, on every sphere that meets it
        pool = [(v,) for v in _HALVES]
    else:  # the corners of a square: pairs that share one coordinate
        pool = list(itertools.product(*(draw(st.lists(_GRID, min_size=2, max_size=2, unique=True))
                                        for _ in range(nb))))
    repeats = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    columns = draw(st.permutations(pool + repeats))
    if draw(st.booleans()):  # fiber points inside, in the columns whose fiber has one
        grid = list(itertools.product(_HALVES, repeat=nf))
        inside = [(tj, [q for q in grid if dom.member(tj + q)]) for tj in columns]
        cols = [(tj, draw(st.sampled_from(qs))) for tj, qs in inside if qs]
    else:
        cols = [(tj, tuple(draw(_GRID) for _ in range(nf))) for tj in columns]
    if not cols:
        return dom, np.empty((nb, 0)), np.empty((nf, 0))
    t, x = (np.array(part, dtype=float).T for part in zip(*cols))
    return dom, t, x


# Columns that share one base coordinate but not their offset from a ball's
# centre, and a column on a removed base sphere, where the complement slices
# the closed ball: a key that misses either merges columns with unequal slices.
_SHARED_COORDINATE = (Domain(Ball((0.0, 0.0, 0.0), 1.0, (0, 1, 2)), (1, 1), "complex"),
                      np.array([[0.5, 0.5], [0.0, 0.5]]), np.zeros((2, 2)))
_ON_A_REMOVED_SPHERE = (Domain(Union((Ball((0.0,), 0.5, (1,)),
                                      Complement(Ball((0.0,), 0.5, (0,))))), (1, 1), "real"),
                        np.array([[0.5, 1.0]]), np.zeros((1, 2)))


def _alone(dom, t, x):
    """What ``fiber_distance`` answers or raises for one column."""
    try:
        return fiber_distance(dom, t, x).hex()
    except PointOutsideDomain as e:
        return e


class TestSliceKey:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batch=fiber_batches())
    @example(batch=_SHARED_COORDINATE)
    @example(batch=_ON_A_REMOVED_SPHERE)
    def test_each_column_answers_as_it_does_alone(self, batch):
        """The batch answers with each column's bits, or raises what its first
        outside column raises; the batch of its inside columns answers too."""
        dom, t, x = batch
        alone = [_alone(dom, t[:, j], x[:, j]) for j in range(t.shape[1])]
        inside = [not isinstance(a, Exception) for a in alone]
        if not all(inside):
            with pytest.raises(PointOutsideDomain) as batch_error:
                fiber_distance(dom, t, x)
            assert str(batch_error.value) == str(alone[inside.index(False)])
        got = fiber_distance(dom, t[:, inside], x[:, inside]).tolist()
        assert [v.hex() for v in got] == [a for a in alone if not isinstance(a, Exception)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batch=fiber_batches(), closed=st.booleans())
    @example(batch=_SHARED_COORDINATE, closed=False)
    @example(batch=_ON_A_REMOVED_SPHERE, closed=False)
    def test_equal_keys_slice_to_equal_nodes(self, batch, closed):
        dom, t, _ = batch
        nb, n = dom.base_rdim, t.shape[1]
        rows = dom.csg.slice_key(t, nb, closed)
        key = np.array(rows, dtype=float).reshape(len(rows), n).T
        slices = [dom.csg.slice_first(t[:, j].tolist(), nb, closed) for j in range(n)]
        for j in range(n):
            for k in range(j):
                if (key[j] == key[k]).all():
                    assert slices[j] == slices[k], (j, k)

    def test_psh_delta_slices_once_per_group(self, monkeypatch):
        """A batch slices each ball of its domain once per group of columns
        with equal slices, not once per column."""
        slice_first, fiber_distances = Ball.slice_first, geometry._fiber_distances
        calls, batches = [0], []

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return slice_first(self, *args, **kwargs)

        def recorded(domain, t, x):
            before = calls[0]
            out = fiber_distances(domain, t, x)
            batches.append((domain, t, calls[0] - before))
            return out

        monkeypatch.setattr(Ball, "slice_first", counted)
        monkeypatch.setattr(geometry, "_fiber_distances", recorded)
        run_scenario("psh-delta")
        monkeypatch.undo()
        assert batches and sum(t.shape[1] for _, t, _ in batches) > 10 * len(batches)
        for domain, t, n in batches:
            groups = {domain.csg.slice_first(tj, domain.base_rdim) for tj in t.T.tolist()}
            assert n <= len(groups) * repr(domain.csg).count("Ball("), (t.shape, n)


class TestMidpointClosure:
    def test_dumbbell_drops_the_midpoint(self):
        rep = midpoint_closure_check(dumbbell(bulge=0.3, neck=0.02), (-1.0, 0.25), (1.0, 0.25))
        assert rep.midpoint == (0.0, 0.25)
        assert not rep.in_closure

    def test_round_domain_keeps_it(self):
        rep = midpoint_closure_check(ball_domain(split=(1, 1), radius=1.2), (-0.5, 0.2), (0.5, 0.2))
        assert rep.in_closure

    def test_puncture_is_invisible_in_the_closure(self):
        rep = midpoint_closure_check(punctured_ball(split=(1, 1), radius=1.0), (-0.5, 0.0), (0.5, 0.0))
        assert rep.midpoint == (0.0, 0.0)
        assert rep.in_closure


def floats(p) -> tuple:
    """The type of a packed point and of each coordinate."""
    return (type(p), *map(type, p))


class TestPackedPoints:
    """One packed point is a tuple of Python floats, whatever the input."""

    @pytest.mark.parametrize("domain, p", [
        (ball_domain((1, 1)), np.array([0.1, 0.2])),
        (ball_domain((1, 1)), [np.float32(0.1), 0.2]),
        (bidisc(), (0.1 + 0.2j, np.complex64(0.3j))),
    ])
    def test_points_base_points_and_fibers(self, domain, p):
        nb = domain.split[0]
        for got in (domain.point(p), domain.base_point(p[:nb]), fiber(domain, p[:nb]).t):
            assert floats(got) == (tuple, *[float] * len(got))
        assert domain.base_point(p[:nb]) == domain.point(p)[:domain.base_rdim]

    @pytest.mark.parametrize("query", [
        lambda: ball_domain((1, 1)).member((0.1 + 5j, 0.0)),
        lambda: ball_domain((1, 1)).member(np.array([0.1, 0.2], dtype=complex)),
        lambda: fiber(ball_domain((1, 1)), 0.1).member(0.2 + 0j),
        lambda: lemma3_weight(10, 0.5)((0.3 + 0.4j, 0.0)),
        lambda: lemma3_weight(10, 0.5).at((0.3,), (0.4j,)),
        lambda: AffineFiberMap.through(0.0, 0.0, 1.0, 1.0).at((0.3 + 0j,)),
        lambda: AffineFiberMap.through(0.0, 0.0, 1.0, 1j),
    ], ids=["domain-member", "complex-array", "fiber-member", "weight-call",
            "weight-at", "map-at", "map-through"])
    def test_a_complex_coordinate_is_no_real_point(self, query):
        # the cast to float would drop the imaginary part with only a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParam):
                query()

    @pytest.mark.parametrize("a", [
        AffineFiberMap.through(0.0, 0.0, 1.0, 1.0),
        AffineFiberMap.through(-0.3, (0.1, 2.0), 0.7, (-1.3, 0.4)),
        AffineFiberMap.constant((0.7, -0.2), base_rdim=1),
        AffineFiberMap.constant((0.7, -0.2), base_rdim=2),
    ])
    def test_at_gives_the_bits_of_the_matrix_product(self, a):
        # one column, or none that is not zero: x0 + A (t - t0) has a single
        # product per row, so numpy's matmul and the row sum agree bit for bit
        rng = np.random.default_rng(7)
        pts = [*rng.uniform(-3.0, 3.0, (64, a.base_rdim)), a.t0, (1e200,) * a.base_rdim]
        for t in pts:
            got = a.at(t)
            with np.errstate(over="ignore"):
                want = np.array(a.x0) + np.array(a.mat) @ (np.asarray(t) - np.array(a.t0))
            assert floats(got) == (tuple, *[float] * a.fiber_rdim)
            assert np.array(got).tobytes() == want.tobytes()

    def test_at_sums_each_row_left_to_right(self):
        a0, s, t0 = 0.2 - 0.1j, 0.5 + 1.3j, 0.1 + 0.7j
        a = AffineFiberMap.complex_affine(a0, s, t0)
        rng = np.random.default_rng(7)
        for t in rng.uniform(-3.0, 3.0, (64, 2)).tolist():
            d0, d1 = t[0] - t0.real, t[1] - t0.imag
            want = (a0.real + (s.real * d0 + -s.imag * d1),
                    a0.imag + (s.imag * d0 + s.real * d1))
            assert a.at(t) == want
            assert floats(a.at(t)) == (tuple, float, float)

    def test_the_minimizer_returns_the_tuple_it_scanned(self):
        seen = []

        def f(p):
            seen.append(p)
            return (p[0] - 0.3) ** 2
        arg, _ = minimize_over_fiber(f, fiber(box_domain((-1.0,), (2.0,), (0, 1)), ()))
        assert floats(arg) == (tuple, float)
        assert any(p is arg for p in seen)


class TestRealCoordinates:
    """Complex or NaN coordinates are refused with InvalidParam, as
    ``AffineFiberMap.through`` refuses them, never dropped or left to fail
    in ``float()``."""

    @pytest.mark.parametrize("build", [
        lambda: Ball((0.5j, 0.0), 1.0, (0, 1)),
        lambda: Ball((0.0, 0.0), 1.0j, (0, 1)),
        lambda: Box((0.5j, 0.0), (1.0, 1.0), (0, 1)),
        lambda: Box((0.0, 0.0), (1.0, np.complex64(1.0)), (0, 1)),
        lambda: AffineFiberMap((0.5j,), ((1.0,),), (0.0,)),
        lambda: AffineFiberMap((0.0,), ((1.0j,),), (0.0,)),
        lambda: AffineFiberMap((0.0,), ((1.0,),), (np.complex128(0.5j),)),
        lambda: AffineFiberMap.constant(0.5j, 1),
        lambda: AffineFiberMap.through(0.0, 0.5j, 1.0, 1.0),
    ], ids=["ball-center", "ball-radius", "box-lo", "box-hi", "map-x0", "map-matrix",
            "map-t0", "constant", "through"])
    def test_complex_coordinates_are_refused(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning would drop the imaginary part
            with pytest.raises(InvalidParam, match="complex"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: Ball((math.nan, 0.0), 1.0, (0, 1)),
        lambda: Ball((0.0, 0.0), math.nan, (0, 1)),
        lambda: Box((math.nan, 0.0), (1.0, 1.0), (0, 1)),
        lambda: Box((0.0, 0.0), (1.0, math.nan), (0, 1)),
    ], ids=["ball-center", "ball-radius", "box-lo", "box-hi"])
    def test_nan_coordinates_are_refused(self, build):
        with pytest.raises(InvalidParam):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Ball(("a", 0.0), 1.0, (0, 1)),
        lambda: bidisc().member(("x", 0, 0, 0)),
        lambda: fiber_distance(bidisc(), np.array([["a"], ["b"]]), np.zeros((2, 1))),
        lambda: bidisc().member((None, 0, 0, 0)),  # numpy packs None to NaN
        lambda: bidisc().member(("0.5", 0, 0, 0)),  # and a numeric string to 0.5
        lambda: fiber_distance(bidisc(), (None, 0.0), (0.0, 0.0)),
        lambda: bidisc().member(((0, 0), 0, 0, 0)),
        lambda: fiber_distance(bidisc(), [[0.0, 0.1], [0.0]], [[0.0], [0.0]]),
    ], ids=["ball-center", "domain-point", "fiber-batch", "none-point",
            "numeric-text-point", "none-base-point", "ragged-point", "ragged-batch"])
    def test_coordinates_that_are_not_numbers_are_refused(self, build):
        with pytest.raises(InvalidParam):
            build()

    @pytest.mark.parametrize("p", [
        (np.int64(3), np.uint8(7), np.True_, np.float32(0.1)),
        np.array([3, 7, 1, -2], dtype=np.int32),
        np.array([True, False, True, True]),
        np.array([0.1, -2.5e-300, 1e300, -0.0]),
        (0.1, np.float64(1.0 / 3.0), 2, False),
    ], ids=["numpy-scalars", "int-array", "bool-array", "float-array", "mixed"])
    def test_numbers_pack_bit_for_bit(self, p):
        got = geometry._as_real_point(p, "real", 4)
        assert {type(v) for v in got} == {float}
        assert [v.hex() for v in got] == [float(v).hex() for v in p]

    def test_infinite_box_bounds_stay_allowed(self):
        box = Box((-math.inf, 0.0), (math.inf, 1.0), (0, 1))
        assert box.lo == (-math.inf, 0.0) and box.hi == (math.inf, 1.0)
        assert box.member((1e300, 0.5)) and not box.member((0.0, 1.5))

    def test_real_coordinates_become_python_floats(self):
        ball = Ball((np.float32(0.5), 1), np.int64(2), (0, 1))
        assert ball.center == (0.5, 1.0) and ball.radius == 2.0
        assert floats(ball.center) == (tuple, float, float) and type(ball.radius) is float
        a = AffineFiberMap(np.array([0.25]), [[1]], (np.float64(0.0),))
        assert (a.x0, a.mat, a.t0) == ((0.25,), ((1.0,),), (0.0,))
        assert floats(a.x0) == floats(a.t0) == (tuple, float)


class TestIntegerParameters:
    """Splits, axes and dimensions are checked with ``operator.index``: a
    float or a string is refused with InvalidParam, never floored."""

    @pytest.mark.parametrize("build", [
        lambda: Domain(Full(), (1.5, 1)),
        lambda: Domain(Full(), ("1", 1)),
        lambda: Ball((0.0,), 1.0, (0.5,)),
        lambda: Box((0.0,), (1.0,), (1.7,)),
        lambda: AffineFiberMap.constant((0.0,), 1.5),
    ], ids=["split", "split-text", "ball-axes", "box-axes", "constant-map"])
    def test_a_value_that_is_not_an_integer_is_refused(self, build):
        with pytest.raises(InvalidParam):
            build()

    @pytest.mark.parametrize("split", [(1, 1, 1), (2,), (), 2],
                             ids=["three", "one", "none", "not-a-sequence"])
    def test_a_split_is_two_entries(self, split):
        with pytest.raises(InvalidParam):
            Domain(Full(), split)

    def test_numpy_integers_become_python_ints(self):
        dom = Domain(Full(), (np.int64(1), np.int32(1)))
        ball = Ball((0.0,), 1.0, (np.int64(0),))
        box = Box((0.0,), (1.0,), (np.uint8(0),))
        a = AffineFiberMap.constant((0.0,), np.int64(2))
        assert (dom.split, ball.axes, box.axes, a.t0) == ((1, 1), (0,), (0,), (0.0, 0.0))
        assert {type(v) for v in (*dom.split, *ball.axes, *box.axes)} == {int}


class TestAffineFiberMap:
    def test_through_two_points(self):
        a = AffineFiberMap.through(0.0, 0.0, 1.0, 1.0)
        np.testing.assert_allclose(a.at((0.3,)), [0.3])
        assert a.base_rdim == 1 and a.fiber_rdim == 1

    def test_constant(self):
        c = AffineFiberMap.constant(0.7, base_rdim=1)
        np.testing.assert_allclose(c.at((9.9,)), [0.7])

    def test_complex_affine_packs_reals(self):
        a = AffineFiberMap.complex_affine(0.2 + 0.1j, slope=0.5)
        np.testing.assert_allclose(a.at((1.0, 0.0)), [0.7, 0.1])
        # multiplication by i rotates
        rot = AffineFiberMap.complex_affine(0.0, slope=1j)
        np.testing.assert_allclose(rot.at((1.0, 0.0)), [0.0, 1.0], atol=1e-15)

    def test_dimension_guard(self):
        a = AffineFiberMap.through(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidParam):
            a.at((0.1, 0.2))

    def test_coincident_points_rejected(self):
        with pytest.raises(InvalidParam):
            AffineFiberMap.through(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidParam):
            AffineFiberMap.through((0.3, -0.2), 0.0, (0.3, -0.2), 1.0)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(InvalidParam):
            AffineFiberMap.through((0.0, 0.0), 0.0, (1.0,), 1.0)
        with pytest.raises(InvalidParam):
            AffineFiberMap.through(0.0, (0.0, 0.0), 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_two_dimensional_base_gives_the_probe_matrix_to_the_bit(self, seed):
        # the midpoint probe's matrix, (x1 - x0) d^T / |d|^2, written out entry by entry
        rng = np.random.default_rng(seed)
        t0, t1 = rng.uniform(-2.0, 2.0, (2, 2)).tolist()
        x0, x1 = rng.uniform(-2.0, 2.0, (2, 3)).tolist()
        d = [b - a for a, b in zip(t0, t1)]
        denom = 0.0
        for dj in d:
            denom = denom + dj * dj
        want = tuple(tuple((x1[i] - x0[i]) * d[j] / denom for j in range(2))
                     for i in range(3))
        a = AffineFiberMap.through(t0, x0, t1, x1)
        assert a.mat == want
        assert (a.t0, a.x0) == (tuple(t0), tuple(x0))
        assert floats(a.mat[0]) == (tuple, float, float)


class TestAnalyticDisc:
    def test_polynomial_evaluation(self):
        d = AnalyticDisc(base=(0.0, 0.5), fibers=((0.0, 0.0, 0.5),))
        assert d.eval_real(2.0 + 0j).tolist() == [1.0, 0.0, 2.0, 0.0]
        np.testing.assert_allclose(d.eval_real(1.0 + 0j), [0.5, 0.0, 0.5, 0.0])

    def test_fiber_count(self):
        d = AnalyticDisc(base=(0.0, 1.0), fibers=((0.1,), (0.0, 0.2)))
        assert d.n_fiber == 2


class TestDiscDistance:
    def test_graph_disc_on_the_bidisc(self):
        d = AnalyticDisc(base=(0.0, 0.5), fibers=((0.0, 0.0, 0.5),))
        rep = disc_distance_check(bidisc(), d, n_interior=4000, n_boundary=128)
        assert abs(rep.gap) <= 5e-3
        assert rep.gap == rep.d_disc - rep.d_boundary

    def test_constant_fiber_gap_is_zero(self):
        d = AnalyticDisc(base=(0.0, 0.5), fibers=((0.25,),))
        rep = disc_distance_check(bidisc(), d, n_interior=2000, n_boundary=64)
        assert rep.gap == 0.0

    def test_escaping_disc_is_rejected(self):
        d = AnalyticDisc(base=(0.0, 1.0), fibers=((1.2,),))
        with pytest.raises(DiscEscapesDomain):
            disc_distance_check(bidisc(), d, n_interior=100, n_boundary=16)

    def test_chunked_scan_matches_a_point_by_point_scan(self):
        # 5001 sunflower points span two chunks
        hf = hartogs_figure()
        d = AnalyticDisc(base=(0.0, 0.8), fibers=((0.45,),))
        rep = disc_distance_check(hf, d, n_interior=5000, n_boundary=64)
        ws = scan_order(5000, 64)
        dists = [dist_to_complement(hf.csg, d.eval_real(w)) for w in ws]
        assert all(e for _, e in dists) and rep.exact
        assert rep.d_boundary == min(float(v) for v, _ in dists[:64])
        assert rep.d_disc == min(float(v) for v, _ in dists)
        assert rep.n_interior == 5001 and rep.n_boundary == 64

    def test_escape_names_the_first_boundary_sample(self):
        d = AnalyticDisc(base=(0.0, 1.0), fibers=((1.2,),))
        with pytest.raises(DiscEscapesDomain) as info:
            disc_distance_check(bidisc(), d, n_interior=100, n_boundary=16)
        assert str(info.value) == "disc point at w=(1+0j) leaves the domain"

    def test_interior_escape_beyond_the_first_chunk(self):
        # the boundary circle stays in the Hartogs figure (|tau| = 0.8), but the
        # annulus 5/9 <= |w| <= 5/8 maps into the removed {|tau| <= 1/2, |z| >= 1/2}
        hf = hartogs_figure(0.5)
        d = AnalyticDisc(base=(0.0, 0.8), fibers=((0.0, 0.9),))
        n_interior, n_boundary = 20000, 64
        ws = scan_order(n_interior, n_boundary)
        first = next(k for k, w in enumerate(ws) if not hf.member(d.eval_real(w)))
        assert first - n_boundary >= geometry._CHUNK
        with pytest.raises(DiscEscapesDomain) as info:
            disc_distance_check(hf, d, n_interior=n_interior, n_boundary=n_boundary)
        assert str(info.value) == f"disc point at w={ws[first]!r} leaves the domain"


def scan_order(n_interior, n_boundary):
    """disc_distance_check's samples, one Python complex at a time: the
    boundary circle, then the sunflower from w = 0."""
    ws = []
    for j in range(n_boundary):
        th = 2.0 * math.pi * j / n_boundary
        ws.append(complex(math.cos(th), math.sin(th)))
    ws.append(0j)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for j in range(1, n_interior + 1):
        r = math.sqrt(j / (n_interior + 1.0))
        th = j * golden
        ws.append(complex(r * math.cos(th), r * math.sin(th)))
    return ws


STOCK = {
    "bidisc": bidisc(),
    "hartogs_figure": hartogs_figure(0.5),
    "punctured_ball": punctured_ball(split=(1, 1)),
    "dumbbell": dumbbell(),
    "ball_domain": ball_domain(split=(1, 2), radius=1.0),
    "box_domain": box_domain((-1.0, -0.5), (1.0, 0.5), split=(1, 1)),
    "vesica": vesica(),
}


def probe_points(domain, seed, n=48):
    """Seeded (rdim, n) points around ``domain``.  The first columns are
    drawn from a coarse grid, so some land exactly on primitive boundaries,
    on the puncture, and on the removed set of the Hartogs figure."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(domain.rdim, n))
    pts[:, : n // 3] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(domain.rdim, n // 3))
    return pts


def rule_answers(node, p):
    return {
        "member": (node.member(p),),
        "closed_member": (node.member(p, closed=True),),
        "dist_to_complement": dist_to_complement(node, p),
        "dist_to_set": dist_to_set(node, p),
    }


class TestBatchedRules:
    @pytest.mark.parametrize("name", sorted(STOCK))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_single_points(self, name, seed):
        node = STOCK[name].csg
        pts = probe_points(STOCK[name], seed)
        n = pts.shape[1]
        batch = rule_answers(node, pts)
        for got in batch.values():
            assert np.shape(got[0]) == (n,)
        for j in range(n):
            # one point as an (rdim,) array and as a list of Python floats
            for point in (pts[:, j], pts[:, j].tolist()):
                single = rule_answers(node, point)
                for rule, got in batch.items():
                    for b, s in zip(got, single[rule]):
                        x = np.broadcast_to(b, (n,))[j]
                        assert np.ndim(s) == 0
                        # equal, and with the same sign, zeros included
                        assert x == s, (rule, point)
                        assert math.copysign(1.0, x) == math.copysign(1.0, s), (rule, point)

    @pytest.mark.parametrize("name", sorted(STOCK))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_members_sit_at_nonnegative_distance(self, name, seed):
        node = STOCK[name].csg
        pts = probe_points(STOCK[name], seed)
        inside = node.member(pts)
        depth, _ = dist_to_complement(node, pts)
        gap, _ = dist_to_set(node, pts)
        assert np.all(depth[inside] >= 0.0)
        assert np.all(gap >= 0.0)
        assert np.all(gap[node.member(pts, closed=True)] == 0.0)

    def test_scalar_branches_give_the_numpy_bits(self):
        # ties, signed zeros, infinities and NaNs, as Python and numpy floats
        vals = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]
        for a in vals:
            for b in vals:
                for mine, ref in ((geometry._minimum, np.minimum),
                                  (geometry._maximum, np.maximum)):
                    want = ref(np.array([a] * 9), np.array([b] * 9))[4].tobytes()
                    for x, y in ((a, b), (np.float64(a), np.float64(b))):
                        assert np.float64(mine(x, y)).tobytes() == want, (ref, a, b)
            if not a < 0.0:
                want = np.sqrt(np.array([a] * 9))[4].tobytes()
                assert np.float64(geometry._sqrt(a)).tobytes() == want, a

    @pytest.mark.parametrize("name", sorted(STOCK))
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_slice_membership_equals_membership(self, name, seed):
        # continuous draws: see test_slice_on_a_seam_keeps_the_closed_part
        dom = STOCK[name]
        nb = dom.base_rdim
        pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(dom.rdim, 48))
        for j in range(pts.shape[1]):
            node = dom.csg.slice_first(pts[:nb, j].tolist(), nb)
            assert node.member(pts[nb:, j]) == dom.csg.member(pts[:, j]), pts[:, j]

    @pytest.mark.parametrize("name,point", [
        ("punctured_ball", (0.0, 0.0)),
        ("hartogs_figure", (0.5, 0.0, 0.5, 0.0)),
    ])
    def test_slice_on_a_seam_keeps_the_closed_part(self, name, point):
        dom = STOCK[name]
        node = dom.csg.slice_first(list(point[:dom.base_rdim]), dom.base_rdim)
        assert node.member(list(point[dom.base_rdim:])) == dom.member(point)

    def test_complex_points_pack_as_interleaved_pairs(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        for p in (z, z.T, z.astype(np.complex64)):
            got = geometry._as_real_point(p, "complex", 12)
            flat = p.ravel()
            want = np.empty(12)
            want[0::2] = flat.real
            want[1::2] = flat.imag
            assert (type(got), *map(type, got)) == (tuple, *[float] * 12)
            assert np.array(got).tobytes() == want.tobytes()
        assert geometry._as_real_point(0.3 - 0.2j, "complex", 2) == (0.3, -0.2)

    def test_reports_hold_python_scalars(self):
        info = boundary_distance(bidisc(), (0.3 + 0j, 0.1j))
        assert type(info.value) is float and type(info.exact) is bool
        rep = disc_distance_check(bidisc(), AnalyticDisc(base=(0.0, 0.5), fibers=((0.25,),)),
                                  n_interior=100, n_boundary=16)
        assert all(type(v) is float for v in (rep.d_disc, rep.d_boundary, rep.gap))
        assert type(rep.exact) is bool
        mid = midpoint_closure_check(ball_domain(split=(1, 1)), (-0.5, 0.2), (0.5, 0.2))
        assert type(mid.in_closure) is bool
        assert all(type(v) is float for v in mid.midpoint)
        hf = hartogs_figure()
        assert type(fiber_distance(hf, 0.8 + 0j, 0.6j)) is float
        assert type(hf.member((0.8 + 0j, 0.6j))) is bool
        assert type(fiber(hf, 0.8 + 0j).member(0.6j)) is bool


ONE_OF_EACH = {
    "ball": Ball((0.0, 0.0), 1.0, (0, 1)),
    "box": Box((-1.0, -0.5), (1.0, 0.5), (0, 1)),
    "full": Full(),
    "empty": Empty(),
    "union": Union((Ball((-0.5, 0.0), 1.0, (0, 1)), Ball((0.5, 0.0), 1.0, (0, 1)))),
    "intersection": Intersection((Ball((0.0, 0.0), 1.0, (0, 1)),
                                  Box((-0.5, -2.0), (2.0, 0.25), (0, 2)))),
    "complement": Complement(Ball((0.0, 0.0), 0.5, (0, 1))),
}


class TestNodeQuestions:
    """Other modules ask a node about its shape; they do not test its class."""

    def test_complement_of_each_node(self):
        want = {"full": Empty(), "empty": Full(),
                "complement": Ball((0.0, 0.0), 0.5, (0, 1))}
        for name, node in ONE_OF_EACH.items():
            assert node.complement() == want.get(name, Complement(node)), name

    @pytest.mark.parametrize("name", sorted(STOCK))
    @pytest.mark.parametrize("seed", range(3))
    def test_a_double_complement_answers_like_its_part(self, name, seed):
        node = STOCK[name].csg
        twice = Complement(Complement(node))
        pts = probe_points(STOCK[name], seed)
        columns = [pts[:, j].tolist() for j in range(pts.shape[1])]
        for p in (pts, *columns):
            for closed in (False, True):
                assert np.array_equal(twice.member(p, closed), node.member(p, closed))
            for rule in (dist_to_set, dist_to_complement):
                got, want = rule(twice, p), rule(node, p)
                inside = node.member(p) if rule is dist_to_complement else True
                # the same bits where the rule is asked: signed zeros too
                assert np.array_equal(np.where(inside, np.float64(got[0]), 0.0).view(np.int64),
                                      np.where(inside, np.float64(want[0]), 0.0).view(np.int64))
                assert np.array_equal(np.where(inside, got[1], True),
                                      np.where(inside, want[1], True))

    def test_a_slice_drops_a_double_complement(self):
        assert fiber(hartogs_figure(), 0j).node == Intersection(
            (Ball((0.0, 0.0), 1.0, (0, 1)), Ball((0.0, 0.0), 0.5, (0, 1))))

    def test_disc_radius_of_each_node(self):
        for name, node in ONE_OF_EACH.items():
            want = {"ball": 1.0, "full": math.inf}.get(name)
            assert node.disc_radius((0.0, 0.0)) == want, name
        ball = ONE_OF_EACH["ball"]
        assert ball.disc_radius([0.0, 0.0]) == 1.0
        assert ball.disc_radius((0.0, 1e-300)) is None
        assert Ball((0.0, 0.0), 1.0, (2, 3)).disc_radius((0.0, 0.0)) is None
        # discs about one center intersect in the smallest of them
        disc = lambda c, r: Ball(c, r, (0, 1))
        assert Intersection((disc((0.0, 0.0), 1.0), Full())).disc_radius((0.0, 0.0)) == 1.0
        assert Intersection((disc((0.0, 0.0), 1.0), disc((0.0, 0.0), 0.25),
                             disc((0.0, 0.0), 0.5))).disc_radius((0.0, 0.0)) == 0.25
        # one part that is not a disc about the center makes the whole no disc
        assert Intersection((disc((0.0, 0.0), 1.0), disc((0.0, 1e-300), 0.5))
                            ).disc_radius((0.0, 0.0)) is None
        assert fiber(hartogs_figure(), 0j).node.disc_radius((0.0, 0.0)) == 0.5
        assert fiber(hartogs_figure(), 0j).node.disc_radius((0.5, 0.0)) is None
        punctured = fiber(punctured_ball((1, 1), kind="complex"), 0j).node
        assert punctured.disc_radius((0.0, 0.0)) is None

    def test_bounds_are_tuples_of_python_floats(self):
        want = {
            "ball": ((-1.0, -1.0, -math.inf), (1.0, 1.0, math.inf)),
            "box": ((-1.0, -0.5, -math.inf), (1.0, 0.5, math.inf)),
            "full": ((-math.inf,) * 3, (math.inf,) * 3),
            "empty": ((math.inf,) * 3, (-math.inf,) * 3),
            "union": ((-1.5, -1.0, -math.inf), (1.5, 1.0, math.inf)),
            "intersection": ((-0.5, -1.0, -2.0), (1.0, 1.0, 0.25)),
            "complement": ((-math.inf,) * 3, (math.inf,) * 3),
        }
        for name, node in ONE_OF_EACH.items():
            lo, hi = node.bounds(3)
            assert (floats(lo), floats(hi)) == ((tuple, float, float, float),) * 2, name
            assert (lo, hi) == want[name], name
        assert fiber(hartogs_figure(), 0.8 + 0j).bounds() == ((-1.0, -1.0), (1.0, 1.0))


_UNIT_DISC = ball_domain((1, 1))


@pytest.mark.parametrize("query,error", [
    (lambda: boundary_distance(_UNIT_DISC, (2.0, 0.0)), PointOutsideDomain),
    (lambda: fiber_distance(_UNIT_DISC, 0.0, 2.0), PointOutsideDomain),
    (lambda: fiber_distance(_UNIT_DISC, 2.0, 0.0), PointOutsideDomain),
    (lambda: midpoint_closure_check(_UNIT_DISC, (0.0, 0.0), (2.0, 0.0)), PointOutsideDomain),
    (lambda: midpoint_divergence_probe(stock_weight("prekopa_cex", 0.1), _UNIT_DISC,
                                       (0.0, 0.0), (2.0, 0.0)), PointOutsideDomain),
    (lambda: minimize_over_fiber(lambda x: 0.0, fiber(_UNIT_DISC, 0.0),
                                 search_box=[(3.0, 4.0)]), OutOfDomain),
], ids=["boundary-distance", "fiber-point", "base-point", "midpoint-closure",
        "midpoint-probe", "search-box"])
def test_a_query_from_outside_the_domain_raises(query, error):
    with pytest.raises(error):
        query()
