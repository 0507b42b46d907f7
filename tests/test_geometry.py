import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
