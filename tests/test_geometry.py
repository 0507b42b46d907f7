import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convlab import geometry
from convlab.errors import DiscEscapesDomain, InvalidParam, OutOfDomain, PointOutsideDomain
from convlab.geometry import (
    AffineFiberMap,
    AnalyticDisc,
    Ball,
    Domain,
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
from convlab.weights import stock_weight


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
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, p)
        assert geometry._as_real_point(0.3 - 0.2j, "complex", 2).tolist() == [0.3, -0.2]

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
