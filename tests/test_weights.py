import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import bergman
from convlab.errors import InvalidParam, UnknownName
from convlab.geometry import AffineFiberMap, fiber, full_space
from convlab.prekopa import marginal_transform
from convlab.weights import (
    RadialProfile,
    SphereSeam,
    WeightField,
    constant_weight,
    convex_localizer,
    lemma3_weight,
    stock_weight,
    psh_localizer,
    weight_from_fn,
)

MOVING = AffineFiberMap.through(0.0, 0.0, 1.0, 1.0)  # a(t) = t
ORIGIN2 = AffineFiberMap.constant((0.0, 0.0), base_rdim=0)


def slices(w, t):
    """The weight's seams at t as (center list, radius) pairs."""
    return [(list(c), r) for (c, r) in w.fiber_seams(t)]


class TestConvexLocalizer:
    def test_value_at_the_anchor(self):
        psi = convex_localizer(8, MOVING)
        np.testing.assert_allclose(psi.at((0.3,), (0.3,)), math.log(2.0 / 8.0), rtol=1e-14)

    def test_flat_inside_the_small_ball(self):
        psi = convex_localizer(8, MOVING)
        assert psi.at((0.3,), (0.3 + 0.1,)) == psi.at((0.3,), (0.3,))

    def test_linear_growth_past_the_seam(self):
        psi = convex_localizer(8, MOVING)
        expect = 64.0 * 0.1 + math.log(0.25)
        np.testing.assert_allclose(psi.at((0.3,), (0.3 + 1.0 / 8.0 + 0.1,)), expect, rtol=1e-13)

    def test_lower_bound_is_attained(self):
        psi = convex_localizer(8, MOVING)
        assert psi.lower_bound == psi.at((0.0,), (0.0,))

    def test_seams_follow_the_anchor(self):
        psi = convex_localizer(8, MOVING)
        assert slices(psi, (0.3,)) == [([0.3], 0.125)]

    def test_envelope_rate_is_k_squared(self):
        psi = convex_localizer(16, MOVING)
        assert psi.decay_rate == 256.0

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_must_be_positive(self, k):
        with pytest.raises(InvalidParam):
            convex_localizer(k, MOVING)


class TestPshLocalizer:
    def test_value_at_the_center(self):
        psi = psh_localizer(8, ORIGIN2)
        np.testing.assert_allclose(psi.at((), (0.0, 0.0)), math.log(math.pi / 64.0), rtol=1e-14)

    def test_log_cone_outside(self):
        psi = psh_localizer(8, ORIGIN2)
        expect = 8.0 * math.log(8.0 * 0.25) + math.log(math.pi / 64.0)
        np.testing.assert_allclose(psi.at((), (0.25, 0.0)), expect, rtol=1e-13)

    def test_circle_seam_at_one_over_k(self):
        psi = psh_localizer(8, ORIGIN2)
        assert slices(psi, ()) == [([0.0, 0.0], 0.125)]

    def test_center_map_needs_one_complex_fiber_coordinate(self):
        with pytest.raises(InvalidParam, match="packed fiber reals"):
            psh_localizer(8, AffineFiberMap.constant((0.0,), base_rdim=0))


class TestStockWeights:
    def test_dent_weight_values(self):
        dent = stock_weight("prekopa_cex", 0.1)
        assert dent.at((0.0,), (0.1,)) == 0.0
        np.testing.assert_allclose(dent.at((0.2,), (0.0,)), 0.03, rtol=1e-15)
        (c, r), = dent.fiber_seams((0.0,))
        np.testing.assert_allclose((c[0] - r, c[0] + r), (-0.1, 0.1))

    def test_dent_seam_disappears_outside(self):
        dent = stock_weight("prekopa_cex", 0.1)
        assert dent.fiber_seams((0.3,)) == ()

    def test_radial_dome_weight(self):
        bc = stock_weight("berndtsson_cex", 0.3)
        assert bc.base_rdim == 2 and bc.fiber_rdim == 2
        np.testing.assert_allclose(
            bc.at((0.0, 0.0), (0.0, 0.0)), 1.5 * math.log(1.09), rtol=1e-14
        )

    def test_min_principle_weight(self):
        mp = stock_weight("minprinciple_cex")
        np.testing.assert_allclose(mp.at((0.0,), (0.0,)), 1.0)
        assert mp.at((0.0,), (1.0,)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            stock_weight("nothing_here", 0.1)

    def test_eps_is_required_and_checked(self):
        with pytest.raises(InvalidParam):
            stock_weight("prekopa_cex")
        with pytest.raises(InvalidParam):
            stock_weight("berndtsson_cex", 1.5)

    def test_log_cone_weight(self):
        w = lemma3_weight(10, 0.5)
        assert w.at((), (0.25, 0.0)) == 0.0
        np.testing.assert_allclose(w.at((), (1.0, 0.0)), 10.0 * math.log(2.0), rtol=1e-14)
        assert slices(w, ()) == [([0.0, 0.0], 0.5)]


class TestWeightAlgebra:
    def test_sum_adds_values_and_bounds(self):
        psi = convex_localizer(8, MOVING)
        both = psi + constant_weight(2.0, 1, 1)
        np.testing.assert_allclose(both.at((0.3,), (0.3,)), math.log(0.25) + 2.0, rtol=1e-14)
        np.testing.assert_allclose(both.lower_bound, psi.lower_bound + 2.0, rtol=1e-14)

    def test_sum_concatenates_seams(self):
        dent = stock_weight("prekopa_cex", 0.1)
        psi = convex_localizer(8, MOVING)
        seams = slices(dent + psi, (0.05,))
        for s in slices(dent, (0.05,)) + slices(psi, (0.05,)):
            assert s in seams

    def test_adding_a_constant_keeps_the_radial_route(self):
        psi = convex_localizer(8, MOVING)
        assert (psi + constant_weight(1.0, 1, 1)).radial_fn is not None

    def test_envelope_survives_a_bounded_mate(self):
        # A mate sharing the anchor but carrying no decay of its own only
        # shifts the linear lower bound by its own bound.
        psi = convex_localizer(8, MOVING)
        mate = weight_from_fn(
            lambda p: -math.exp(-abs(p[1] - p[0])),
            1,
            1,
            lower_bound=-1.0,
            radial_center=MOVING,
            radial_fn=lambda t, r: -math.exp(-r),
        )
        assert (psi + mate).decay_rate == 64.0

    def test_envelope_dropped_when_the_anchor_is_lost(self):
        psi = convex_localizer(8, MOVING)
        mate = weight_from_fn(lambda p: 0.0, 1, 1, lower_bound=-1.0)
        summed = psi + mate
        assert summed.radial_fn is None
        assert summed.decay_rate is None

    def test_a_constant_is_bounded_below_by_its_value(self):
        # a sum keeps its mate's decay rate only beside a lower bound
        with pytest.raises(InvalidParam, match="lower bound"):
            dataclasses.replace(constant_weight(1.0, 1, 1), lower_bound=None)

    def test_infinite_value_short_circuits(self):
        hard = weight_from_fn(lambda p: math.inf, 1, 1)
        assert (hard + constant_weight(5.0, 1, 1))((0.0, 0.0)) == math.inf

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParam):
            constant_weight(0.0, 1, 1) + constant_weight(0.0, 0, 2)

    def test_seam_of_another_split_rejected(self):
        # a 0+2 center map on a 1+1 weight: its kink or decay would never be seen
        with pytest.raises(InvalidParam, match="center of split"):
            weight_from_fn(lambda p: 0.0, 1, 1,
                           seams=(SphereSeam(AffineFiberMap.constant((0.0, 0.0), 0), 0.5),))
        with pytest.raises(InvalidParam, match="center of split"):
            weight_from_fn(lambda p: 0.0, 1, 1,
                           seams=(SphereSeam(MOVING, 0.5, base_center=(0.0, 0.0)),))
        with pytest.raises(InvalidParam, match="center of split"):
            weight_from_fn(lambda p: 0.0, 1, 1,
                           radial_center=AffineFiberMap.constant((0.0, 0.0), 0),
                           radial_fn=lambda t, r: 0.0)

    def test_packed_point_dimension_guard(self):
        with pytest.raises(InvalidParam):
            constant_weight(0.0, 1, 1)((0.0, 0.0, 0.0))


class TestSphereSeam:
    def test_a_fixed_sphere_slices_by_the_base_offset(self):
        seam = SphereSeam(AffineFiberMap.constant((0.5,), 2), 0.5, base_center=(0.1, -0.2))
        c, r = seam.in_fiber(np.array([0.3, 0.1]))
        assert c == (0.5,)
        assert r == math.sqrt(0.5 * 0.5 - ((0.3 - 0.1) ** 2 + (0.1 + 0.2) ** 2))

    def test_a_tangent_fiber_has_no_slice(self):
        seam = SphereSeam(AffineFiberMap.constant((0.0,), 2), 0.5, base_center=(0.0, 0.0))
        assert seam.in_fiber(np.array([0.5, 0.0])) is None


class TestFiberSeams:
    """``fiber_seams`` binds t as a tuple of Python floats."""

    DENTS = {
        "prekopa_cex": stock_weight("prekopa_cex", 0.3),
        "minprinciple_cex": stock_weight("minprinciple_cex"),
        "berndtsson_cex": stock_weight("berndtsson_cex", 0.3),
    }

    @pytest.mark.parametrize("name", sorted(DENTS))
    @pytest.mark.parametrize("t", [1e200, -1e200, 1.7e308])
    def test_a_huge_base_point_has_no_seam_and_warns_nothing(self, name, t):
        # the square of the offset leaves the float range: no slice
        w = self.DENTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w.fiber_seams((t,) * w.base_rdim) == ()

    @pytest.mark.parametrize("name", sorted(DENTS))
    def test_same_seams_as_with_an_ndarray_base_point(self, name):
        w = self.DENTS[name]
        rng = np.random.default_rng(7)
        sweep = [*np.linspace(-1.5, 1.5, 301), *rng.uniform(-1.5, 1.5, 2000),
                 0.3, math.nextafter(0.3, 0.0), 1.0, math.nextafter(1.0, 0.0), 1e200]
        for s in sweep:
            t = (float(s), 0.5 * float(s))[:w.base_rdim]
            arr = np.array(t)
            with np.errstate(over="ignore"):
                want = [sl for sl in (seam.in_fiber(arr) for seam in w.seams) if sl is not None]
            got = w.fiber_seams(t)
            assert [(c, r.hex()) for (c, r) in got] == \
                [(c, float(r).hex()) for (c, r) in want]


class TestRadialProfile:
    def test_seam_radii_need_a_seam_centered_exactly_on_the_radial_center(self, monkeypatch):
        # kernel_curve's radial route hands the profile the radii of the
        # seams about a(tau) and no others; the localizer adds 1/8.
        a = AffineFiberMap.complex_affine(0.5)
        profiles = []
        moments = bergman.radial_moments
        monkeypatch.setattr(bergman, "radial_moments",
                            lambda prof, n: profiles.append(prof) or moments(prof, n))

        def seam_radii(seam):
            w = weight_from_fn(lambda p: 0.0, 2, 2, seams=(seam,),
                               radial_center=a, radial_fn=lambda t, r: 0.0)
            bergman.kernel_curve(w, full_space((1, 1), "complex"), a, 8, [(0.1, 0.0)])
            return profiles.pop().seam_radii

        def fixed(c):
            return SphereSeam(AffineFiberMap.constant((c, 0.0), 2), 0.3, base_center=(0.0, 0.0))

        assert seam_radii(fixed(0.5)) == pytest.approx((math.sqrt(0.08), 0.125))
        assert seam_radii(fixed(0.5 + 3e-6)) == (0.125,)
        assert seam_radii(SphereSeam(AffineFiberMap.complex_affine(0.6), 0.2)) == (0.125,)

    def test_seams_outside_the_cutoff_are_dropped(self):
        rp = RadialProfile(fn=lambda r: r, cutoff=1.0, seam_radii=(0.5, 1.5, -0.2, 0.0))
        assert rp.seam_radii == (0.5,)

    # Every radial catalog weight, and whether fn and radial_fn compute the
    # same expression from the same distance (then they agree bit for bit).
    # logshell measures with math.hypot and berndtsson_cex adds the squares of
    # t to those of x, where the test takes the root of the sum of squares.
    RADIAL_CATALOG = {
        "cone2": (convex_localizer(8, MOVING), True),
        "logcone": (psh_localizer(3, AffineFiberMap.complex_affine(0.1, 0.5)), True),
        "logshell": (lemma3_weight(10, 0.5), False),
        "prekopa_cex": (stock_weight("prekopa_cex", eps=0.3), True),
        "berndtsson_cex": (stock_weight("berndtsson_cex", eps=0.3), False),
        "minprinciple_cex": (stock_weight("minprinciple_cex"), True),
    }

    @pytest.mark.parametrize("name", sorted(RADIAL_CATALOG))
    def test_fn_matches_radial_fn(self, name):
        w, exact = self.RADIAL_CATALOG[name]
        rng = np.random.default_rng(7)
        for p in rng.uniform(-1.2, 1.2, size=(64, w.rdim)):
            t, x = p[:w.base_rdim], p[w.base_rdim:]
            r = _distance(*(x - w.radial_center.at(t)).tolist())
            if exact:
                assert w.fn(p) == w.radial_fn(t, r)
            else:
                np.testing.assert_allclose(w.fn(p), w.radial_fn(t, r), rtol=1e-14, atol=1e-15)


def _square_of_x(p):
    x = float(p[-1])
    return x * x


def _distance(*d) -> float:
    """|d|: the square root of the sum of squares, left to right."""
    total = 0.0
    for v in d:
        total += v * v
    return math.sqrt(total)


def _cone(w, k, r):
    """The quadratic cone ``k^2 max(r - 1/k, 0)`` on the localizer's lower bound."""
    return k * k * max(r - 1.0 / k, 0.0) + w.lower_bound


def _log_cone(w, k, r):
    """The log cone ``k max(log(k r), 0)`` on the localizer's lower bound."""
    return k * math.log(k * r) + w.lower_bound if k * r > 1.0 else w.lower_bound


def _with_reference(w, reference):
    return w, lambda p: reference(w, *p)


# Catalog weights by coordinate split, each with its formula on a packed point
# written out here, apart from the catalog: the dents, the cones about their
# moving centers, the constants, and one weight from a bare function (its own
# packed formula), whose restriction packs (t, x).
RESTRICTION_PARTS = {
    (1, 1): [
        _with_reference(stock_weight("prekopa_cex", eps=0.3),
                        lambda w, t, x: abs(t * t + x * x - 0.3 * 0.3)),
        _with_reference(stock_weight("minprinciple_cex"),
                        lambda w, t, x: abs(t * t + x * x - 1.0)),
        _with_reference(convex_localizer(8, MOVING),  # about a(t) = t
                        lambda w, t, x: _cone(w, 8, _distance(x - t))),
        _with_reference(convex_localizer(3, AffineFiberMap.constant(0.4, base_rdim=1)),
                        lambda w, t, x: _cone(w, 3, _distance(x - 0.4))),
        _with_reference(constant_weight(-1.5, 1, 1), lambda w, t, x: -1.5),
        _with_reference(weight_from_fn(_square_of_x, 1, 1, lower_bound=0.0),
                        lambda w, *p: _square_of_x(p)),
    ],
    (2, 2): [
        _with_reference(stock_weight("berndtsson_cex", eps=0.3),
                        lambda w, t0, t1, x0, x1: 1.5 * math.log1p(
                            abs((t0 * t0 + t1 * t1) + (x0 * x0 + x1 * x1) - 0.3 * 0.3))),
        _with_reference(psh_localizer(3, AffineFiberMap.complex_affine(0.1, 0.5)),
                        # about a(tau) = 0.1 + 0.5 tau
                        lambda w, t0, t1, x0, x1: _log_cone(
                            w, 3, _distance(x0 - (0.1 + 0.5 * t0), x1 - 0.5 * t1))),
        _with_reference(constant_weight(0.25, 2, 2), lambda w, *p: 0.25),
        _with_reference(weight_from_fn(_square_of_x, 2, 2, lower_bound=0.0),
                        lambda w, *p: _square_of_x(p)),
    ],
    (0, 2): [
        _with_reference(lemma3_weight(10, 0.5),  # |z| is C's hypot, as abs() takes it
                        lambda w, x0, x1: 10 * math.log(abs(complex(x0, x1)) / 0.5)
                        if abs(complex(x0, x1)) > 0.5 else 0.0),
        _with_reference(psh_localizer(4, ORIGIN2),
                        lambda w, x0, x1: _log_cone(w, 4, _distance(x0, x1))),
        _with_reference(constant_weight(2.0, 0, 2), lambda w, *p: 2.0),
        _with_reference(weight_from_fn(_square_of_x, 0, 2, lower_bound=0.0),
                        lambda w, *p: _square_of_x(p)),
    ],
}

# a seeded uniform draw has a full mantissa, where two rounding orders part;
# hypothesis's own floats lean to short ones
_dense = st.integers(0, 2**32 - 1).map(
    lambda seed: float(np.random.default_rng(seed).uniform(-4.0, 4.0)))
_coordinate = st.one_of(_dense, st.floats(-1e308, 1e308))


@st.composite
def _restriction_cases(draw):
    split = draw(st.sampled_from(sorted(RESTRICTION_PARTS)))
    parts = draw(st.lists(st.sampled_from(RESTRICTION_PARTS[split]), min_size=1, max_size=3))
    w = parts[0][0]
    for part, _ in parts[1:]:
        w = w + part
    t = np.array(draw(st.lists(_coordinate, min_size=split[0], max_size=split[0])))
    xs = draw(st.lists(st.lists(_coordinate, min_size=split[1], max_size=split[1]),
                       min_size=1, max_size=4))
    return w, [reference for _, reference in parts], t, [np.array(x) for x in xs]


class TestFiberRestriction:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_restriction_cases())
    def test_restriction_matches_the_formula_bit_for_bit(self, case):
        # The sum of the parts' formulas, left to right; no part is ever -inf
        # or NaN, so inf + finite is the sum's short-circuit to +inf.
        w, references, t, xs = case
        fib = fiber(full_space(split=(w.base_rdim, w.fiber_rdim)), t)
        # squares of a base point near 1e308 overflow to +inf on both routes
        with np.errstate(over="ignore", invalid="ignore"):
            restricted = w.on_fiber(fib)
            for x in xs:
                p = np.concatenate((t, x))
                want = references[0](p.tolist())
                for reference in references[1:]:
                    want = want + reference(p.tolist())
                for got in (restricted(x), w.fn(p)):
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                        (t, x, got, want)

    def test_catalog_sums_never_pack_the_point(self, monkeypatch):
        sums = [
            (stock_weight("prekopa_cex", eps=0.3) + convex_localizer(8, MOVING)
             + constant_weight(1.0, 1, 1), (0.2,), (0.5,)),
            (stock_weight("berndtsson_cex", eps=0.3)
             + psh_localizer(3, AffineFiberMap.complex_affine(0.1, 0.5))
             + constant_weight(0.25, 2, 2), (0.2, -0.1), (0.5, 0.3)),
        ]
        restricted = [(w.on_fiber(fiber(full_space(split=(w.base_rdim, w.fiber_rdim)), t)),
                       x, w.at(t, x)) for w, t, x in sums]

        def packed(*args, **kwargs):
            raise AssertionError("the restriction packed (t, x)")

        # a point reaches a restriction as a tuple of floats, as quadrature
        # passes it; packing it would need numpy
        for name in ("array", "asarray", "concatenate", "hstack"):
            monkeypatch.setattr(np, name, packed)
        for weight, x, want in restricted:
            assert weight(x) == want

    def test_fn_follows_the_restriction_and_cannot_be_replaced(self):
        w = weight_from_fn(lambda p: 1.0, 1, 1)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(w, fn=lambda p: 2.0)
        moved = dataclasses.replace(w, restrict=lambda t: lambda x: 2.0)
        on_fiber = moved.on_fiber(fiber(full_space(split=(1, 1)), 0.2))
        assert moved.fn(np.array([0.2, 0.5])) == moved.at((0.2,), (0.5,)) \
            == on_fiber(np.array([0.5])) == 2.0

    def test_a_bare_function_part_is_called_once_per_point(self):
        calls = []

        def square(p):
            calls.append(p)
            return float(p[1]) ** 2

        w = weight_from_fn(square, 1, 1, lower_bound=0.0) + convex_localizer(8, MOVING) \
            + stock_weight("prekopa_cex", eps=0.3)
        restricted = w.on_fiber(fiber(full_space(split=(1, 1)), 0.2))
        for x in (-0.7, 0.1, 2.0):
            restricted((x,))
        assert [(type(p), *map(type, p)) for p in calls] == [(tuple, float, float)] * 3
        assert calls == [(0.2, -0.7), (0.2, 0.1), (0.2, 2.0)]

    def test_on_fiber_binds_t_as_a_tuple_of_floats(self):
        seen = []

        def restrict(t):
            seen.append(t)
            return lambda x: 0.0

        w = WeightField(restrict=restrict, base_rdim=2, fiber_rdim=1)
        fib = fiber(full_space(split=(2, 1)), np.array([0.25, -1.5]))
        w.on_fiber(fib)
        w.fiber_density(fib)
        assert [(type(t), *map(type, t)) for t in seen] == [(tuple, float, float)] * 2
        assert seen == [(0.25, -1.5)] * 2

    def test_a_packed_point_reaches_the_restriction_as_floats(self):
        seen = []

        def restrict(t):
            seen.append((type(t), *map(type, t)))

            def weight(x):
                seen.append((type(x), *map(type, x)))
                return t[0] * t[0] + x[0] * x[0]
            return weight

        w = WeightField(restrict=restrict, base_rdim=1, fiber_rdim=1)
        assert w(np.array([0.5, 0.25])) == w.at(0.5, (np.float32(0.25),)) == 0.3125
        assert seen == [(tuple, float)] * 4
        with warnings.catch_warnings():  # Python floats square to inf silently
            warnings.simplefilter("error")
            assert w.at(1e200, 0.0) == math.inf

    def test_a_marginal_hands_its_restriction_floats_only(self):
        # t once per fiber, and every quadrature point x, as tuples of floats
        seen = set()

        def restrict(t):
            seen.add((type(t), *map(type, t)))

            def weight(x):
                seen.add((type(x), *map(type, x)))
                return (t[0] - x[0]) ** 2
            return weight

        w = dataclasses.replace(stock_weight("prekopa_cex", eps=0.3), restrict=restrict)
        np.testing.assert_allclose(marginal_transform(w, full_space(split=(1, 1)), 0.4),
                                   -0.5 * math.log(math.pi), rtol=1e-12)
        assert seen == {(tuple, float)}

    @pytest.mark.parametrize("split", [(0, 1), (1, 1), (0, 2), (2, 2)])
    def test_a_bare_function_receives_an_ndarray(self, split):
        seen = []

        def fn(p):
            seen.append((type(p), *map(type, p), p))
            return float(p[-1]) ** 2

        w = weight_from_fn(fn, *split, lower_bound=0.0)
        fib = fiber(full_space(split=split), (0.5,) * split[0])
        w.fiber_density(fib)((0.25,) * split[1])
        w.on_fiber(fib)((0.25,) * split[1])
        point = (0.5,) * split[0] + (0.25,) * split[1]
        assert seen == [(tuple, *(float,) * len(point), point)] * 2

    def test_fiber_density_is_zero_where_the_weight_is_infinite(self):
        w = weight_from_fn(lambda p: math.inf if p[1] > 1.0 else float(p[1]), 1, 1)
        density = w.fiber_density(fiber(full_space(split=(1, 1)), 0.2))
        assert density(np.array([2.0])) == 0.0
        assert density(np.array([0.5])) == math.exp(-0.5)
