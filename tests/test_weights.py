import math

import numpy as np
import pytest

from convlab.errors import InvalidParam, UnknownName
from convlab.geometry import AffineFiberMap
from convlab.weights import (
    RadialProfile,
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
        np.testing.assert_allclose(psi.fiber_point_seams((0.3,)), (0.3 - 0.125, 0.3 + 0.125))

    def test_envelope_rate_is_k_squared(self):
        psi = convex_localizer(16, MOVING)
        assert psi.envelope is not None
        assert psi.envelope[0] == 256.0

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
        assert psi.fiber_circle_seams(()) == ((0.0, 0.0, 0.125),)


class TestStockWeights:
    def test_dent_weight_values(self):
        dent = stock_weight("prekopa_cex", 0.1)
        assert dent.at((0.0,), (0.1,)) == 0.0
        np.testing.assert_allclose(dent.at((0.2,), (0.0,)), 0.03, rtol=1e-15)
        np.testing.assert_allclose(dent.fiber_point_seams((0.0,)), (-0.1, 0.1))

    def test_dent_seam_disappears_outside(self):
        dent = stock_weight("prekopa_cex", 0.1)
        assert dent.fiber_point_seams((0.3,)) == ()

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
        assert w.seam_radii_at(()) == (0.5,)


class TestWeightAlgebra:
    def test_sum_adds_values_and_bounds(self):
        psi = convex_localizer(8, MOVING)
        both = psi + constant_weight(2.0, 1, 1)
        np.testing.assert_allclose(both.at((0.3,), (0.3,)), math.log(0.25) + 2.0, rtol=1e-14)
        np.testing.assert_allclose(both.lower_bound, psi.lower_bound + 2.0, rtol=1e-14)

    def test_sum_concatenates_seams(self):
        dent = stock_weight("prekopa_cex", 0.1)
        psi = convex_localizer(8, MOVING)
        seams = (dent + psi).fiber_point_seams((0.05,))
        for s in dent.fiber_point_seams((0.05,)) + psi.fiber_point_seams((0.05,)):
            assert s in seams

    def test_adding_a_constant_keeps_the_radial_route(self):
        psi = convex_localizer(8, MOVING)
        assert (psi + constant_weight(1.0, 1, 1)).radial_fn is not None

    def test_envelope_survives_a_bounded_mate(self):
        # A mate sharing the anchor but carrying no envelope of its own only
        # pushes the certified decay radius outward by |bound| / rate.
        psi = convex_localizer(8, MOVING)
        mate = weight_from_fn(
            lambda p: -math.exp(-abs(p[1] - p[0])),
            1,
            1,
            lower_bound=-1.0,
            radial_center=MOVING,
            radial_fn=lambda t, r: -math.exp(-r),
        )
        env = (psi + mate).envelope
        assert env is not None
        assert env[0] == 64.0
        np.testing.assert_allclose(env[1], psi.envelope[1] + 1.0 / 64.0, rtol=1e-14)

    def test_envelope_dropped_when_the_anchor_is_lost(self):
        psi = convex_localizer(8, MOVING)
        mate = weight_from_fn(lambda p: 0.0, 1, 1, lower_bound=-1.0)
        summed = psi + mate
        assert summed.radial_fn is None
        assert summed.envelope is None

    def test_infinite_value_short_circuits(self):
        hard = weight_from_fn(lambda p: math.inf, 1, 1)
        assert (hard + constant_weight(5.0, 1, 1))((0.0, 0.0)) == math.inf

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParam):
            constant_weight(0.0, 1, 1) + constant_weight(0.0, 0, 2)

    def test_packed_point_dimension_guard(self):
        with pytest.raises(InvalidParam):
            constant_weight(0.0, 1, 1)((0.0, 0.0, 0.0))


class TestRadialProfile:
    def test_seams_outside_the_cutoff_are_dropped(self):
        rp = RadialProfile(fn=lambda r: r, cutoff=1.0, seam_radii=(0.5, 1.5, -0.2, 0.0), label="x")
        assert rp.seam_radii == (0.5,)

    def test_profile_at_matches_the_field(self):
        w = lemma3_weight(10, 0.5)
        prof = w.profile_at(())
        np.testing.assert_allclose(prof(1.0), w.at((), (1.0, 0.0)), rtol=1e-15)
