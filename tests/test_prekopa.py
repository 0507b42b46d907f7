"""Marginal transforms: forward convexity, localization, and the failures."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convlab
from convlab.bergman import bergman_gram
from convlab.errors import InvalidParam, NonConvergent
from convlab.geometry import (AffineFiberMap, ball_domain, box_domain, disc_region,
                              dumbbell, full_space, punctured_ball)
from convlab.prekopa import (
    convexity_check,
    dent_marginal_closed,
    infimum_over_fiber,
    localization_rows,
    marginal_transform,
    midpoint_divergence_probe,
    min_principle_transform,
    sample_marginal_curve,
    twisted_marginal,
)
from convlab.scenarios import load_defaults, run_scenario, scenario_names
from convlab.weights import (WeightField, constant_weight, convex_localizer, stock_weight,
                             weight_from_fn)

STRIP = full_space(split=(1, 1))
ANCHOR_ZERO = AffineFiberMap.constant(0.0, base_rdim=1)
MOVING = AffineFiberMap.through(0.0, 0.0, 1.0, 1.0)

LOG_SQRT_PI = 0.5 * math.log(math.pi)


def quadratic_weight():
    return weight_from_fn(lambda p: p[0] ** 2 + p[1] ** 2, 1, 1, lower_bound=0.0)


class TestForwardTransform:
    def test_separable_quadratic(self):
        w = quadratic_weight()
        for t in (0.0, 0.4, -1.1):
            got = marginal_transform(w, STRIP, t)
            np.testing.assert_allclose(got, t * t - LOG_SQRT_PI, rtol=1e-10)

    def test_constant_shift(self):
        w = quadratic_weight()
        shifted = w + constant_weight(1.7, 1, 1)
        np.testing.assert_allclose(
            marginal_transform(shifted, STRIP, 0.3),
            marginal_transform(w, STRIP, 0.3) + 1.7,
            rtol=1e-12,
        )

    HUGE_T_WEIGHTS = {
        "dent": stock_weight("prekopa_cex", eps=0.1),
        "twisted": stock_weight("prekopa_cex", eps=0.1) + convex_localizer(8, MOVING),
        # a packed function squares Python floats, which raise OverflowError
        "packed-function": weight_from_fn(lambda p: float(p[0] ** 2 + p[1] ** 2), 1, 1,
                                          lower_bound=0.0),
    }

    @pytest.mark.parametrize("name", sorted(HUGE_T_WEIGHTS))
    @pytest.mark.parametrize("t", [2.5e307, 1e200])
    def test_huge_base_point_warns_nothing(self, name, t):
        # the restriction squares t, and that square overflows; the weight is
        # +inf on the whole fiber and the mass is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert marginal_transform(self.HUGE_T_WEIGHTS[name], STRIP, t) == math.inf

    def test_huge_base_point_outside_a_ball_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert marginal_transform(constant_weight(0.0, 1, 1), ball_domain((1, 1)),
                                      1e200) == math.inf

    def test_empty_fiber_gives_infinity(self):
        dom = ball_domain(split=(1, 1), radius=1.0)
        assert marginal_transform(constant_weight(0.0, 1, 1), dom, 2.0) == math.inf

    def test_curve_sampling_and_csv(self):
        w = quadratic_weight()
        crv = sample_marginal_curve(w, STRIP, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            crv.values, [t * t - LOG_SQRT_PI for t in (0.0, 0.5, 1.0)], rtol=1e-10
        )
        text = crv.to_csv()
        assert text.startswith("t,value\n")
        assert len(text.strip().split("\n")) == 4


class TestDentMarginal:
    """The radial dent |t^2 + x^2 - eps^2| keeps a convex marginal."""

    EPS = 0.1

    def test_outside_branch_closed_form(self):
        for t in (0.15, 0.3, 1.0):
            np.testing.assert_allclose(
                dent_marginal_closed(t, self.EPS),
                t * t - self.EPS ** 2 - LOG_SQRT_PI,
                rtol=1e-13,
            )

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.09, 0.15, 1.0])
    def test_closed_form_matches_quadrature(self, t):
        w = stock_weight("prekopa_cex", self.EPS)
        np.testing.assert_allclose(
            marginal_transform(w, STRIP, t),
            dent_marginal_closed(t, self.EPS),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_seam_is_c1_with_slope_two_eps(self):
        # The inside branch has a sqrt(h)-sized quotient error near the seam,
        # so the tolerance is deliberately coarse.
        h = 1e-5
        eps = self.EPS
        left = (dent_marginal_closed(eps, eps) - dent_marginal_closed(eps - h, eps)) / h
        right = (dent_marginal_closed(eps + h, eps) - dent_marginal_closed(eps, eps)) / h
        np.testing.assert_allclose(left, 2 * eps, atol=1e-3)
        np.testing.assert_allclose(right, 2 * eps, atol=1e-3)

    def test_sampled_curve_is_convex(self):
        w = stock_weight("prekopa_cex", self.EPS)
        ts = np.linspace(-0.3, 0.3, 61)
        crv = sample_marginal_curve(w, STRIP, ts)
        rep = convexity_check(crv.ts, crv.values, tol=1e-7)
        assert rep.verdict
        assert rep.checked > 0


class TestMeasureZeroInsensitivity:
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_puncturing_the_domain_changes_nothing(self, t):
        w = stock_weight("prekopa_cex", 0.1)
        whole = marginal_transform(w, ball_domain((1, 1)), t)
        punctured = marginal_transform(w, punctured_ball((1, 1)), t)
        assert whole == punctured


class TestConvexityCheck:
    def test_detects_a_dent(self):
        ts = np.linspace(-1.0, 1.0, 21)
        values = ts ** 2
        values[10] += 0.5
        rep = convexity_check(ts, values, tol=1e-9)
        assert not rep.verdict
        assert rep.worst_violation > 0.4
        assert rep.witness is not None

    def test_accepts_affine(self):
        ts = np.linspace(0.0, 1.0, 11)
        rep = convexity_check(ts, 2.0 * ts + 3.0)
        assert rep.verdict
        assert rep.worst_violation <= 1e-12  # roundoff only

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(InvalidParam):
            convexity_check([0.0, 0.1, 0.3], [0.0, 0.0, 0.0])

    def test_infinite_chords_are_skipped(self):
        # An infinite endpoint says nothing about the midpoint, so the pair
        # is skipped; an infinite midpoint over a finite chord is a violation.
        ts = np.linspace(0.0, 1.0, 5)
        rep = convexity_check(ts, [math.inf, 0.0, 0.0, 0.0, math.inf])
        assert rep.skipped == 3
        assert rep.checked == 1
        assert rep.verdict

    def test_infinite_midpoint_is_flagged(self):
        ts = np.linspace(0.0, 1.0, 3)
        rep = convexity_check(ts, [0.0, math.inf, 0.0])
        assert not rep.verdict
        assert rep.worst_violation == math.inf

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_is_rejected(self, tol):
        with pytest.raises(InvalidParam):
            convexity_check(np.linspace(0.0, 1.0, 3), [0.0, 0.5, 1.0], tol=tol)

    @pytest.mark.parametrize("ts", [[math.nan, 0.0, 1.0], [0.0, 1.0, math.inf],
                                    [-math.inf, 0.0, math.inf]])
    def test_non_finite_grid_point_is_rejected(self, ts):
        with pytest.raises(InvalidParam, match="grid points must be finite"):
            convexity_check(ts, [0.0, 1.0, 4.0])

    def test_minus_infinity_value_is_rejected(self):
        with pytest.raises(InvalidParam, match="-inf"):
            convexity_check([0.0, 1.0, 2.0], [0.0, -math.inf, 4.0])

    def test_chord_near_the_float_maximum_does_not_overflow(self):
        rep = convexity_check([0.0, 1.0, 2.0], [1.7e308, 1.79e308, 1.7e308])
        assert rep.checked == 1
        assert rep.worst_violation == 1.79e308 - 1.7e308
        assert not rep.verdict

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_wider_than_the_float_range_does_not_overflow(self):
        rep = convexity_check([-1.7e308, 0.0, 1.7e308], [0.0, 1.0, 0.0])
        assert (rep.checked, rep.worst_violation, rep.verdict) == (1, 1.0, False)
        with pytest.raises(InvalidParam, match="uniform"):  # steps inf and 1e306
            convexity_check([-1.7e308, 1.7e308, 1.71e308], [0.0, 1.0, 0.0])

    def test_no_checked_triple_fails(self):
        rep = convexity_check([0.0, 1.0, 2.0], [math.inf, 0.0, math.inf])
        assert (rep.checked, rep.skipped) == (0, 1)
        assert not rep.verdict


class TestLocalization:
    def test_flat_identity(self):
        # with nothing else in the weight, the localized marginal is exactly
        # -log(1 + 1/k): the window contributes 2/k and each skirt 1/k^2
        for k in (8, 64):
            psi = convex_localizer(k, ANCHOR_ZERO)
            got = marginal_transform(psi, STRIP, 0.0)
            np.testing.assert_allclose(got, -math.log1p(1.0 / k), rtol=0, atol=1e-10)

    def test_rows_converge_to_the_anchored_value(self):
        w = weight_from_fn(lambda p: p[1] ** 2, 1, 1, lower_bound=0.0)
        rows = localization_rows(w, STRIP, MOVING, (8, 16, 32), 1.0)
        assert [r.k for r in rows] == [8, 16, 32]
        assert all(r.target == 1.0 for r in rows)
        errs = [r.error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        np.testing.assert_allclose(rows[0].value, 0.875460923604, rtol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_target_is_a_numerical_failure(self):
        # x^2 at a(t) = t squares to +inf: no gap to the target can be measured
        w = WeightField(restrict=lambda t: lambda x: x[0] * x[0], base_rdim=1,
                        fiber_rdim=1, lower_bound=0.0)
        with pytest.raises(NonConvergent, match="moving center is inf"):
            localization_rows(w, STRIP, MOVING, (8, 16), 1e200)

    def test_twist_requires_a_certified_bound(self):
        w = quadratic_weight()
        bad = weight_from_fn(lambda p: 0.0, 1, 1)  # no lower bound
        with pytest.raises(InvalidParam):
            twisted_marginal(w, bad, STRIP, 0.0)

    def test_twisted_equals_plain_on_the_sum(self):
        w = quadratic_weight()
        psi = convex_localizer(16, ANCHOR_ZERO)
        np.testing.assert_allclose(
            twisted_marginal(w, psi, STRIP, 0.2),
            marginal_transform(w + psi, STRIP, 0.2),
            rtol=1e-12,
        )


class TestMinPrinciple:
    def test_penalized_infima_at_the_probe_points(self):
        w = stock_weight("minprinciple_cex")
        for t, expect in ((0.0, 1.0), (0.4, 0.84), (0.8, 0.36)):
            got = min_principle_transform(w, STRIP, ANCHOR_ZERO, 64, t)
            np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_midpoint_violation(self):
        w = stock_weight("minprinciple_cex")
        u = lambda t: min_principle_transform(w, STRIP, ANCHOR_ZERO, 64, t)
        violation = u(0.4) - 0.5 * (u(0.0) + u(0.8))
        assert violation >= 0.1

    def test_fiber_infimum_is_the_convex_envelope_floor(self):
        w = stock_weight("minprinciple_cex")
        for t in (0.0, 0.5, 1.0, 2.0):
            _, val = infimum_over_fiber(w, STRIP, t, search_box=((-3.0, 3.0),))
            np.testing.assert_allclose(val, max(t * t - 1.0, 0.0), atol=1e-6)

    def test_k_must_be_positive(self):
        w = stock_weight("minprinciple_cex")
        with pytest.raises(InvalidParam):
            min_principle_transform(w, STRIP, ANCHOR_ZERO, 0, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("w", [
        weight_from_fn(lambda p: float(p[0] ** 2 + p[1] ** 2), 1, 1, lower_bound=0.0),
        convex_localizer(3, MOVING),
    ], ids=["packed-function", "moving-cone"])
    def test_huge_base_point_on_a_bounded_fiber_warns_nothing(self, w):
        # these squares of t = 1e200 leave the float range; the weight is
        # +inf on the whole fiber, which is then the infimum
        dom = box_domain((-1e300, -1.0), (1e300, 1.0), split=(1, 1))
        assert min_principle_transform(w, dom, ANCHOR_ZERO, 1.0, 1e200) == math.inf
        assert infimum_over_fiber(w, dom, 1e200)[1] == math.inf

    HUGE_T_TRANSFORMS = {
        "marginal": lambda w, dom: marginal_transform(w, dom, 1e200),
        "infimum": lambda w, dom: infimum_over_fiber(w, dom, 1e200)[1],
        "min-principle": lambda w, dom: min_principle_transform(w, dom, ANCHOR_ZERO,
                                                                1.0, 1e200),
    }

    @pytest.mark.parametrize("name", sorted(HUGE_T_TRANSFORMS))
    def test_an_overflowing_packed_function_is_infinite_when_bounded_below(self, name):
        # p[0] ** 2 raises OverflowError on floats; a lower bound signs it +inf
        dom = box_domain((-1e300, -1.0), (1e300, 1.0), split=(1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.HUGE_T_TRANSFORMS[name](quadratic_weight(), dom) == math.inf

    @pytest.mark.parametrize("name", sorted(HUGE_T_TRANSFORMS))
    def test_an_overflowing_packed_function_without_a_bound_does_not_converge(self, name):
        w = weight_from_fn(lambda p: p[0] ** 2 + p[1] ** 2, 1, 1)
        dom = box_domain((-1e300, -1.0), (1e300, 1.0), split=(1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="no lower bound"):
                self.HUGE_T_TRANSFORMS[name](w, dom)

    def test_distance_takes_no_blas_dot(self, monkeypatch):
        # on a two-dimensional fiber np.linalg.norm is a BLAS dot, whose bits
        # follow the CPU's kernels; inf_x |x|^2 + |x - (1, 0)| is 3/4 at x = (1/2, 0)
        def no_blas(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")
        monkeypatch.setattr(np.linalg, "norm", no_blas)
        w = weight_from_fn(lambda p: p[0] ** 2 + p[1] ** 2 + p[2] ** 2, 1, 2, lower_bound=0.0)
        anchor = AffineFiberMap.constant((1.0, 0.0), base_rdim=1)
        got = min_principle_transform(w, full_space((1, 2)), anchor, 1.0, 0.5)
        np.testing.assert_allclose(got, 0.25 + 0.75, atol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_anchor_cannot_box_the_search(self):
        # t * t overflows in the dent, so the weight is +inf on the whole fiber
        w = stock_weight("minprinciple_cex")
        with pytest.raises(NonConvergent, match="anchor value is"):
            min_principle_transform(w, STRIP, ANCHOR_ZERO, 64, 1e200)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fiber_infimum_at_a_huge_base_point_is_infinite(self):
        w = stock_weight("minprinciple_cex")
        arg, val = infimum_over_fiber(w, STRIP, 1e200, search_box=((-3.0, 3.0),))
        assert arg == (-3.0,) and val == math.inf


class TestMidpointProbe:
    def test_dumbbell_blows_up(self):
        dom = dumbbell(bulge=0.3, neck=0.02)
        rep = midpoint_divergence_probe(
            constant_weight(0.0, 1, 1), dom, (-1.0, 0.25), (1.0, 0.25)
        )
        assert rep.verdict
        violations = [r.violation for r in rep.rows]
        assert violations[-1] > violations[0]

    def test_round_domain_stays_clean(self):
        dom = ball_domain(split=(1, 1), radius=1.2)
        rep = midpoint_divergence_probe(
            constant_weight(0.0, 1, 1), dom, (-0.5, 0.2), (0.5, 0.2), ks=(8, 16)
        )
        assert not rep.verdict


class TestFiberChecks:
    """Every fiberwise transform checks the weight's split against the domain
    and the size of the base point."""

    BALL = ball_domain(split=(1, 1), radius=1.0)
    TRANSFORMS = ["marginal_transform", "infimum_over_fiber", "min_principle_transform",
                  "midpoint_divergence_probe"]

    @staticmethod
    def calls(w, t):
        """One call per transform, over the ball at base point ``t``."""
        dom = TestFiberChecks.BALL
        p1 = (0.5, 0.0) if np.size(t) == 1 else (0.5, 0.0, 0.0)
        return {
            "marginal_transform": lambda: marginal_transform(w, dom, t),
            "infimum_over_fiber": lambda: infimum_over_fiber(w, dom, t),
            "min_principle_transform":
                lambda: min_principle_transform(w, dom, ANCHOR_ZERO, 1.0, t),
            "midpoint_divergence_probe":
                lambda: midpoint_divergence_probe(w, dom, np.append(t, 0.0), p1, ks=(8,)),
        }

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_weight_of_another_split_rejected(self, name):
        w = weight_from_fn(lambda p: 0.0, 0, 2, lower_bound=0.0)  # (0, 2), not (1, 1)
        with pytest.raises(InvalidParam):
            self.calls(w, -0.5)[name]()

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_base_point_of_the_wrong_size_rejected(self, name):
        with pytest.raises(InvalidParam):
            self.calls(quadratic_weight(), (-0.5, 0.0))[name]()

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_the_same_calls_run_with_a_matching_weight(self, name):
        self.calls(quadratic_weight(), -0.5)[name]()


def _avx512_targets() -> list:
    """numpy's AVX-512 dispatch targets on this host (X86_V4 is AVX-512's
    baseline level)."""
    for mod in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            dispatch = importlib.import_module(mod).__cpu_dispatch__
            break
        except (ImportError, AttributeError):
            continue
    else:
        return []
    return [t for t in dispatch if t == "X86_V4" or t.startswith("AVX512")]


_DENT_MARGINALS = """
import json, sys
from convlab.geometry import full_space
from convlab.prekopa import marginal_transform
from convlab.weights import stock_weight
eps, ts = json.loads(sys.argv[1])
w = stock_weight("prekopa_cex", eps)
print(json.dumps([marginal_transform(w, full_space((1, 1)), t).hex() for t in ts]))
"""


# the ten report digests, then C8's two Gram kernel values (held by no report)
_REPORT_DIGESTS = """
import hashlib, json
from convlab.bergman import bergman_gram
from convlab.geometry import disc_region
from convlab.scenarios import run_scenario, scenario_names
from convlab.weights import constant_weight
print(json.dumps([hashlib.sha256(run_scenario(n).to_json(with_wall_time=False).encode())
                  .hexdigest() for n in scenario_names()]
                 + [bergman_gram(constant_weight(0.0, 0, 2), disc_region(1.0), at=a, degree=16)
                    .hex() for a in (0.0, 0.5)]))
"""


@pytest.fixture(scope="module")
def report_digests():
    return ([hashlib.sha256(run_scenario(n).to_json(with_wall_time=False).encode()).hexdigest()
             for n in scenario_names()]
            + [bergman_gram(constant_weight(0.0, 0, 2), disc_region(1.0), at=a, degree=16).hex()
               for a in (0.0, 0.5)])


def _with_src(**env) -> dict:
    """This process's environment plus ``env``, with convlab's sources on the path."""
    src = str(Path(convlab.__file__).parents[1])
    return dict(os.environ, **env,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestHostIndependence:
    @pytest.mark.skipif(not _avx512_targets(), reason="numpy dispatches no AVX-512 kernel here")
    def test_dent_marginals_keep_their_bits_without_avx512(self):
        # prekopa-cex's sample points and its seam quotient points; the
        # marginals at eps +- h reach the report only through a quotient
        p = load_defaults()["scenarios"]["prekopa-cex"]
        eps, h = p["eps"], p["quotient_h"]
        ts = list(p["sample_ts"]) + [eps - h, eps, eps + h]
        w = stock_weight("prekopa_cex", eps)
        here = [marginal_transform(w, STRIP, t).hex() for t in ts]
        env = _with_src(NPY_DISABLE_CPU_FEATURES=" ".join(_avx512_targets()))
        out = subprocess.run([sys.executable, "-c", _DENT_MARGINALS, json.dumps([eps, ts])],
                             env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == here

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(_avx512_targets())},
    ], ids=["Haswell", "Prescott-below-avx512"])
    def test_every_report_keeps_its_bits_on_another_core(self, env, report_digests):
        # OPENBLAS_CORETYPE picks the BLAS kernels of another CPU family and
        # NPY_DISABLE_CPU_FEATURES caps numpy's dispatch; no GK15 panel calls
        # BLAS, no report takes a numpy ufunc whose bits follow the cap, and
        # the Gram kernel is factored and solved in plain Python.
        out = subprocess.run([sys.executable, "-c", _REPORT_DIGESTS], env=_with_src(**env),
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == report_digests
