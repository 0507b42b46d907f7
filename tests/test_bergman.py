"""Weighted kernel diagnostics: moment tables, Gram kernels, dome weight."""

import math
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest

from convlab import bergman
from convlab.errors import (IllConditioned, InvalidParam, MethodUnavailable, NonConvergent,
                            ZeroKernel)
from convlab.geometry import (AffineFiberMap, Ball, Domain, Intersection, bidisc, disc_region,
                              fiber, full_space, hartogs_figure, plane_region, punctured_ball)
from convlab.prekopa import dent_marginal_closed
from convlab.weights import (RadialProfile, constant_weight, lemma3_weight, psh_localizer,
                             stock_weight)
from convlab.bergman import (
    GramKernel,
    bergman_gram,
    bergman_radial,
    berndtsson_inner_laplacian,
    berndtsson_m0_closed,
    berndtsson_phi_closed,
    berndtsson_phi_curve,
    berndtsson_profile,
    gram_kernel,
    kernel_curve,
    laplacian_check,
    lemma2_harness,
    lemma3_harness,
    psh_mean_value_check,
    radial_moments,
)

FLAT_DISC = RadialProfile(fn=lambda r: 0.0, cutoff=1.0, seam_radii=())
EPS = 0.3

# closed-form values, frozen from independent high-precision evaluation
M0_TABLE = {
    0.0: 6.548170572227231,
    0.15: 6.485077641681522,
    0.3: 2.0 * math.pi,
    0.6: 5.57542538219349,
}
PHI_TABLE = {0.0: -1.8791857086850656, 0.6: -1.7183686161740954}
LAPLACIAN_TABLE = {
    0.0: 0.42158984569982927,
    0.1: 0.4370862092846625,
    0.2: 0.48794507468224624,
}


class TestRadialMoments:
    def test_flat_disc_moments(self):
        mt = radial_moments(FLAT_DISC, 4)
        np.testing.assert_allclose(
            mt.values, [math.pi / (j + 1) for j in range(5)], rtol=1e-12
        )
        assert all(s == "finite" for s in mt.statuses)

    def test_flat_plane_diverges(self):
        plane = RadialProfile(fn=lambda r: 0.0, cutoff=math.inf, seam_radii=())
        mt = radial_moments(plane, 2)
        assert all(s == "divergent" for s in mt.statuses)
        with pytest.raises(ZeroKernel):
            bergman_radial(mt)

    def test_log_cone_splits_the_table(self):
        # weight k log_+(r) on the plane: the moment of order j converges
        # exactly when 2j + 2 < k
        cone = RadialProfile(
            fn=lambda r: 10.0 * max(math.log(r), 0.0),
            cutoff=math.inf,
            seam_radii=(1.0,),
        )
        mt = radial_moments(cone, 5)
        assert [mt.finite(j) for j in range(6)] == [True, True, True, True, False, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_coefficients_at_a_huge_cutoff_warn_nothing(self):
        # the nodes are floats, but a profile with numpy coefficients, as the
        # property suites draw them, computes in numpy scalars and overflows
        # near r = 1e200 before r ** 4 raises
        a2, a4 = np.float64(0.5), np.float64(1.5)
        with pytest.raises(NonConvergent):
            radial_moments(RadialProfile(fn=lambda r: a2 * r * r + a4 * r ** 4,
                                         cutoff=1e200), 0)

    def test_csv_format(self):
        mt = radial_moments(FLAT_DISC, 1)
        lines = mt.to_csv().strip().split("\n")
        assert lines[0] == "k,value,status"
        assert len(lines) == 3


class TestKernelValues:
    def test_disc_center_value(self):
        mt = radial_moments(FLAT_DISC, 6)
        np.testing.assert_allclose(bergman_radial(mt, 0.0), 1.0 / math.pi, rtol=1e-12)

    def test_truncation_approaches_from_below(self):
        exact = 16.0 / (9.0 * math.pi)  # 1 / (pi (1 - rho^2)^2) at rho = 1/2
        prev = 0.0
        for kmax in (2, 6, 12, 24):
            mt = radial_moments(FLAT_DISC, kmax)
            val = bergman_radial(mt, 0.5)
            assert prev < val <= exact * (1.0 + 1e-12)
            prev = val
        np.testing.assert_allclose(prev, exact, rtol=1e-8)

    def test_gram_agrees_with_radial(self):
        gk = gram_kernel(constant_weight(0.0, 0, 2), disc_region(1.0), degree=4)
        mt = radial_moments(FLAT_DISC, 4)
        np.testing.assert_allclose(gk.value(0.0j), 1.0 / math.pi, rtol=1e-11)
        np.testing.assert_allclose(
            gk.value(0.5 + 0j), bergman_radial(mt, 0.5), rtol=1e-10
        )
        np.testing.assert_allclose(gk.cond, 5.0, rtol=1e-9)

    def test_bergman_gram_shortcut(self):
        a = bergman_gram(constant_weight(0.0, 0, 2), disc_region(1.0), at=0.3 + 0.1j, degree=4)
        gk = gram_kernel(constant_weight(0.0, 0, 2), disc_region(1.0), degree=4)
        np.testing.assert_allclose(a, gk.value(0.3 + 0.1j), rtol=1e-12)

    @pytest.mark.parametrize("degree", [0, 4])
    def test_gram_integrates_the_upper_triangle(self, monkeypatch, degree):
        # (d+1)(d+2)/2 entries, formed by the factor for the 15 points of
        # every panel in a call; the per-point integrand is the density alone.
        # Below the diagonal, the entries are the exact conjugates of those
        # above it.
        shapes, densities = set(), set()
        integrate = bergman.integrate_fiber

        def spy(f, fib, factor, **kwargs):
            densities.add(type(f((0.3, -0.2))))

            def recorded(points):
                rows = factor(points)
                shapes.add(rows.shape)
                return rows
            return integrate(f, fib, factor=recorded, **kwargs)

        monkeypatch.setattr(bergman, "integrate_fiber", spy)
        gk = gram_kernel(lemma3_weight(4, 0.5), disc_region(1.0), center=0.2 + 0.1j,
                         degree=degree)
        assert {n % 15 for (n, _) in shapes} == {0}
        assert {m for (_, m) in shapes} == {(degree + 1) * (degree + 2) // 2}
        assert densities == {float}
        lower = np.tril_indices(degree + 1, -1)
        assert np.array_equal(gk.matrix[lower], gk.matrix.T[lower].conj())

    def test_gram_matrix_has_the_bits_of_the_per_point_tensor(self):
        # The triangle b b^H e^{-w} integrated one point at a time: the
        # reference that the batched factor must match bit for bit.
        w, dom, c, degree = lemma3_weight(4, 0.5), disc_region(1.0), 0.2 + 0.1j, 6
        fib = fiber(dom, ())
        density = w.fiber_density(fib)
        js = np.arange(degree + 1)
        rows, cols = np.triu_indices(degree + 1)

        def tensor(x):
            b = (complex(x[0], x[1]) - c) ** js
            return b[rows] * b[cols].conj() * density(x)
        upper = bergman.integrate_fiber(tensor, fib, seams=w.fiber_seams(()))
        gk = gram_kernel(w, dom, center=c, degree=degree)
        assert gk.matrix[rows, cols].tobytes() == upper.tobytes()

    def test_concentrated_weight_is_rejected(self):
        with pytest.raises(IllConditioned):
            gram_kernel(lemma3_weight(100, 0.1), disc_region(1.0), degree=8)

    def test_weight_of_another_split_rejected(self):
        # (0, 2) against the bidisc's packed (2, 2)
        with pytest.raises(InvalidParam):
            gram_kernel(constant_weight(0.0, 0, 2), bidisc(), (0.0, 0.0), degree=2)

    @pytest.mark.parametrize("t", [(0.0,), (0.0, 0.0, 0.0)])
    def test_base_point_of_the_wrong_size_rejected(self, t):
        with pytest.raises(InvalidParam):
            gram_kernel(constant_weight(0.0, 2, 2), bidisc(), t, degree=2)


@lru_cache(maxsize=None)
def _disc_gram(weight: str, degree: int):
    w = {"flat": constant_weight(0.0, 0, 2), "lemma3": lemma3_weight(4, 0.5)}[weight]
    return gram_kernel(w, disc_region(1.0), degree=degree)


def _solve_value(gk, z):
    """The kernel value through LAPACK's LU, a reference independent of the factor."""
    b = (z - gk.center) ** np.arange(gk.matrix.shape[0])
    return float(np.real(np.vdot(b, np.linalg.solve(gk.matrix, b))))


class TestGramFactor:
    @pytest.mark.parametrize("matrix", [
        [[1, 2], [2, 1]],              # Hermitian, eigenvalues 3 and -1
        [[math.nan, 0], [0, 1]],
        [[1, 0], [0, math.nan]],
    ], ids=["indefinite", "nan-first-pivot", "nan-second-pivot"])
    def test_not_positive_definite_is_rejected(self, matrix):
        with pytest.raises(IllConditioned, match="not positive definite"):
            GramKernel(matrix=np.array(matrix, dtype=complex), center=0j, cond=3.0)

    @pytest.mark.parametrize("weight", ["flat", "lemma3"])
    def test_factor_reproduces_the_matrix(self, weight):
        gk = _disc_gram(weight, 4)
        n = gk.matrix.shape[0]
        lower = np.array([row + (0.0,) * (n - len(row)) for row in gk.factor])
        assert np.array_equal(lower, np.tril(lower))
        assert all(type(row[-1]) is float and row[-1] > 0.0 for row in gk.factor)
        np.testing.assert_allclose(lower @ lower.conj().T, gk.matrix,
                                   rtol=0.0, atol=1e-15 * np.abs(gk.matrix).max())

    @pytest.mark.parametrize("weight", ["flat", "lemma3"])
    @pytest.mark.parametrize("degree", [0, 1, 4, 16])
    def test_value_matches_the_lu_solve(self, weight, degree):
        gk = _disc_gram(weight, degree)
        for z in (0j, 0.3 + 0.2j, 0.5, -0.7j):
            np.testing.assert_allclose(gk.value(z), _solve_value(gk, z), rtol=1e-13)

    @pytest.mark.parametrize("weight", ["flat", "lemma3"])
    def test_degree_zero_is_the_inverse_mass(self, weight):
        # L = (sqrt g), so B = (1 / sqrt g)^2: 1 / g up to the rounding of the root
        gk = _disc_gram(weight, 0)
        g = gk.matrix[0, 0].real
        y = 1.0 / math.sqrt(g)
        assert gk.factor == ((math.sqrt(g),),)
        assert gk.value() == y * y
        assert abs(gk.value() - 1.0 / g) <= math.ulp(1.0 / g)


class TestDomeWeight:
    @pytest.mark.parametrize("z_abs,expect", sorted(M0_TABLE.items()))
    def test_mass_closed_form(self, z_abs, expect):
        np.testing.assert_allclose(berndtsson_m0_closed(z_abs, EPS), expect, rtol=1e-14)

    @pytest.mark.parametrize("z_abs", [0.0, 0.15, 0.3, 0.6])
    def test_mass_quadrature_matches(self, z_abs):
        prof = berndtsson_profile(complex(z_abs), EPS)
        mt = radial_moments(prof, 0)
        np.testing.assert_allclose(mt.values[0], berndtsson_m0_closed(z_abs, EPS), rtol=1e-9)

    def test_profile_seam_location(self):
        prof = berndtsson_profile(0.1 + 0j, EPS)
        np.testing.assert_allclose(prof.seam_radii, (math.sqrt(EPS ** 2 - 0.01),))
        assert berndtsson_profile(complex(EPS), EPS).seam_radii == ()

    def test_only_the_constant_survives(self):
        prof = berndtsson_profile(0.1 + 0j, EPS)
        mt = radial_moments(prof, 3)
        assert mt.finite(0)
        assert [mt.finite(j) for j in (1, 2, 3)] == [False, False, False]

    @pytest.mark.parametrize("z_abs,expect", sorted(PHI_TABLE.items()))
    def test_phi_closed_form(self, z_abs, expect):
        np.testing.assert_allclose(berndtsson_phi_closed(z_abs, EPS), expect, rtol=1e-14)

    def test_phi_curve_quadrature(self):
        vals = berndtsson_phi_curve(EPS, [0.0, 0.6])
        np.testing.assert_allclose(vals, [PHI_TABLE[0.0], PHI_TABLE[0.6]], atol=1e-8)

    def test_eps_guard(self):
        with pytest.raises(InvalidParam):
            berndtsson_profile(0.0j, 1.0)

    @pytest.mark.parametrize("z_abs", [0.0, 0.15, 0.3, 0.6])
    def test_profile_is_the_catalog_weights_radial_restriction(self, z_abs):
        # inside the dent, on its rim and outside: the same bits as the
        # weight at (t, x) = ((|z|, 0), (r, 0)), and the seam's radius
        w, t = stock_weight("berndtsson_cex", EPS), (z_abs, 0.0)
        prof = berndtsson_profile(complex(z_abs), EPS)
        fn = w.radial_fn(t)
        for r in (0.0, 0.1, math.sqrt(abs(EPS * EPS - z_abs * z_abs)), 0.5, 3.0, 1e150):
            assert prof(r).hex() == fn(r).hex() == w.restrict(t)((r, 0.0)).hex()
        assert prof.seam_radii == tuple(r for (_, r) in w.fiber_seams(t))
        assert len(prof.seam_radii) == (z_abs < EPS)


class TestInnerLaplacian:
    @pytest.mark.parametrize("z_abs,expect", sorted(LAPLACIAN_TABLE.items()))
    def test_closed_form(self, z_abs, expect):
        np.testing.assert_allclose(berndtsson_inner_laplacian(z_abs, EPS), expect, rtol=1e-14)

    def test_strictly_inside_only(self):
        with pytest.raises(InvalidParam):
            berndtsson_inner_laplacian(EPS, EPS)

    def test_stencil_agrees_and_is_positive(self):
        rows = laplacian_check(EPS, [0.0, 0.1], h=1e-3)
        for row in rows:
            assert row.error < 1e-5
            assert row.numeric > 0.0
            np.testing.assert_allclose(row.closed, LAPLACIAN_TABLE[row.z_abs], rtol=1e-14)

    def test_stencil_must_stay_inside(self):
        with pytest.raises(InvalidParam):
            laplacian_check(EPS, [0.299], h=1e-3)


class TestMeanValueCheck:
    def test_subharmonic_passes(self):
        # deficit = u(center) - circle mean; submean functions keep it <= 0
        rep = psh_mean_value_check(lambda z: abs(z) ** 2, [0j, 0.3 + 0.2j], [0.1, 0.2])
        assert rep.verdict
        assert rep.worst_deficit <= 0.0
        assert rep.checked == 4

    def test_superharmonic_fails_with_witness(self):
        rep = psh_mean_value_check(lambda z: -(abs(z) ** 2), [0j], [0.5])
        assert not rep.verdict
        np.testing.assert_allclose(rep.worst_deficit, 0.25, rtol=1e-12)
        assert rep.witness == (0.0, 0.0, 0.5)

    def test_harmonic_sits_on_the_edge(self):
        rep = psh_mean_value_check(lambda z: z.real, [0.1 + 0.2j], [0.3], n_angles=4096)
        assert abs(rep.worst_deficit) < 1e-10

    def test_tolerance_forgives(self):
        rep = psh_mean_value_check(lambda z: -(abs(z) ** 2), [0j], [0.01], tol=1e-3)
        assert rep.verdict

    @pytest.mark.parametrize("centers,radii", [([], [0.1]), ([0j], []), ((), ())])
    def test_nothing_to_check_is_rejected(self, centers, radii):
        # An empty audit would certify "submean" without looking at anything.
        with pytest.raises(InvalidParam):
            psh_mean_value_check(lambda z: abs(z) ** 2, centers, radii)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_is_rejected(self, tol):
        with pytest.raises(InvalidParam):
            psh_mean_value_check(lambda z: abs(z) ** 2, [0j], [0.1], tol=tol)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_radius_is_rejected(self, rho):
        # -|z|^2 is superharmonic: a NaN radius used to certify it submean
        with pytest.raises(InvalidParam, match="radii"):
            psh_mean_value_check(lambda z: -(abs(z) ** 2), [0j], [rho], n_angles=8)

    @pytest.mark.parametrize("u", [
        lambda z: np.where(z.real > 0.25, np.nan, -abs(z) ** 2),  # part of the circle
        lambda z: np.where(z == 0, np.nan, -abs(z) ** 2),  # the center
    ])
    def test_nan_probe_is_a_numerical_failure(self, u):
        with pytest.raises(NonConvergent, match=r"center 0j, radius 0\.5"):
            psh_mean_value_check(u, [0j], [0.5], n_angles=8)

    def test_u_must_keep_the_shape_of_the_points(self):
        with pytest.raises(InvalidParam, match="shape"):
            psh_mean_value_check(lambda z: 1.0, [0j], [0.5], n_angles=8)

    def test_closed_form_audit_matches_the_per_point_loop(self):
        centers = [complex(a, b) for a, b in
                   np.random.default_rng(7).uniform(-0.6, 0.6, size=(6, 2))]
        radii, n_angles = [0.05, 0.1], 512
        rep = psh_mean_value_check(lambda z: berndtsson_phi_closed(abs(z), EPS),
                                   centers, radii, n_angles=n_angles)
        checked, worst, witness = _per_point_audit(
            lambda z: -math.log(_m0_by_math(abs(z), EPS)), centers, radii, n_angles)
        assert (rep.checked, rep.witness) == (checked, witness)
        assert abs(rep.worst_deficit - worst) <= 1e-15

    def test_circle_points_are_the_per_point_ones(self):
        seen = []

        def u(z):
            seen.append(z.copy())
            return -abs(z) ** 2

        c, rho, n_angles = 0.1 - 0.2j, 0.3, 64
        psh_mean_value_check(u, [c], [rho], n_angles=n_angles)
        angles = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
        assert seen[0].tolist() == [c]
        assert seen[1].tolist() == [c + rho * a for a in angles]

    def test_circle_table_is_shared_and_read_only(self):
        table = bergman._circle(512)
        assert bergman._circle(512) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        want = np.exp(2j * math.pi * np.arange(512) / 512)
        assert table.tobytes() == want.tobytes()


def _m0_by_math(z_abs, eps):
    """The log dent fiber mass written with ``math``, one point at a time."""
    z_abs = abs(float(z_abs))
    if z_abs >= eps:
        return 2.0 * math.pi / math.sqrt(1.0 - eps * eps + z_abs * z_abs)
    return 4.0 * math.pi - 2.0 * math.pi / math.sqrt(1.0 + eps * eps - z_abs * z_abs)


def _per_point_audit(u, centers, radii, n_angles):
    """The sub-mean audit as a loop calling ``u`` at one point at a time."""
    angles = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    worst, witness, checked = -math.inf, None, 0
    for c in centers:
        uc = float(u(c))
        for rho in radii:
            deficit = uc - float(np.mean([u(c + rho * a) for a in angles]))
            checked += 1
            if deficit > worst:
                worst, witness = deficit, (c.real, c.imag, rho)
    return checked, worst, witness


class TestClosedFormsOnArrays:
    # 0 and 0.1 lie inside the dent, EPS on its edge, 1.2 > sqrt(1 + EPS^2)
    Z = np.array([[0.0, 0.1, EPS, 0.6], [1.2, -2.0, 50.0, 1e100]])

    @pytest.mark.filterwarnings("error")
    def test_both_branches_match_the_math_formulas(self):
        m0 = berndtsson_m0_closed(self.Z, EPS)
        phi = berndtsson_phi_closed(self.Z, EPS)
        assert m0.shape == phi.shape == self.Z.shape
        want = np.array([[_m0_by_math(z, EPS) for z in row] for row in self.Z])
        np.testing.assert_allclose(m0, want, rtol=1e-15)
        np.testing.assert_allclose(phi, [[-math.log(m) for m in row] for row in want],
                                   rtol=1e-15)

    def test_a_float_gives_a_float(self):
        for closed in (berndtsson_m0_closed, berndtsson_phi_closed):
            assert type(closed(0.1, EPS)) is float
            assert type(closed(np.float64(0.6), EPS)) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_a_non_finite_square_anywhere_is_rejected_without_warning(self, bad):
        z = np.array([0.0, 0.6, bad, 1.2])
        for closed in (berndtsson_m0_closed, berndtsson_phi_closed):
            with pytest.raises(InvalidParam):
                closed(z, EPS)


class TestHarnesses:
    def test_lemma2_rows(self):
        sq = RadialProfile(fn=lambda r: r * r, cutoff=math.inf, seam_radii=())
        rows = lemma2_harness(sq, (16, 32))
        np.testing.assert_allclose(rows[0].value, 0.876995242923816, rtol=1e-9)
        assert rows[0].error > rows[1].error
        for row in rows:
            assert row.target == 1.0
            assert row.value <= row.upper
            np.testing.assert_allclose(row.upper, math.exp(1.0 / row.k ** 2), rtol=1e-12)

    def test_lemma2_needs_k_at_least_three(self):
        sq = RadialProfile(fn=lambda r: r * r, cutoff=math.inf, seam_radii=())
        with pytest.raises(InvalidParam):
            lemma2_harness(sq, (2,))

    @pytest.mark.parametrize("fn", [
        lambda r: 750.0,  # the target e^{profile(0)} overflows
        lambda r: 750.0 if 0.0 < r < 0.01 else 0.0,  # only the upper bound does
    ], ids=["target", "upper"])
    def test_lemma2_overflowing_exponential_is_nonconvergent(self, fn):
        prof = RadialProfile(fn=fn, cutoff=1.0, seam_radii=(0.01,))
        with pytest.raises(NonConvergent, match="overflows"):
            lemma2_harness(prof, (3,))

    def test_lemma3_underflowing_mass_is_nonconvergent(self):
        # e^{-w} is 1 only on a disc of radius 1e-200; the mass underflows to 0
        with pytest.raises(NonConvergent, match="underflows"):
            lemma3_harness((3,), 1e-200, degree=1)

    def test_lemma3_bracket(self):
        rows = lemma3_harness((10,), 0.5, degree=4)
        row = rows[0]
        # for a radial weight the center value saturates the constant-
        # competitor bound, so allow roundoff on the left edge
        assert row.lower <= row.value + 1e-12
        assert row.value <= row.upper + 1e-9
        np.testing.assert_allclose(row.lower, 1.01938803268867, rtol=1e-9)
        np.testing.assert_allclose(row.upper, 4.0 / math.pi, rtol=1e-12)

    def test_lemma3_upper_needs_room(self):
        # no disc of radius 1/2 fits inside a domain of radius 0.4, and the
        # k <= 2 tail is too heavy for the small-ball argument
        assert lemma3_harness((10,), 0.5, domain=disc_region(0.4), degree=4)[0].upper is None
        assert lemma3_harness((2,), 0.5, degree=4)[0].upper is None


class TestKernelCurve:
    def test_flat_identity_along_the_base(self):
        vals = kernel_curve(
            constant_weight(0.0, 2, 2),
            bidisc(),
            AffineFiberMap.complex_affine(0.0),
            8,
            [(0.0, 0.0), (0.3, 0.0)],
        )
        np.testing.assert_allclose(vals, [0.75, 0.75], atol=1e-5)

    def test_gram_handles_csg_fibers(self):
        # the Gram value of the localized sum at the moving center, as
        # kernel_curve's docstring names it
        a, t = AffineFiberMap.complex_affine(0.0), (0.2, 0.0)
        val = bergman_gram(constant_weight(0.0, 2, 2) + psh_localizer(8, a),
                           hartogs_figure(0.5), t, at=complex(*a.at(t)), degree=6)
        np.testing.assert_allclose(val, 0.75, atol=1e-3)

    def test_radial_requires_centered_discs(self):
        # the punctured ball's fiber at 0 is a disc minus its center
        with pytest.raises(MethodUnavailable, match="not a plane or a disc"):
            kernel_curve(
                constant_weight(0.0, 2, 2),
                punctured_ball((1, 1), kind="complex"),
                AffineFiberMap.complex_affine(0.0),
                8,
                [0j],
            )

    @pytest.mark.parametrize("k", [3, 8, 32])
    def test_radial_takes_the_hartogs_figures_small_disc(self, k):
        # the fiber over tau = 0 is the disc of radius rho = 0.5 twice over,
        # and m_0 of the log cone about its center is in closed form
        rho = 0.5
        m0 = 1.0 + 2.0 * (1.0 - (k * rho) ** (2 - k)) / (k - 2)
        val, = kernel_curve(constant_weight(0.0, 2, 2), hartogs_figure(rho),
                            AffineFiberMap.complex_affine(0.0), k, [0j])
        np.testing.assert_allclose(val, 1.0 / m0, rtol=1e-14)

    def test_radial_needs_a_profile_about_the_moving_center(self):
        # the log shell is radial about 0 but carries no profile
        with pytest.raises(MethodUnavailable, match="no radial profile"):
            kernel_curve(lemma3_weight(4, 0.5), plane_region(),
                         AffineFiberMap.constant((0.0, 0.0), 0), 8, [()])

    # the unit base disc times the fiber disc of radius 0.4 about 0.5
    OFF_CENTER = Domain(Intersection((Ball((0.0, 0.0), 1.0, (0, 1)),
                                      Ball((0.5, 0.0), 0.4, (2, 3)))), (1, 1), "complex")

    def test_radial_takes_a_disc_centered_exactly_on_the_moving_center(self):
        val = kernel_curve(constant_weight(0.0, 2, 2), self.OFF_CENTER,
                           AffineFiberMap.complex_affine(0.5), 8, [(0.0, 0.0)])
        np.testing.assert_allclose(val, [0.7501746636497928], rtol=1e-14)

    def test_radial_rejects_a_disc_a_hair_off_the_moving_center(self):
        # 3e-6 is inside np.allclose's default tolerance: the radial route
        # must not treat this disc as centered
        with pytest.raises(MethodUnavailable):
            kernel_curve(constant_weight(0.0, 2, 2), self.OFF_CENTER,
                         AffineFiberMap.complex_affine(0.5 + 3e-6), 8, [(0.0, 0.0)])

    def test_complex_tau_is_its_packed_pair(self):
        args = (constant_weight(0.0, 2, 2), full_space((1, 1), "complex"),
                AffineFiberMap.complex_affine(0.1, 0.5), 8)
        assert kernel_curve(*args, [0.2 - 0.1j]) == kernel_curve(*args, [(0.2, -0.1)])

    def test_a_mass_that_underflows_is_a_numerical_failure(self):
        # e^-800 underflows to 0, so the kernel 1/m_0 has no value
        with pytest.raises(NonConvergent, match="underflows"):
            kernel_curve(constant_weight(800.0, 2, 2), full_space((1, 1), "complex"),
                         AffineFiberMap.complex_affine(0.0), 8, [0j])


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 1e200])  # 1e200: |z|^2 overflows
def test_log_dent_rejects_a_non_finite_base_point(z):
    with pytest.raises(InvalidParam):
        berndtsson_profile(complex(z, 0.0), EPS)
    with pytest.raises(InvalidParam):
        berndtsson_m0_closed(z, EPS)
    with pytest.raises(InvalidParam):
        berndtsson_phi_curve(EPS, [z])


def test_log_dent_curve_with_an_underflowing_mass_is_non_convergent():
    with pytest.raises(NonConvergent):
        berndtsson_phi_curve(EPS, [1e154])


def test_overflowing_weight_on_some_nodes_is_non_convergent():
    # e^{800 r} overflows math.exp on part of the first panel only.
    with pytest.raises(NonConvergent):
        radial_moments(RadialProfile(fn=lambda r: -800.0 * r, cutoff=1.0), 3)


def _numerics_reached(fn, *args) -> set:
    """Names of the ``convlab.numerics`` functions that ``fn(*args)`` calls,
    directly or at any depth."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "convlab.numerics":
            reached.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return reached


@pytest.mark.parametrize("closed, args", [
    (dent_marginal_closed, (0.05, 0.1)),  # inside the dent
    (dent_marginal_closed, (0.5, 0.1)),  # outside it
    (berndtsson_m0_closed, (np.array([0.1, 0.6]), EPS)),  # both branches
    (berndtsson_phi_closed, (np.array([0.1, 0.6]), EPS)),
    (berndtsson_inner_laplacian, (np.array([0.0, 0.1]), EPS)),
])
def test_closed_forms_are_independent_of_the_quadrature(closed, args):
    assert _numerics_reached(closed, *args) == set()


def test_the_quadrature_route_is_seen_reaching_numerics():
    assert "integrate_1d" in _numerics_reached(berndtsson_phi_curve, EPS, [0.1])


def test_divergent_moments_overflow_without_a_warning():
    # r ** (2j + 1) overflows in the tail windows of the divergent moments;
    # that is the divergence verdict, not something to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mt = radial_moments(berndtsson_profile(0j, EPS), 50)
    assert mt.statuses == ("finite",) + ("divergent",) * 50
    assert mt.values[0] == radial_moments(berndtsson_profile(0j, EPS), 0).values[0]


@pytest.mark.parametrize("profile", [
    FLAT_DISC,
    RadialProfile(fn=lambda r: 4.0 * abs(r * r - 0.25), cutoff=1.0, seam_radii=(0.5,)),
], ids=["flat", "seamed"])
def test_disc_moments_do_not_depend_on_the_table_length(profile):
    # every moment is its own scalar integral, on a disc as on the plane
    full = radial_moments(profile, 6).values
    for j in range(7):
        assert radial_moments(profile, j).values[j] == full[j], j
