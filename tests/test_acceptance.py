"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test drives a full scenario (or a direct kernel computation), checks the
published numbers at the stated tolerances, prints a single ``C<n> PASS/FAIL``
line with the elapsed wall time, and enforces a per-criterion time budget.
The printed lines are the human-readable summary of the whole gate; the
asserts are the machine-readable one.
"""

import math
import time

import suites
from convlab.bergman import (
    bergman_gram,
    bergman_radial,
    berndtsson_phi_closed,
    berndtsson_phi_curve,
    radial_moments,
)
from convlab.geometry import disc_region, full_space
from convlab.prekopa import marginal_transform
from convlab.scenarios import run_scenario
from convlab.weights import RadialProfile, constant_weight, stock_weight

BUDGETS = {1: 10.0, 2: 10.0, 3: 20.0, 4: 10.0, 5: 30.0,
           6: 60.0, 7: 30.0, 8: 20.0, 9: 30.0, 10: 60.0}

SUITE_SEED_BASE = 20260816


def _check(report: dict, name: str) -> dict:
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"scenario report has no check named {name!r}")


def _emit(capsys, n: int, ok: bool, text: str, elapsed: float) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"C{n:<2d} {verdict} ({elapsed:5.1f}s / {BUDGETS[n]:.0f}s): {text}")


def test_c01_dent_marginal(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("prekopa-cex").to_jsonable()
    p = rep["params"]
    ok = rep["passed"]
    ok &= p["eps"] == 0.1 and p["value_tol"] == 1e-08
    ok &= p["grid_n"] == 501 and p["grid_span"] == 0.5 and p["convexity_tol"] == 1e-07
    ok &= p["quotient_tol"] == 1e-03
    ok &= all(t in p["sample_ts"] for t in (0.15, 0.3, 1.0))
    ok &= all(_check(rep, name)["passed"] for name in
              ("closed-vs-quadrature", "midpoint-convexity", "seam-slope"))
    # independent spot check: outside the dent the marginal is the shifted
    # parabola x^2 - eps^2 - log sqrt(pi)
    w = stock_weight("prekopa_cex", 0.1)
    plane = full_space((1, 1))
    worst = max(abs(marginal_transform(w, plane, t)
                    - (t * t - 0.01 - math.log(math.sqrt(math.pi))))
                for t in (0.15, 0.3, 1.0))
    ok &= worst <= 1e-08
    elapsed = time.perf_counter() - t0
    _emit(capsys, 1, ok,
          "dent marginal matches closed form to 1e-08, convex on 501-pt grid "
          f"at 1e-07, seam slopes at 1e-03 (spot error {worst:.1e})", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[1]


def test_c02_twisted_shell_midpoint(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("twisted-nonconvex").to_jsonable()
    p = rep["params"]
    violation = _check(rep, "midpoint-violation")["detail"]["violation"]
    ok = rep["passed"]
    ok &= p["k"] == 128 and p["probe_t"] == 0.08 and p["min_violation"] == 0.003
    ok &= violation >= 0.003
    ok &= abs(violation - 0.0064) < 1e-04
    ok &= _check(rep, "localized-values")["passed"]
    elapsed = time.perf_counter() - t0
    _emit(capsys, 2, ok,
          f"twisted shell marginal midpoint violation {violation:.4f} >= 0.003 "
          "at t = +/-0.08, k = 128", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[2]


def test_c03_localization_convergence(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("lemma1").to_jsonable()
    p = rep["params"]
    rows = _check(rep, "localization-convergence")["detail"]["rows"]
    errors = [r["error"] for r in rows]
    ok = rep["passed"]
    ok &= [r["k"] for r in rows] == [8, 16, 32, 64, 128] and p["t"] == 1.0
    ok &= all(b < a for a, b in zip(errors, errors[1:]))
    ok &= errors[-1] < 0.05
    ok &= _check(rep, "flat-identity")["passed"] and p["identity_tol"] == 1e-10
    elapsed = time.perf_counter() - t0
    _emit(capsys, 3, ok,
          f"localized marginal errors fall {errors[0]:.3f} -> {errors[-1]:.3f} "
          "over k = 8..128; flat-weight identity -log(1+1/k) to 1e-10", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[3]


def test_c04_penalized_minimum(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("min-principle").to_jsonable()
    p = rep["params"]
    violation = _check(rep, "midpoint-violation")["detail"]["violation"]
    ok = rep["passed"]
    ok &= p["k"] == 64 and p["ts"] == [0.0, 0.4, 0.8]
    ok &= p["expected"] == [1.0, 0.84, 0.36] and p["value_tol"] == 1e-06
    ok &= violation >= 0.1
    ok &= p["inf_ts"] == [0.0, 0.5, 1.0, 2.0] and p["inf_tol"] == 1e-06
    ok &= _check(rep, "fiber-infimum-convex-envelope")["passed"]
    elapsed = time.perf_counter() - t0
    _emit(capsys, 4, ok,
          f"penalized minima hit 1.0/0.84/0.36 to 1e-06, midpoint bump "
          f"{violation:.2f} >= 0.1; fiber infimum max(t^2-1,0) to 1e-06", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[4]


def test_c05_disc_twist_kernel_mass(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("berndtsson-cex").to_jsonable()
    p = rep["params"]
    mass = _check(rep, "mass-closed-vs-quadrature")["detail"]
    statuses = _check(rep, "only-constants-survive")["detail"]["statuses"]
    ok = rep["passed"]
    ok &= p["eps"] == 0.3 and p["z_abs"] == [0.0, 0.15, 0.3, 0.6]
    ok &= p["mass_tol"] == 1e-08 and mass["max_error"] <= 1e-08
    ok &= statuses[0] == "finite" and all(s == "divergent" for s in statuses[1:])
    ok &= p["psh_centers"] == 50 and p["psh_radii"] == [0.05, 0.1]
    ok &= p["psh_tol"] == 1e-07 and _check(rep, "log-mass-submean")["passed"]
    ok &= p["laplacian_tol"] == 1e-05
    ok &= _check(rep, "inner-laplacian-closed-form")["passed"]
    ok &= _check(rep, "inner-laplacian-positive")["detail"]["min"] > 0.0
    # independent spot check of the log-mass curve against its two branches
    z_abs = [0.0, 0.15, 0.3, 0.6]
    curve = berndtsson_phi_curve(0.3, z_abs)
    worst = max(abs(computed - berndtsson_phi_closed(z, 0.3))
                for z, computed in zip(z_abs, curve))
    ok &= worst <= 1e-08
    elapsed = time.perf_counter() - t0
    _emit(capsys, 5, ok,
          "log dent fiber mass matches both branches to 1e-08, higher "
          "moments diverge, log-mass sub-mean at 1e-07, inner laplacian "
          f"positive and matches closed form to 1e-05 (curve error {worst:.1e})",
          elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[5]


def test_c06_shell_kernel_bracket(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("lemma3").to_jsonable()
    p = rep["params"]
    rows = _check(rep, "kernel-bracket")["detail"]["rows"]
    r = p["r"]
    ok = rep["passed"]
    ok &= [row["k"] for row in rows] == [10, 30, 100] and r == 0.5
    for row in rows:
        k = row["k"]
        lower = 1.0 / (math.pi * r * r * (1.0 + 2.0 * (r * r - r ** k) / (r * r * (k - 2))))
        ok &= abs(row["lower"] - lower) <= 1e-09
        ok &= lower - 1e-06 <= row["value"] <= 4.0 / math.pi + 1e-06
    gap = _check(rep, "limit-disc-kernel")["detail"]["gap"]
    ok &= gap <= 0.05
    elapsed = time.perf_counter() - t0
    _emit(capsys, 6, ok,
          "shell kernel sits in [closed-form lower bound, 4/pi] for "
          f"k = 10/30/100; k = 100 within {gap:.3f} of 4/pi", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[6]


def test_c07_plane_kernel_localization(capsys):
    t0 = time.perf_counter()
    rep = run_scenario("lemma2").to_jsonable()
    p = rep["params"]
    rows = _check(rep, "kernel-convergence")["detail"]["rows"]
    errors = [r["error"] for r in rows]
    ok = rep["passed"]
    ok &= [r["k"] for r in rows] == [16, 32, 64, 128]
    ok &= all(b < a for a, b in zip(errors, errors[1:]))
    ok &= errors[-1] < 0.05
    for row in rows:
        bound = math.exp(1.0 / (row["k"] * row["k"]))
        ok &= abs(row["upper"] - bound) <= 1e-12
        ok &= row["value"] <= bound + 1e-12
    elapsed = time.perf_counter() - t0
    _emit(capsys, 7, ok,
          f"localized plane kernel errors fall {errors[0]:.3f} -> "
          f"{errors[-1]:.3f} over k = 16..128, each under exp(1/k^2)", elapsed)
    assert ok, rep
    assert elapsed < BUDGETS[7]


def test_c08_disc_kernel_sanity(capsys):
    t0 = time.perf_counter()
    exact0 = 1.0 / math.pi
    exact5 = 16.0 / (9.0 * math.pi)
    flat = RadialProfile(lambda r: 0.0, cutoff=1.0)
    mt = radial_moments(flat, 24)
    rad0 = bergman_radial(mt, 0.0)
    rad5 = bergman_radial(mt, 0.5)
    w = constant_weight(0.0, 0, 2)
    dom = disc_region()
    gram0 = bergman_gram(w, dom, at=0j, degree=16)
    gram5 = bergman_gram(w, dom, at=0.5 + 0j, degree=16)
    e_rad0, e_gram0 = abs(rad0 - exact0), abs(gram0 - exact0)
    e_rad5, e_gram5 = abs(rad5 - exact5), abs(gram5 - exact5)
    ok = e_rad0 <= 1e-10 and e_gram0 <= 1e-10
    ok &= e_rad5 <= 1e-06 and e_gram5 <= 1e-06
    elapsed = time.perf_counter() - t0
    _emit(capsys, 8, ok,
          "unweighted disc kernel: center 1/pi to 1e-10 "
          f"(radial {e_rad0:.1e}, gram {e_gram0:.1e}), half-radius 16/(9 pi) "
          f"to 1e-06 (radial {e_rad5:.1e}, gram {e_gram5:.1e})", elapsed)
    assert ok, (rad0, gram0, rad5, gram5)
    assert elapsed < BUDGETS[8]


def test_c09_disc_distance_gap(capsys):
    t0 = time.perf_counter()
    rep1 = run_scenario("disc-distance").to_jsonable()
    rep2 = run_scenario("disc-distance").to_jsonable()
    p = rep1["params"]
    graph = _check(rep1, "graph-disc-gap")["detail"]
    h1 = _check(rep1, "hartogs-witness-violation")["detail"]["gap"]
    h2 = _check(rep2, "hartogs-witness-violation")["detail"]["gap"]
    ok = rep1["passed"] and rep2["passed"]
    ok &= p["n_interior"] == 100000 and p["gap_tol"] == 0.002
    ok &= abs(graph["gap"]) <= 0.002
    ok &= graph["n_interior"] >= 100000
    ok &= h1 < 0.0 and h1 == h2
    elapsed = time.perf_counter() - t0
    _emit(capsys, 9, ok,
          f"graph-disc distance gap {graph['gap']:.1e} within 2e-03 over 1e5 "
          f"samples; pinched-figure witness gap {h1:.2f} < 0, identical on "
          "re-run", elapsed)
    assert ok, (rep1, rep2)
    assert elapsed < BUDGETS[9]


def test_c10_property_suites(capsys):
    t0 = time.perf_counter()
    summaries = [fn(SUITE_SEED_BASE + idx) for idx, fn in enumerate(suites.ALL_SUITES)]
    ok = all(s["cases"] >= 1000 and s["failures"] == [] for s in summaries)
    total = sum(s["cases"] for s in summaries)
    elapsed = time.perf_counter() - t0
    names = ", ".join(f"{s['suite']} {s['cases']}" for s in summaries)
    _emit(capsys, 10, ok,
          f"randomized property suites clean over {total} cases ({names})",
          elapsed)
    assert ok, summaries
    assert elapsed < BUDGETS[10]
