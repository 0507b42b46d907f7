"""Tests of the benchmark itself: tracer coverage, exception transparency,
repeatable counts, and the refusal to run without the program.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT / "src", ROOT / "tests", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from convlab import bergman, geometry, numerics, prekopa, scenarios  # noqa: E402
import convlab  # noqa: E402
import suites  # noqa: E402


@pytest.fixture
def tracer():
    tr = layertrace.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _is_span(fn):
    return hasattr(fn, "_perfbench_span")


def test_every_entry_point_is_wrapped(tracer):
    assert tracer.coverage_gaps(deep=True) == []
    # names re-imported into other layers, and the recursive distance query
    for fn in (prekopa.integrate_1d, prekopa.integrate_fiber, bergman.integrate_1d,
               bergman.integrate_fiber, prekopa.fiber, bergman.fiber,
               geometry.dist_to_complement, geometry.dist_to_set,
               scenarios.disc_distance_check, suites.bergman_gram,
               suites.marginal_transform, convlab.integrate_1d,
               geometry.Ball.member, geometry.AffineFiberMap.constant,
               bergman.GramKernel.value):
        assert _is_span(fn), fn
    assert tracer.coverage_gaps() == []


def test_uninstall_restores_originals(tracer):
    tracer.uninstall()
    assert not _is_span(numerics.integrate_1d)
    assert not _is_span(prekopa.integrate_1d)
    assert not _is_span(geometry.Ball.member)
    tracer.install()  # the fixture uninstalls again


def test_wrappers_reraise_unchanged(tracer):
    boom = OverflowError("too big")

    def raiser():
        raise boom

    wrapped = tracer.span(raiser, ("bench", "raiser"), leave=lambda *a: None)
    with pytest.raises(OverflowError) as info:
        wrapped()
    assert info.value is boom

    # numerics._eval_node turns an integrand's OverflowError into +inf; the
    # integrand wrapper must let it through for that to keep working.
    def steep(x):
        return math.exp(x * x)

    with pytest.raises(convlab.NonConvergent) as traced_err:
        numerics.integrate_1d(steep, 0.0, 40.0)
    tracer.uninstall()
    with pytest.raises(convlab.NonConvergent) as plain_err:
        numerics.integrate_1d(steep, 0.0, 40.0)
    tracer.install()
    assert str(traced_err.value) == str(plain_err.value)


def _mini_plan(seed: int):
    """A few seconds of work that reaches every counted layer entry point."""
    defaults = scenarios.load_defaults()
    jobs = [
        workloads._scenario_job("lemma2"),
        workloads._scenario_job("min-principle"),
        workloads._suite_job("twist_monotonicity", seed, 5, {}),
        workloads._suite_job("constant_shift", seed + 1, 5, {}),
        workloads._suite_job("kernel_monotonicity", seed + 2, 1, {"gram_cases": 1}),
        workloads._suite_job("product_split", seed + 3, 5, {}),
        workloads._submean_job(seed + 4, 1, dict(defaults["scenarios"]["berndtsson-cex"],
                                                 psh_angles=64)),
        workloads._bidisc_job(seed + 5, 16),
    ]

    def escape_and_divergence():
        bd = geometry.bidisc()
        escaper = geometry.AnalyticDisc(base=(0.0, 0.8), fibers=((1.2,),))
        try:
            geometry.disc_distance_check(bd, escaper, n_interior=16, n_boundary=8)
            out = "no escape"
        except convlab.DiscEscapesDomain as exc:
            out = str(exc)
        mt = bergman.radial_moments(bergman.berndtsson_profile(0.1 + 0j, 0.3), 2)
        return workloads.Outcome(out + json.dumps(mt.statuses), 1, 0)

    jobs.append(workloads.Job("escape", 1, escape_and_divergence))
    return workloads.Plan(workloads.WORKLOADS["probes"], (), tuple(jobs), ())


def _traced_counts(tracer, seed):
    plan = _mini_plan(seed)
    tracer.uninstall()
    base = run.run_pass(workloads, plan)
    tracer.install()
    res = run.run_pass(workloads, plan, before=tracer.reset)
    assert res.failed == 0 and base.failed == 0
    assert res.outputs == base.outputs, "tracing changed an output"
    assert abs(tracer.layer_self_total(res.wall) - res.wall) <= 1e-9 * max(1.0, res.wall)
    metrics = tracer.metrics(res.wall, base.wall)
    return {k: metrics[k] for k in layertrace.COUNT_METRICS}


def test_counts_repeat_exactly_and_follow_the_seed(tracer):
    first = _traced_counts(tracer, 1)
    second = _traced_counts(tracer, 1)
    assert first == second
    for key in ("numerics.panels", "numerics.evals", "numerics.nested_calls",
                "weights.evals", "geometry.queries", "geometry.node_visits",
                "geometry.escapes", "bergman.radial.divergent", "bergman.gram.entries",
                "numerics.divergent", "numerics.min.evals", "bergman.closed.calls"):
        assert first[key] > 0, key
    other = _traced_counts(tracer, 2)
    assert other["numerics.panels"] != first["numerics.panels"]
    assert other["weights.evals"] != first["weights.evals"]
    assert other["bergman.gram.entries"] != first["bergman.gram.entries"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (90.0, 89.0)
    assert run.tail(xs[:60])[0] == pytest.approx(100.0 * 50 / 60)
    with pytest.raises(ValueError):
        run.tail(xs[:10])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
