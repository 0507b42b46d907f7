"""The three benchmark workloads and the jobs they are made of.

A workload is a fixed list of jobs (scenarios and the C8 kernel-sanity
calls, whose inputs never change) plus seeded jobs: calls into the property
suites of ``tests/suites.py`` and the benchmark's own seeded probe cases.
Seeded calls draw their seeds as ``base + index`` over the calls of one pass,
the way the acceptance gate derives suite seeds.  Seeded calls come in two
groups: *bulk* calls, made once per pass at a larger case count, and
*rounds*, each one call of every round kind at a fixed small case count.
Rounds are the latency samples.

Every job checks its own outputs and reports ``(output, ops, failed)``.  An
operation is one scenario check, one suite case, one C8 comparison or one
probe case.  A ``ConvlabError`` that escapes a job fails all of its
operations, and the pass goes on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The six layers are reached through their modules, so that the tracer's
# module-level wrappers see every call.
from convlab import bergman, geometry, scenarios, weights
from convlab.errors import ConvlabError

import suites

SCENARIO_CHECKS = {
    "prekopa-cex": 3, "twisted-nonconvex": 2, "lemma1": 4, "min-principle": 3,
    "midpoint-probe": 3, "disc-distance": 4, "psh-delta": 2,
    "berndtsson-cex": 5, "lemma2": 3, "lemma3": 4,
}

# Bidisc probe points stay this far inside each unit disc.
BIDISC_MAX_RADIUS = 0.99
# boundary_distance must equal min(1 - |z1|, 1 - |z2|) to a few ulps of 1.
BIDISC_TOL = 1e-15


@dataclass(frozen=True)
class Outcome:
    output: str
    ops: int
    failed: int


@dataclass(frozen=True)
class Job:
    name: str
    ops: int                      # operations the job is expected to make
    call: Callable[[], Outcome]


@dataclass(frozen=True)
class SeededCall:
    kind: str
    cases: int
    extra: tuple = ()             # keyword arguments, as (name, value) pairs


@dataclass(frozen=True)
class Workload:
    scenarios: tuple
    c8: bool
    bulk: tuple                   # SeededCall, once per pass
    round: tuple                  # SeededCall, once per round
    rounds: int
    long_passes: int              # passes that run the fixed and bulk jobs, at 30 s


WORKLOADS = {
    # 1-D improper-tail quadrature of scalar integrands (prekopa, weights):
    # GK15 panels, tail windows, grid minimizer, convexity audit.
    "marginals": Workload(
        scenarios=("prekopa-cex", "twisted-nonconvex", "lemma1", "min-principle",
                   "midpoint-probe"),
        c8=False,
        bulk=(SeededCall("forward_convexity", 50),),
        round=(SeededCall("twist_monotonicity", 5), SeededCall("constant_shift", 5)),
        rounds=60,
        long_passes=3,
    ),
    # The same quadrature on nested 2-D fiber integrals with (d+1)^2 complex
    # matrix integrands (the Gram route), plus radial moment tables.
    "kernels": Workload(
        scenarios=("lemma3", "lemma2"),
        c8=True,
        bulk=(SeededCall("kernel_monotonicity", 0, (("gram_cases", 1),)),),
        round=(SeededCall("kernel_monotonicity", 2, (("gram_cases", 0),)),
               SeededCall("product_split", 5)),
        rounds=30,
        long_passes=2,
    ),
    # Sampled checks with almost no quadrature: CSG distance queries and
    # closed-form sub-mean probes.  numerics changes must not move it.
    "probes": Workload(
        scenarios=("disc-distance", "psh-delta", "berndtsson-cex"),
        c8=False,
        bulk=(),
        round=(SeededCall("submean", 3), SeededCall("bidisc_distance", 96)),
        rounds=60,
        long_passes=2,
    ),
}


@dataclass(frozen=True)
class Plan:
    workload: Workload
    fixed: tuple                  # Job
    bulk: tuple                   # Job
    rounds: tuple                 # tuple of Job tuples


# ---------------------------------------------------------------------------
# Fixed jobs


def _scenario_job(name: str) -> Job:
    n_checks = SCENARIO_CHECKS[name]

    def call():
        rep = scenarios.run_scenario(name)
        if len(rep.checks) != n_checks:
            return Outcome(f"{name}: {len(rep.checks)} checks, expected {n_checks}",
                           n_checks, n_checks)
        failed = sum(not c.passed for c in rep.checks)
        return Outcome(report_json(rep), n_checks, failed)
    return Job(f"scenario:{name}", n_checks, call)


# Scenarios whose RunReport.to_json raised TypeError in this process.
TO_JSON_ERRORS = set()


def report_json(rep) -> str:
    """``rep.to_json(with_wall_time=False)``, or the same encoding with numpy
    scalars converted when ``to_json`` itself cannot encode the report (at
    the time of writing, lemma3's ``shell-outside-small-domain`` check holds a
    ``numpy.bool``).  Such scenarios are listed in ``TO_JSON_ERRORS``."""
    try:
        return rep.to_json(with_wall_time=False)
    except TypeError:
        TO_JSON_ERRORS.add(rep.scenario)
        return json.dumps(rep.to_jsonable(False), sort_keys=True,
                          separators=(",", ":"), default=_numpy_scalar)


def _numpy_scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _c8_job() -> Job:
    """The C8 kernel-sanity calls: the unweighted disc kernel by both routes."""
    def call():
        exact0 = 1.0 / math.pi
        exact5 = 16.0 / (9.0 * math.pi)
        flat = weights.RadialProfile(lambda r: 0.0, cutoff=1.0)
        mt = bergman.radial_moments(flat, 24)
        w = weights.constant_weight(0.0, 0, 2)
        dom = geometry.disc_region()
        values = {
            "radial0": bergman.bergman_radial(mt, 0.0),
            "radial5": bergman.bergman_radial(mt, 0.5),
            "gram0": bergman.bergman_gram(w, dom, at=0j, degree=16),
            "gram5": bergman.bergman_gram(w, dom, at=0.5 + 0j, degree=16),
        }
        failed = sum((abs(values["radial0"] - exact0) > 1e-10,
                      abs(values["gram0"] - exact0) > 1e-10,
                      abs(values["radial5"] - exact5) > 1e-6,
                      abs(values["gram5"] - exact5) > 1e-6))
        return Outcome(json.dumps(values, sort_keys=True), 4, failed)
    return Job("c8", 4, call)


# ---------------------------------------------------------------------------
# Seeded jobs


def _suite_job(kind: str, seed: int, cases: int, extra: dict) -> Job:
    fn = getattr(suites, f"{kind}_suite")
    expected = cases + {"forward_convexity": len(suites.NAMED_CONVEX),
                        "kernel_monotonicity": extra.get("gram_cases", 0)}.get(kind, 0)

    def call():
        summary = fn(seed, cases=cases, **extra)
        if summary["cases"] != expected:
            return Outcome(f"{kind}: {summary['cases']} cases, expected {expected}",
                           expected, expected)
        failed = min(len(summary["failures"]), expected)
        return Outcome(json.dumps(summary, sort_keys=True), expected, failed)
    return Job(f"{kind}@{seed}", expected, call)


def submean_centers(seed: int, n: int) -> list:
    """Sub-mean probe centers, drawn the way the berndtsson-cex scenario does."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.6, 0.6, size=(n, 2))
    return [complex(a, b) for a, b in pts]


def _submean_job(seed: int, n: int, params: dict) -> Job:
    """berndtsson_phi_closed passes the sub-mean test at each seeded center."""
    centers = submean_centers(seed, n)
    eps = params["eps"]
    radii = tuple(params["psh_radii"])

    def u(z):
        return bergman.berndtsson_phi_closed(abs(z), eps)

    def call():
        deficits, failed = [], 0
        for c in centers:
            rep = bergman.psh_mean_value_check(u, [c], radii,
                                               n_angles=params["psh_angles"],
                                               tol=params["psh_tol"])
            deficits.append(rep.worst_deficit)
            failed += not rep.verdict
        return Outcome(json.dumps(deficits), n, failed)
    return Job(f"submean@{seed}", n, call)


def bidisc_points(seed: int, n: int) -> np.ndarray:
    """Seeded points of the open unit bidisc, as (n, 2) complex pairs."""
    rng = np.random.default_rng(seed)
    radius = BIDISC_MAX_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=(n, 2)))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
    return radius * np.exp(1j * angle)


def _bidisc_job(seed: int, n: int) -> Job:
    """boundary_distance on the bidisc is exactly min(1 - |z1|, 1 - |z2|)."""
    points = bidisc_points(seed, n)

    def call():
        domain = geometry.bidisc()
        values, failed = [], 0
        for p in points:
            info = geometry.boundary_distance(domain, p)
            want = min(1.0 - abs(p[0]), 1.0 - abs(p[1]))
            values.append(info.value)
            failed += not (info.exact and abs(info.value - want) <= BIDISC_TOL)
        return Outcome(json.dumps(values), n, failed)
    return Job(f"bidisc_distance@{seed}", n, call)


def _seeded_job(call: SeededCall, seed: int, defaults: dict) -> Job:
    if call.kind == "submean":
        return _submean_job(seed, call.cases, defaults["scenarios"]["berndtsson-cex"])
    if call.kind == "bidisc_distance":
        return _bidisc_job(seed, call.cases)
    return _suite_job(call.kind, seed, call.cases, dict(call.extra))


def build_plan(name: str, seed: int, defaults: dict) -> Plan:
    """Every job of one pass of workload ``name``, inputs drawn from ``seed``."""
    wl = WORKLOADS[name]
    fixed = [_scenario_job(s) for s in wl.scenarios]
    if wl.c8:
        fixed.append(_c8_job())
    index = 0
    bulk = []
    for sc in wl.bulk:
        bulk.append(_seeded_job(sc, seed + index, defaults))
        index += 1
    rounds = []
    for _ in range(wl.rounds):
        rnd = []
        for sc in wl.round:
            rnd.append(_seeded_job(sc, seed + index, defaults))
            index += 1
        rounds.append(tuple(rnd))
    return Plan(wl, tuple(fixed), tuple(bulk), tuple(rounds))


def run_job(job: Job) -> Outcome:
    """Run one job; an unexpected ConvlabError fails all of its operations."""
    try:
        out = job.call()
    except ConvlabError as exc:
        return Outcome(f"{job.name}: {type(exc).__name__}: {exc}", job.ops, job.ops)
    if out.ops != job.ops:
        return Outcome(out.output, job.ops, job.ops)
    return out
