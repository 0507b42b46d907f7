"""Named verification scenarios with versioned defaults and JSON reports.

Each scenario is a scripted experiment: it builds weights and domains from its
parameter dict, runs the transforms, and returns a list of named checks with
numeric evidence.  The registry is closed -- exactly the ten scenarios below
-- and every default lives in ``defaults.json`` next to this module, so a run
is reproducible from the package alone.  ``CONVLAB_DEFAULTS`` points the
loader at an alternative defaults file; its ``version`` field must match what
this module expects, which keeps stale parameter files from silently driving
new code.  Such a file, and the overrides passed to ``run_scenario``, must give
each parameter the JSON type of its packaged default: an int stays an int, a
float may be written as an int, a bool is never a number, and a list is
checked element by element.

Reports serialize deterministically: two runs of the same scenario produce
byte-identical JSON except for the ``wall_time`` field.  Scenarios put raw
values, rows and report dataclasses into each check's ``detail``; one encoder,
``_jsonable``, turns the whole report into JSON data, writing a non-finite
float as the string ``"inf"``, ``"-inf"`` or ``"nan"``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields, is_dataclass
from importlib import resources

import numpy as np

from . import bergman, prekopa
from .errors import DiscEscapesDomain, InvalidParam, UnknownScenario
from .geometry import (AffineFiberMap, AnalyticDisc, ball_domain, bidisc,
                       disc_distance_check, disc_region, dumbbell, fiber_distance,
                       full_space, hartogs_figure, midpoint_closure_check,
                       punctured_ball)
from .weights import (RadialProfile, WeightField, constant_weight, convex_localizer,
                      stock_weight)

__all__ = ["Check", "RunReport", "run_scenario", "list_scenarios",
           "scenario_names", "load_defaults", "DEFAULTS_VERSION"]

DEFAULTS_VERSION = 1

_SEED = 20210921


def _jsonable(obj):
    """``obj`` as plain JSON data: dataclasses become dicts of their fields,
    tuples become lists, numpy scalars become Python numbers, and a non-finite
    float becomes the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else ("inf" if v > 0.0 else "-inf")
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot encode a {type(obj).__name__} in a report")


@dataclass(frozen=True)
class Check:
    """One named pass/fail observation with its numeric evidence: a dict, or
    a report dataclass, that ``_jsonable`` can encode."""

    name: str
    passed: bool
    detail: object

    def __post_init__(self):
        # verdicts computed from numpy values arrive as numpy.bool; callers
        # and the report's own ``passed`` get a plain bool
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class RunReport:
    scenario: str
    params: dict
    checks: tuple
    passed: bool
    wall_time: float

    def to_jsonable(self, with_wall_time: bool = True) -> dict:
        out = _jsonable(self)
        if not with_wall_time:
            del out["wall_time"]
        return out

    def to_json(self, with_wall_time: bool = True) -> str:
        return json.dumps(self.to_jsonable(with_wall_time), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# Defaults


def _packaged_defaults() -> dict:
    return json.loads(
        resources.files("convlab").joinpath("defaults.json").read_text())


def _fits(default, value) -> bool:
    """Whether ``value`` has the JSON type of ``default``: an int must be an
    int, a float may be an int or a finite float, a bool is never a number,
    and each element of a list must fit an element of the default list."""
    if isinstance(default, list):
        return isinstance(value, list) and all(
            any(_fits(d, v) for d in default) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, type(default))


def _check_types(name: str, params: dict, packaged: dict) -> None:
    """Reject a parameter of scenario ``name`` whose JSON type differs from
    that of its packaged default."""
    for key, value in params.items():
        if not _fits(packaged[key], value):
            raise InvalidParam(
                f"{name} parameter {key} = {value!r} does not have the JSON "
                f"type of its default {packaged[key]!r}")


# List parameters that a scenario reads at fixed positions, and list pairs
# that it zips; every other list must simply not be empty.
_LIST_LENGTHS = {
    "lemma1": {"frozen_values": 2},
    "min-principle": {"ts": 3, "expected": 3},
    "midpoint-probe": {"dumbbell_p0": 2, "dumbbell_p1": 2, "ball_p0": 2, "ball_p1": 2},
}
_SAME_LENGTHS = {"lemma2": ("ks", "frozen_values"), "lemma3": ("ks", "frozen_lower")}
# Int parameters that a scenario hands to numpy as sample counts, with the
# least count each needs; every other int is checked where it is used.
_LEAST_COUNTS = {"prekopa-cex": {"grid_n": 3},
                 "berndtsson-cex": {"psh_centers": 1, "positivity_n": 1}}


def _check_sizes(name: str, params: dict) -> None:
    """Reject an empty list parameter of scenario ``name``, a list of the
    wrong length where the scenario reads fixed positions, a zipped pair of
    unequal lengths, and a sample count below the least it needs."""
    fixed = _LIST_LENGTHS.get(name, {})
    for key, value in params.items():
        if not isinstance(value, list):
            continue
        want = fixed.get(key)
        if not value or (want is not None and len(value) != want):
            need = "at least one value" if want is None else f"{want} values"
            raise InvalidParam(f"{name} parameter {key} needs {need}, got {len(value)}")
    if name in _SAME_LENGTHS:
        a, b = _SAME_LENGTHS[name]
        if len(params[a]) != len(params[b]):
            raise InvalidParam(f"{name} parameters {a} and {b} need as many values "
                               f"each, got {len(params[a])} and {len(params[b])}")
    for key, least in _LEAST_COUNTS.get(name, {}).items():
        if params[key] < least:
            raise InvalidParam(f"{name} parameter {key} needs at least {least}, "
                               f"got {params[key]}")


def _reject_constant(name: str):
    """``json``'s hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise ValueError(f"non-finite number {name}")


def load_defaults() -> dict:
    """Scenario parameter defaults, from the packaged file or CONVLAB_DEFAULTS."""
    path = os.environ.get("CONVLAB_DEFAULTS")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_constant=_reject_constant)
        except OSError as exc:
            raise InvalidParam(f"cannot read the defaults file: {exc}") from exc
        except ValueError as exc:  # malformed JSON or text encoding
            raise InvalidParam(f"defaults file {path} is not valid JSON: {exc}") from exc
    else:
        data = _packaged_defaults()
    if not isinstance(data, dict):
        raise InvalidParam(
            f"defaults file must hold a JSON object, not {type(data).__name__}")
    if data.get("version") != DEFAULTS_VERSION:
        raise InvalidParam(
            f"defaults file version {data.get('version')!r} does not match "
            f"the expected version {DEFAULTS_VERSION}")
    scen = data.get("scenarios")
    if not isinstance(scen, dict) or set(scen) != set(_REGISTRY):
        raise InvalidParam("defaults file does not cover exactly the registered scenarios")
    if not all(isinstance(v, dict) for v in scen.values()):
        raise InvalidParam("defaults file gives a scenario's parameters as a non-object")
    if path:
        packaged = _packaged_defaults()["scenarios"]
        for name, params in scen.items():
            missing = set(packaged[name]) - set(params)
            unknown = set(params) - set(packaged[name])
            if missing or unknown:
                raise InvalidParam(
                    f"defaults file gives {name} the wrong parameters: missing "
                    f"{sorted(missing)}, unknown {sorted(unknown)}")
            _check_types(name, params, packaged[name])
            _check_sizes(name, params)
    return data


_REGISTRY: dict = {}


def _scenario(name: str, summary: str):
    def wrap(fn):
        _REGISTRY[name] = (fn, summary)
        return fn
    return wrap


def scenario_names() -> list:
    return list(_REGISTRY)


def list_scenarios() -> list:
    return [(name, summary) for name, (_, summary) in _REGISTRY.items()]


def run_scenario(name: str, overrides: dict | None = None) -> RunReport:
    if name not in _REGISTRY:
        raise UnknownScenario(f"no scenario named {name!r}; "
                              f"known: {', '.join(_REGISTRY)}")
    fn, _ = _REGISTRY[name]
    params = dict(load_defaults()["scenarios"][name])
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise InvalidParam(f"unknown parameters for {name}: {sorted(unknown)}")
        _check_types(name, overrides, _packaged_defaults()["scenarios"][name])
        params.update(overrides)
        _check_sizes(name, params)
    start = time.perf_counter()
    checks = tuple(fn(params))
    wall = time.perf_counter() - start
    return RunReport(scenario=name, params=params, checks=checks,
                     passed=all(c.passed for c in checks), wall_time=wall)


# ---------------------------------------------------------------------------
# Scenarios


def _max_error(got, want) -> float:
    """The largest ``|a - b|`` over paired values, in any order of the pairs:
    equal values (``inf == inf`` too) count as no error, and a NaN error
    anywhere makes the result NaN."""
    errs = [0.0 if a == b else abs(a - b) for a, b in zip(got, want)]
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


@_scenario("prekopa-cex",
           "radial dent weight: non-convex, yet its marginal stays convex")
def _prekopa_cex(p):
    eps = p["eps"]
    line = full_space((1, 1))
    w = stock_weight("prekopa_cex", eps)
    checks = []

    pts = list(p["sample_ts"])
    quad = [prekopa.marginal_transform(w, line, t) for t in pts]
    closed = [prekopa.dent_marginal_closed(t, eps) for t in pts]
    err = _max_error(quad, closed)
    checks.append(Check(
        "closed-vs-quadrature", err <= p["value_tol"],
        {"ts": pts, "quadrature": quad,
         "closed": closed, "max_error": err,
         "tol": p["value_tol"]}))

    ts = np.linspace(-p["grid_span"], p["grid_span"], p["grid_n"])
    curve = prekopa.sample_marginal_curve(w, line, ts)
    rep = curve.convexity(tol=p["convexity_tol"])
    checks.append(Check("midpoint-convexity", rep.verdict, rep))

    h = p["quotient_h"]
    f = lambda t: prekopa.marginal_transform(w, line, t)
    right = (f(eps + h) - f(eps)) / h
    left = (f(eps) - f(eps - h)) / h
    slope_ok = (abs(right - 2 * eps) <= p["quotient_tol"]
                and abs(left - 2 * eps) <= p["quotient_tol"])
    checks.append(Check(
        "seam-slope", slope_ok,
        {"left": left, "right": right, "target": 2 * eps,
         "h": h, "tol": p["quotient_tol"]}))
    return checks


@_scenario("twisted-nonconvex",
           "a bounded twist breaks marginal convexity of the dent weight")
def _twisted_nonconvex(p):
    eps, k, s = p["eps"], p["k"], p["probe_t"]
    line = full_space((1, 1))
    w = stock_weight("prekopa_cex", eps)
    psi = convex_localizer(k, AffineFiberMap.constant((0.0,), 1))
    mid = prekopa.twisted_marginal(w, psi, line, 0.0)
    left = prekopa.twisted_marginal(w, psi, line, -s)
    right = prekopa.twisted_marginal(w, psi, line, s)
    violation = mid - 0.5 * (left + right)
    value_ok = (abs(mid - p["frozen_mid"]) <= p["frozen_tol"]
                and abs(left - p["frozen_side"]) <= p["frozen_tol"]
                and abs(right - p["frozen_side"]) <= p["frozen_tol"])
    return [
        Check("midpoint-violation", violation >= p["min_violation"],
              {"left": left, "mid": mid, "right": right,
               "violation": violation, "min_violation": p["min_violation"]}),
        Check("localized-values", value_ok,
              {"mid": mid, "frozen_mid": p["frozen_mid"],
               "side": right, "frozen_side": p["frozen_side"],
               "tol": p["frozen_tol"]}),
    ]


@_scenario("lemma1",
           "cone-twisted marginals collapse to the weight value on the moving center")
def _lemma1(p):
    line = full_space((1, 1))
    sq = WeightField(restrict=lambda t: lambda x: x[0] * x[0], base_rdim=1, fiber_rdim=1,
                     lower_bound=0.0)
    amap = AffineFiberMap.through(0.0, (0.0,), 1.0, (1.0,))
    rows = prekopa.localization_rows(sq, line, amap, p["ks"], p["t"])
    errs = [r.error for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    checks = [Check(
        "localization-convergence", decreasing and errs[-1] < p["final_error"],
        {"rows": rows, "final_error": p["final_error"]})]

    frozen = p["frozen_values"]
    spot_ok = (abs(rows[0].value - frozen[0]) <= p["frozen_tol"]
               and abs(rows[-1].value - frozen[1]) <= p["frozen_tol"])
    checks.append(Check(
        "frozen-endpoints", spot_ok,
        {"first": rows[0].value, "last": rows[-1].value,
         "frozen": frozen, "tol": p["frozen_tol"]}))

    zero = constant_weight(0.0, 1, 1)
    a0 = AffineFiberMap.constant((0.0,), 1)
    idents = []
    ident_ok = True
    for k in p["identity_ks"]:
        got = prekopa.twisted_marginal(zero, convex_localizer(k, a0), line, 0.3)
        want = -math.log1p(1.0 / k)
        idents.append({"k": k, "value": got, "target": want})
        ident_ok = ident_ok and abs(got - want) <= p["identity_tol"]
    checks.append(Check("flat-identity", ident_ok,
                        {"rows": idents, "tol": p["identity_tol"]}))

    db = dumbbell()
    away = AffineFiberMap.constant((p["dumbbell_center"],), 1)
    psi = convex_localizer(p["dumbbell_k"], away)
    val = prekopa.twisted_marginal(constant_weight(0.0, 1, 1), psi, db, 0.0)
    checks.append(Check(
        "empty-neighborhood-blowup", val > p["dumbbell_threshold"],
        {"value": val, "threshold": p["dumbbell_threshold"]}))
    return checks


@_scenario("min-principle",
           "distance-penalty infima violate midpoint convexity for the dent weight")
def _min_principle(p):
    line = full_space((1, 1))
    w = stock_weight("minprinciple_cex")
    a0 = AffineFiberMap.constant((0.0,), 1)
    k = p["k"]
    us = [prekopa.min_principle_transform(w, line, a0, k, t) for t in p["ts"]]
    expected = list(p["expected"])
    value_ok = all(abs(u - e) <= p["value_tol"] for u, e in zip(us, expected))
    violation = us[1] - 0.5 * (us[0] + us[2])
    checks = [
        Check("penalized-infima", value_ok,
              {"ts": p["ts"], "values": us,
               "expected": expected, "tol": p["value_tol"]}),
        Check("midpoint-violation", violation >= p["min_violation"],
              {"violation": violation, "min_violation": p["min_violation"]}),
    ]

    box = [(-p["search_box"], p["search_box"])]
    infs = []
    inf_ok = True
    for t in p["inf_ts"]:
        _, v = prekopa.infimum_over_fiber(w, line, t, search_box=box)
        want = max(t * t - 1.0, 0.0)
        infs.append({"t": t, "value": v, "target": want})
        inf_ok = inf_ok and (v == want or abs(v - want) <= p["inf_tol"])  # inf == inf
    checks.append(Check("fiber-infimum-convex-envelope", inf_ok,
                        {"rows": infs, "tol": p["inf_tol"]}))
    return checks


@_scenario("berndtsson-cex",
           "log dent weight: non-psh, yet its log fiber mass stays subharmonic")
def _berndtsson_cex(p):
    eps = p["eps"]
    checks = []

    quad = bergman.berndtsson_phi_curve(eps, p["z_abs"])
    closed = [bergman.berndtsson_phi_closed(z, eps) for z in p["z_abs"]]
    err = _max_error(quad, closed)
    checks.append(Check(
        "mass-closed-vs-quadrature", err <= p["mass_tol"],
        {"z_abs": p["z_abs"], "quadrature": quad,
         "closed": closed, "max_error": err,
         "tol": p["mass_tol"]}))

    mt = bergman.radial_moments(
        bergman.berndtsson_profile(complex(p["divergence_z"], 0.0), eps),
        p["moment_count"])
    want = ("finite",) + ("divergent",) * p["moment_count"]
    checks.append(Check(
        "only-constants-survive", mt.statuses == want,
        {"statuses": mt.statuses, "m0": mt.values[0]}))

    rng = np.random.default_rng(_SEED)
    pts = rng.uniform(-0.6, 0.6, size=(p["psh_centers"], 2))
    centers = [complex(a, b) for a, b in pts]
    u = lambda z: bergman.berndtsson_phi_closed(abs(z), eps)
    rep = bergman.psh_mean_value_check(u, centers, p["psh_radii"],
                                       n_angles=p["psh_angles"],
                                       tol=p["psh_tol"])
    checks.append(Check("log-mass-submean", rep.verdict, rep))

    rows = bergman.laplacian_check(eps, p["laplacian_zs"], h=p["laplacian_h"])
    lap_ok = all(r.error <= p["laplacian_tol"] for r in rows)
    checks.append(Check(
        "inner-laplacian-closed-form", lap_ok,
        {"rows": rows, "tol": p["laplacian_tol"]}))

    samples = np.linspace(0.0, p["positivity_max"], p["positivity_n"])
    vals = bergman.berndtsson_inner_laplacian(samples, eps)
    low, high = float(vals.min()), float(vals.max())
    checks.append(Check(
        "inner-laplacian-positive", low > 0.0,
        {"min": low, "max": high,
         "n": p["positivity_n"], "z_max": p["positivity_max"]}))
    return checks


@_scenario("lemma2",
           "log-cone-localized kernels converge to e^{weight} at the center")
def _lemma2(p):
    prof = RadialProfile(fn=lambda r: r * r, cutoff=math.inf)
    rows = bergman.lemma2_harness(prof, p["ks"])
    errs = [r.error for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    upper_ok = all(r.value <= r.upper + p["upper_slack"] for r in rows)
    frozen = p["frozen_values"]
    frozen_ok = all(abs(r.value - f) <= p["frozen_tol"]
                    for r, f in zip(rows, frozen))
    detail = {"rows": rows}
    return [
        Check("kernel-convergence",
              decreasing and errs[-1] < p["final_error"], detail),
        Check("finite-sharpness-upper-bound", upper_ok,
              {"upper_slack": p["upper_slack"]}),
        Check("frozen-values", frozen_ok,
              {"frozen": frozen, "tol": p["frozen_tol"]}),
    ]


@_scenario("lemma3",
           "log shell kernels are bracketed and approach the limit disc kernel")
def _lemma3(p):
    rows = bergman.lemma3_harness(p["ks"], p["r"], degree=p["degree"])
    tol = p["bracket_tol"]
    bracket_ok = all(r.lower - tol <= r.value <= r.upper + tol for r in rows)
    frozen = p["frozen_lower"]
    frozen_ok = all(abs(r.lower - f) <= p["frozen_tol"]
                    for r, f in zip(rows, frozen))
    limit = 1.0 / (math.pi * p["r"] ** 2)
    final_gap = abs(rows[-1].value - limit)
    checks = [
        Check("kernel-bracket", bracket_ok,
              {"rows": rows, "tol": tol}),
        Check("frozen-lower-bounds", frozen_ok,
              {"frozen": frozen, "tol": p["frozen_tol"]}),
        Check("limit-disc-kernel", final_gap <= p["final_gap"],
              {"value": rows[-1].value, "limit": limit,
               "gap": final_gap, "max_gap": p["final_gap"]}),
    ]

    small = bergman.lemma3_harness((p["ks"][0],), p["r"],
                                   domain=disc_region(p["small_radius"]),
                                   degree=p["degree"])[0]
    want = 1.0 / (math.pi * p["small_radius"] ** 2)
    small_ok = (small.upper is None
                and abs(small.lower - want) <= 1e-8
                and small.value >= small.lower - tol)
    checks.append(Check(
        "shell-outside-small-domain", small_ok,
        {"lower": small.lower, "value": small.value,
         "upper": None, "expected_lower": want}))
    return checks


@_scenario("midpoint-probe",
           "twisted marginals certify non-convex fibered domains, and only those")
def _midpoint_probe(p):
    ks = tuple(p["ks"])
    checks = []

    db = dumbbell()
    zero = constant_weight(0.0, 1, 1)
    rep = prekopa.midpoint_divergence_probe(zero, db, p["dumbbell_p0"],
                                            p["dumbbell_p1"], ks)
    geo = midpoint_closure_check(db, p["dumbbell_p0"], p["dumbbell_p1"])
    checks.append(Check("dumbbell-violation", rep.verdict and not geo.in_closure,
                        {"probe": rep,
                         "midpoint_in_closure": geo.in_closure}))

    ball = ball_domain((1, 1), radius=p["ball_radius"])
    rep2 = prekopa.midpoint_divergence_probe(zero, ball, p["ball_p0"],
                                             p["ball_p1"], ks)
    checks.append(Check("round-domain-clean", not rep2.verdict,
                        {"probe": rep2}))

    pb = punctured_ball((1, 1), radius=p["ball_radius"])
    rep3 = prekopa.midpoint_divergence_probe(zero, pb, p["ball_p0"],
                                             p["ball_p1"], ks)
    geo3 = midpoint_closure_check(pb, p["ball_p0"], p["ball_p1"])
    checks.append(Check(
        "puncture-invisible", (not rep3.verdict) and geo3.in_closure,
        {"probe": rep3, "midpoint_in_closure": geo3.in_closure}))
    return checks


@_scenario("disc-distance",
           "analytic discs reach no deeper than their boundaries in pseudoconvex regions")
def _disc_distance(p):
    n_i, n_b = p["n_interior"], p["n_boundary"]
    checks = []

    bd = bidisc()
    graph = AnalyticDisc(base=(0.0, 0.5), fibers=((0.0, 0.0, 0.5),))
    rep = disc_distance_check(bd, graph, n_interior=n_i, n_boundary=n_b)
    checks.append(Check(
        "graph-disc-gap", abs(rep.gap) <= p["gap_tol"], rep))

    const = AnalyticDisc(base=(0.0, p["const_base_slope"]),
                         fibers=((p["const_fiber"],),))
    rep2 = disc_distance_check(bd, const, n_interior=n_i, n_boundary=n_b)
    checks.append(Check("constant-fiber-gap", rep2.gap == 0.0,
                        rep2))

    hart = hartogs_figure()
    witness = AnalyticDisc(base=(0.0, p["witness_slope"]),
                           fibers=((p["witness_fiber"],),))
    rep3 = disc_distance_check(hart, witness, n_interior=n_i, n_boundary=n_b)
    checks.append(Check(
        "hartogs-witness-violation", rep3.gap < p["witness_gap_below"],
        rep3))

    escaper = AnalyticDisc(base=(0.0, 0.8), fibers=((p["escape_fiber"],),))
    try:
        disc_distance_check(bd, escaper, n_interior=256, n_boundary=64)
        escaped = False
    except DiscEscapesDomain:
        escaped = True
    checks.append(Check("escape-detected", escaped,
                        {"fiber_value": p["escape_fiber"]}))
    return checks


@_scenario("psh-delta",
           "minus log fiber distance obeys the submean test exactly when the region is pseudoconvex")
def _psh_delta(p):
    n_angles = p["n_angles"]
    checks = []

    bd = bidisc()
    passing = [
        AnalyticDisc(base=(0.0, 0.5), fibers=((0.0, 0.0, 0.5),)),
        AnalyticDisc(base=(0.3, 0.5), fibers=((0.0, 0.2),)),
        AnalyticDisc(base=(0.0, 0.9), fibers=((0.1, 0.0, 0.0, 0.3),)),
    ]
    worst = -math.inf
    for disc in passing:
        u = _disc_log_distance(bd, disc)
        rep = bergman.psh_mean_value_check(u, [0.0 + 0j], p["radii"],
                                           n_angles=n_angles, tol=p["tol"])
        worst = max(worst, rep.worst_deficit)
    checks.append(Check("bidisc-submean", worst <= p["tol"],
                        {"worst_deficit": worst, "tol": p["tol"],
                         "discs": len(passing)}))

    hart = hartogs_figure()
    witness = AnalyticDisc(base=(0.0, 1.0), fibers=((p["witness_fiber"],),))
    u = _disc_log_distance(hart, witness)
    rep = bergman.psh_mean_value_check(u, [0.0 + 0j], (p["witness_radius"],),
                                       n_angles=n_angles)
    expected = math.log(3.0)
    checks.append(Check(
        "hartogs-submean-violation",
        rep.worst_deficit > p["min_deficit"]
        and abs(rep.worst_deficit - expected) <= p["deficit_tol"],
        {"deficit": rep.worst_deficit, "expected": expected,
         "min_deficit": p["min_deficit"], "tol": p["deficit_tol"]}))
    return checks


def _disc_log_distance(domain, disc):
    """-log of the fiber boundary distance along an analytic disc, as an array
    map for ``psh_mean_value_check``: one batched ``fiber_distance`` call per
    array of disc points (a probe circle, or the centres), with ``math.log``
    taken per value."""
    def u(w):
        q = disc.eval_real(w)
        return np.array([-math.log(d) for d in fiber_distance(domain, q[:2], q[2:]).tolist()])
    return u
