"""Fuzz of the CLI exit-code contract: every invocation ends in 0, 1, 2 or 3.

``cli.main`` runs in process over pairs of flags of ``marginal``, ``bergman``
and ``check-psh``, list flags included, with values at the edges of the float
range, over ``run`` with a defaults file at such a value or with an int
parameter at -1, over ``check-convex`` files with malformed, non-finite,
repeated, descending or float-range-wide rows, and over ``--csv`` and
``--json`` paths that cannot be written.  RuntimeWarnings are errors here, as
in the Tier-1 run, so a numpy warning that escapes counts as a failure too.  Sizes stay small, and nothing
starts a process or a thread.  A NaN at each positivity guard of the library
raises InvalidParam, the usage error (exit 3).
"""

import contextlib
import dataclasses
import io
import json
import math
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab import bergman, prekopa
from convlab.cli import main
from convlab.errors import InvalidParam
from convlab.geometry import AffineFiberMap, Ball, full_space
from convlab.scenarios import load_defaults
from convlab.weights import RadialProfile, constant_weight, lemma3_weight, stock_weight

EDGE_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0,
               1e-300, 0.5, 3.0, 1e308)

# command -> (flags always given, to keep sizes small; float flags;
# int flags with their ranges; list flags)
COMMANDS = {
    "marginal": (["--n=5"], ["--eps", "--lo", "--hi", "--tol"],
                 {"--n": (-1, 9)}, []),
    "bergman": (["--z", "0.2", "--moments=1"], ["--eps"],
                {"--moments": (-1, 4)}, ["--z"]),
    "check-psh": (["--centers=2", "--angles=64"], ["--eps", "--tol"],
                  {"--centers": (-1, 3), "--angles": (-1, 64), "--seed": (-1, 7)},
                  ["--radii"]),
}


def _entry(v: float) -> str:
    # a list entry follows its flag as a token of its own; a leading space
    # keeps argparse from reading "-inf" or "-1e+308" as an option, and
    # float() strips it
    return f" {v!r}"


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, floats, ints, lists = COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(floats + sorted(ints) + lists),
                          min_size=1, max_size=2, unique=True))
    argv = [command, *base]
    for flag in flags:
        if flag in ints:
            lo, hi = ints[flag]
            argv.append(f"{flag}={draw(st.integers(lo, hi))}")
        elif flag in lists:
            values = draw(st.lists(st.sampled_from(EDGE_FLOATS), min_size=1, max_size=3))
            argv += [flag, *map(_entry, values)]
        else:
            argv.append(f"{flag}={draw(st.sampled_from(EDGE_FLOATS))!r}")
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=invocations())
@example(argv=["marginal", "--hi=inf"])
@example(argv=["marginal", "--lo=-1e+308", "--hi=1e+308"])
@example(argv=["marginal", "--n=5", "--hi=1e+308"])
@example(argv=["check-psh", "--centers=1", "--seed=-1"])
def test_every_invocation_ends_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 3):
        assert err.getvalue(), argv


def _run_with_defaults(data, name, tmp_path, monkeypatch):
    """``convlab run name`` with ``data`` as the defaults file: (code, stderr)."""
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("CONVLAB_DEFAULTS", str(path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", name])
    return code, err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_principle_at_a_huge_base_point_is_a_numerical_failure(tmp_path, monkeypatch):
    # the dent is +inf on the whole fiber at t = 1e200, so no search box exists
    data = load_defaults()
    data["scenarios"]["min-principle"]["ts"] = [0.0, 0.4, 1e200]
    code, err = _run_with_defaults(data, "min-principle", tmp_path, monkeypatch)
    assert code == 2
    assert "anchor value is +inf" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, key, message", [
    # x^2 on the moving center a(t) = t is +inf, so no localization gap exists
    ("lemma1", "t", "moving center is inf"),
    # the witness disc reaches w = 1e200, far outside the Hartogs figure
    ("psh-delta", "witness_radius", "is not in the slice"),
    # a batch of disc samples squares 1e200 past the float range
    ("disc-distance", "witness_slope", "leaves the domain"),
    ("disc-distance", "const_fiber", "leaves the domain"),
])
def test_a_huge_input_is_a_numerical_failure(name, key, message, tmp_path, monkeypatch):
    data = load_defaults()
    data["scenarios"][name][key] = 1e200
    code, err = _run_with_defaults(data, name, tmp_path, monkeypatch)
    assert code == 2
    assert message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ts", [[0.0, 1e200], [1e200, 0.0]])
def test_an_infinite_sample_passes_in_either_order(ts, tmp_path, monkeypatch):
    # at t = 1e200 the quadrature and the closed form are both +inf, which is
    # no error, wherever that sample comes
    data = load_defaults()
    data["scenarios"]["prekopa-cex"]["sample_ts"] = ts
    code, err = _run_with_defaults(data, "prekopa-cex", tmp_path, monkeypatch)
    assert code == 0
    assert "Traceback" not in err and "RuntimeWarning" not in err


# every int parameter of the packaged defaults, lists of ints included
INT_PARAMETERS = [(name, key) for name, params in load_defaults()["scenarios"].items()
                  for key, value in params.items()
                  if type(value[0] if isinstance(value, list) else value) is int]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, key", INT_PARAMETERS,
                         ids=[f"{name}.{key}" for name, key in INT_PARAMETERS])
def test_a_negative_int_parameter_is_a_usage_error(name, key, tmp_path, monkeypatch):
    data = load_defaults()
    params = data["scenarios"][name]
    if isinstance(params[key], list):
        params[key][0] = -1
    else:
        params[key] = -1
    code, err = _run_with_defaults(data, name, tmp_path, monkeypatch)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_positivity_samples_is_a_usage_error(tmp_path, monkeypatch):
    data = load_defaults()
    data["scenarios"]["berndtsson-cex"]["positivity_n"] = 0
    code, err = _run_with_defaults(data, "berndtsson-cex", tmp_path, monkeypatch)
    assert code == 3
    assert err == "error: berndtsson-cex parameter positivity_n needs at least 1, got 0\n"


NAN_GUARDS = {
    "RadialProfile.cutoff": lambda: RadialProfile(fn=lambda r: r, cutoff=math.nan),
    "bergman_radial.rho": lambda: bergman.bergman_radial(
        bergman.MomentTable(values=(1.0,), statuses=("finite",)), math.nan),
    "bergman_radial.moment": lambda: bergman.bergman_radial(
        bergman.MomentTable(values=(math.nan,), statuses=("finite",)), 0.5),
    "laplacian_check.h": lambda: bergman.laplacian_check(0.3, [0.0], h=math.nan),
    "lemma3_weight.r": lambda: lemma3_weight(10, math.nan),
    "Ball.radius": lambda: Ball((0.0,), math.nan, (0,)),
    "min_principle_transform.k": lambda: prekopa.min_principle_transform(
        stock_weight("minprinciple_cex"), full_space((1, 1)),
        AffineFiberMap.constant((0.0,), 1), math.nan, 0.4),
    "WeightField.decay_rate": lambda: dataclasses.replace(
        constant_weight(0.0, 1, 1), decay_rate=math.nan),
}


@pytest.mark.parametrize("guard", sorted(NAN_GUARDS))
def test_nan_fails_every_positivity_guard(guard):
    with pytest.raises(InvalidParam):
        NAN_GUARDS[guard]()


# check-convex bodies: rows on a grid that may repeat, descend or leave the
# float range, or rows of arbitrary cells, blank rows and wrong column counts
CSV_CELLS = ("0", "1", "-2.5", "0.5", "1e-300", "1e308", "-1e308", "1.7e308", "-1.7e308",
             "nan", "inf", "-inf", "", "x")


@st.composite
def csv_bodies(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        start = draw(st.sampled_from((0.0, 1.0, -1e308, -1.7e308, 1.7e308)))
        step = draw(st.sampled_from((1.0, 0.5, 0.0, -1.0, 1e308, 1.7e308)))
        rows = [f"{start + i * step!r},{draw(st.sampled_from(CSV_CELLS))}" for i in range(n)]
    else:
        rows = draw(st.lists(st.lists(st.sampled_from(CSV_CELLS), max_size=3).map(",".join),
                             max_size=6))
    return "t,value\n" + "\n".join(rows) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
@given(body=csv_bodies())
@example(body="t,value\n-1.7e308,0\n0.0,1\n1.7e308,0\n")  # a span beyond the float range
@example(body="t,value\n-1.7e308,0\n1.7e308,1\n1.71e308,0\n")  # a step beyond it
@example(body="t,value\n0,0\n\n1,1\n2,0\n")
@example(body="t,value\n0,0\n1,1,1\n2,0\n")
@example(body="t,value\n0,0\n1,1\n1,0\n")
@example(body="t,value\n2,0\n1,1\n0,0\n")
def test_every_check_convex_body_ends_in_a_documented_exit_code(body, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "curve.csv"
    path.write_text(body)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check-convex", str(path)])
    assert code in (0, 1, 3), (body, code)
    assert "Traceback" not in err.getvalue(), body
    if code == 3:
        assert err.getvalue().startswith("error: "), body


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["marginal", "--n=5", "--csv", "{dir}"],
    ["marginal", "--n=5", "--csv", "{dir}/missing/curve.csv"],
    ["run", "psh-delta", "--json", "{dir}"],
    ["run", "psh-delta", "--json", "{dir}/missing/report.json"],
], ids=["csv-to-a-directory", "csv-parent-missing", "json-to-a-directory",
        "json-parent-missing"])
def test_an_unwritable_output_path_is_a_usage_error(argv, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([a.format(dir=tmp_path) for a in argv])
    assert code == 3, err.getvalue()
    assert err.getvalue().startswith("error: cannot write the output file"), err.getvalue()
    assert "Traceback" not in err.getvalue()
