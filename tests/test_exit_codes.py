"""Fuzz of the CLI exit-code contract: every invocation ends in 0, 1, 2 or 3.

``cli.main`` runs in process over pairs of flags of ``marginal``, ``bergman``
and ``check-psh``, list flags included, with values at the edges of the float
range, and over ``run`` with a defaults file at such a value.  RuntimeWarnings are errors here, as in the Tier-1 run, so a numpy
warning that escapes counts as a failure too.  Sizes stay small, and nothing
starts a process or a thread.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab.cli import main
from convlab.scenarios import load_defaults

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_principle_at_a_huge_base_point_is_a_numerical_failure(tmp_path, monkeypatch):
    # the dent is +inf on the whole fiber at t = 1e200, so no search box exists
    data = load_defaults()
    data["scenarios"]["min-principle"]["ts"] = [0.0, 0.4, 1e200]
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("CONVLAB_DEFAULTS", str(path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "min-principle"])
    assert code == 2
    assert "anchor value is +inf" in err.getvalue()
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
