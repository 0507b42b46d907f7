"""Frozen scenario reports.

``tests/data/reports.json`` holds ``to_json(with_wall_time=False)`` of every
scenario at its packaged defaults.  The test re-runs each scenario and
compares its report with the frozen one leaf by leaf; a mismatch names every
moved leaf by its JSON path, with the old value, the new value and, for
floats, their distance in ulps.

After a declared change of numbers, regenerate the file with

    PYTHONPATH=src python tests/test_frozen_reports.py

and list the moved leaves, as the failure printed them, in CHANGES.md.

Float bits depend on the host: the C library's ``exp`` and ``log`` reach the
reports, and so do the numpy transcendentals of a few closed forms, whose
SIMD code paths may differ with AVX512_SKX (the fiber density uses
``math.exp``, so ``np.exp`` does not).  BLAS does not: every GK15 panel is
summed left to right without it and a Gram matrix is factored in plain
Python, so no report depends on OpenBLAS's core type
(``tests/test_prekopa.py::TestHostIndependence`` checks all ten reports on
other cores and below AVX-512).  The file records the environment it was
made in.  Non-float leaves are always compared exactly.  Floats are compared
exactly when the environment matches; otherwise the test is skipped, naming
both environments.  There is no ulp allowance.
"""

import importlib
import json
import math
import platform
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from convlab.scenarios import run_scenario, scenario_names

DATA = Path(__file__).with_name("data") / "reports.json"


def _multiarray_umath():
    for mod in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return importlib.import_module(mod)
        except ImportError:
            continue
    return None


def environment() -> dict:
    """What the bits of a report depend on besides the code."""
    features = getattr(_multiarray_umath(), "__cpu_features__", {})
    return {
        "numpy": np.__version__,
        "avx512_skx": bool(features.get("AVX512_SKX", False)),
        "libc": list(platform.libc_ver()),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
    }


def report(name: str) -> str:
    return run_scenario(name).to_json(with_wall_time=False)


def write() -> None:
    """Freeze every scenario's report, one line per scenario."""
    lines = [f"  {json.dumps(name)}: {report(name)}" for name in scenario_names()]
    DATA.write_text(
        '{"environment": ' + json.dumps(environment(), sort_keys=True) + ',\n'
        ' "reports": {\n' + ",\n".join(lines) + "\n }\n}\n")


def _ordered(x: float) -> int:
    """The float's bits as an integer that counts ulps across zero."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _ulps(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(_ordered(a) - _ordered(b))


_MISSING = "<missing>"


def moved_leaves(old, new, path: str, floats: bool = True) -> list:
    """Every leaf where ``new`` differs from ``old``, as (path, old, new, ulps).

    Floats match when their bits do; with ``floats=False`` two floats always
    match.  Any other leaf matches when its type and value do."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            out += moved_leaves(old.get(key, _MISSING), new.get(key, _MISSING),
                                f"{path}.{key}", floats)
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        for i in range(max(len(old), len(new))):
            out += moved_leaves(old[i] if i < len(old) else _MISSING,
                                new[i] if i < len(new) else _MISSING,
                                f"{path}[{i}]", floats)
        return out
    if type(old) is float and type(new) is float:
        if not floats or old.hex() == new.hex():
            return []
        return [(path, old, new, _ulps(old, new))]
    if type(old) is type(new) and old == new:
        return []
    return [(path, old, new, None)]


def _describe(moved) -> str:
    lines = [f"{len(moved)} moved leaves (path: old -> new, ulps):"]
    for path, old, new, ulps in moved:
        lines.append(f"  {path}: {old!r} -> {new!r}" + ("" if ulps is None else f", {ulps} ulp"))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def frozen() -> dict:
    return json.loads(DATA.read_text())


def test_every_scenario_is_frozen(frozen):
    assert list(frozen["reports"]) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_report_matches_the_frozen_one(frozen, name):
    here, there = environment(), frozen["environment"]
    same_host = here == there
    moved = moved_leaves(frozen["reports"][name], json.loads(report(name)), name,
                         floats=same_host)
    assert not moved, _describe(moved)
    if not same_host:
        pytest.skip(f"float bits were frozen in {there}, this is {here}; "
                    "only non-float leaves were compared")


def test_a_moved_float_is_named_with_its_ulps():
    old = {"rows": [{"value": 1.0, "ok": True}]}
    new = {"rows": [{"value": math.nextafter(1.0, 2.0), "ok": True}]}
    assert moved_leaves(old, new, "s") == [("s.rows[0].value", 1.0, new["rows"][0]["value"], 1)]
    assert moved_leaves(old, new, "s", floats=False) == []
    assert moved_leaves({"a": 1}, {"a": 1.0, "b": "x"}, "s") == [
        ("s.a", 1, 1.0, None), ("s.b", _MISSING, "x", None)]
    assert moved_leaves([0.0], [-0.0], "s") == [("s[0]", 0.0, -0.0, 0)]


if __name__ == "__main__":
    write()
    print(f"wrote {DATA}")
