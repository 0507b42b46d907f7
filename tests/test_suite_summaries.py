"""Frozen summaries of the randomized property suites.

``tests/data/suite_summaries.json`` holds the summary of every suite in
``suites.ALL_SUITES``, run at the acceptance seed ``SUITE_SEED_BASE + idx``
with a few cases each (``SMALL``).  The test re-runs each suite and compares
``json.dumps(summary, sort_keys=True)`` with the frozen one, byte for byte:
a change of the quadrature, the weights or the suites' own sampling that
moves any worst margin, any case count or any failure message shows up
here, even where the acceptance gate still passes.

After a declared change of numbers, regenerate the file with

    PYTHONPATH=src python tests/test_suite_summaries.py

and say in CHANGES.md which summaries moved.  As with the frozen reports,
the float bits depend on the host's ``exp`` and ``log``: the file records
the environment it was made in, and on another environment only the
non-float leaves are compared.
"""

import json
from pathlib import Path

import pytest

import suites
from test_acceptance import SUITE_SEED_BASE
from test_frozen_reports import _describe, environment, moved_leaves

DATA = Path(__file__).with_name("data") / "suite_summaries.json"

# Few cases per suite, and one Gram case for kernel-monotonicity: every
# suite still runs its whole body, in a fraction of a second.
SMALL = {"cases": 10}
SMALL_KERNEL = {"cases": 10, "gram_cases": 1}

SUITES = list(enumerate(suites.ALL_SUITES))


def summary(idx: int, fn) -> str:
    kwargs = SMALL_KERNEL if fn is suites.kernel_monotonicity_suite else SMALL
    return json.dumps(fn(SUITE_SEED_BASE + idx, **kwargs), sort_keys=True)


def write() -> None:
    """Freeze every suite's small summary, one line per suite."""
    lines = [f"  {json.dumps(fn.__name__)}: {summary(idx, fn)}" for idx, fn in SUITES]
    DATA.write_text(
        '{"environment": ' + json.dumps(environment(), sort_keys=True) + ',\n'
        ' "summaries": {\n' + ",\n".join(lines) + "\n }\n}\n")


@pytest.fixture(scope="module")
def frozen() -> dict:
    return json.loads(DATA.read_text())


def test_every_suite_is_frozen(frozen):
    assert list(frozen["summaries"]) == [fn.__name__ for _, fn in SUITES]


@pytest.mark.parametrize("idx, fn", SUITES, ids=[fn.__name__ for _, fn in SUITES])
def test_summary_matches_the_frozen_one(frozen, idx, fn):
    old = frozen["summaries"][fn.__name__]
    new = summary(idx, fn)
    if environment() == frozen["environment"]:
        assert new == json.dumps(old, sort_keys=True), _describe(
            moved_leaves(old, json.loads(new), fn.__name__))
    else:
        moved = moved_leaves(old, json.loads(new), fn.__name__, floats=False)
        assert not moved, _describe(moved)


if __name__ == "__main__":
    write()
