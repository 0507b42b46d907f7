"""Check a traced benchmark run against the frozen counts.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 1 --trace 1 > kernels.out
    python3 tests/check_traced_counts.py kernels kernels.out
    python3 tests/check_traced_counts.py --write kernels kernels.out

The last line of the run's output is its JSON result.  The check prints every
count metric of the run, then fails if the run is not ``correct`` or if any
count differs from the one frozen for the workload in
``tests/data/traced_counts.json``; each moved count is printed as
``workload metric: frozen -> run``.  ``--write`` instead stores the run's
counts as the workload's frozen ones, after the same ``correct`` check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "data" / "traced_counts.json"


def counts(result: dict) -> dict:
    """Every count metric of one benchmark result, by name."""
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def moved(workload: str, got: dict, want: dict) -> list:
    """One line per count that differs, in name order; a missing count is None."""
    return ["%s %s: %s -> %s" % (workload, k, want.get(k), got.get(k))
            for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def write(workload: str, got: dict) -> None:
    """Store ``got`` as the workload's frozen counts, one workload a line."""
    frozen = json.loads(FROZEN.read_text())
    frozen[workload] = got
    lines = ",\n".join("  %s: %s" % (json.dumps(w), json.dumps(c, sort_keys=True))
                       for w, c in frozen.items())
    FROZEN.write_text("{\n" + lines + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("output", help="the output of a --trace 1 run of perfbench/run.py")
    parser.add_argument("--write", action="store_true",
                        help="store the run's counts instead of checking them")
    args = parser.parse_args(argv)
    try:
        result = json.loads(Path(args.output).read_text().splitlines()[-1])
    except (OSError, IndexError, ValueError):  # no run, or no result line
        result = {"correct": None, "metrics": {}}
    got = counts(result)
    for k, v in got.items():
        print(args.workload, k, v)
    if result["correct"] is not True:
        print(f"traced {args.workload} benchmark is not correct")
        return 1
    if args.write:
        write(args.workload, got)
        return 0
    diff = moved(args.workload, got, json.loads(FROZEN.read_text())[args.workload])
    if diff:
        print("\n".join(diff), file=sys.stderr)
        print(f"traced {args.workload} counts moved from tests/data/traced_counts.json")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
