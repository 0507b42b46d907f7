"""List the code of ``convlab`` that no command and no property suite reaches.

Usage (from the root of a checkout)::

    python3 tests/check_reachability.py
    python3 tests/check_reachability.py --write

The checkout's ``src`` goes first on ``sys.path``, and the check refuses,
with exit status 1, when ``convlab`` would still be imported from elsewhere
(a copy that was imported before).  A ``sys.setprofile`` hook is installed
before ``convlab`` is imported.  The
pass then runs ``convlab.cli.main`` in process for ``list``, ``run --all
--json``, ``marginal --csv``, ``bergman``, ``check-convex`` on that CSV and
``check-psh``, and the five suites of ``tests/suites.py`` at 10 cases each,
at the acceptance seeds.  Every function, method and lambda compiled from
the package's ``*.py`` files that never ran is listed by qualified name, such
as ``weights.convex_localizer.<lambda>``: the n-th code of one name in a
scope is ``name#n`` from n = 2, and class bodies and comprehensions are not
listed.

The list is compared with ``tests/data/unreached.txt``, one ``name: reason``
line per entry, and the check fails, naming each one, if an entry appeared
or vanished.  ``--write`` instead stores the list, keeping the reasons of
the entries that stay; a new entry is stored without one, to be given by
hand (``tests/test_check_reachability.py`` fails while one has none).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.util
import inspect
import io
import sys
import tempfile
import types
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "data" / "unreached.txt"
SRC = Path(__file__).resolve().parent.parent / "src"

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def code_names(code: types.CodeType, scope: str) -> list:
    """``(qualified name, code)`` of every function, method and lambda that
    ``code`` compiles, in source order; a class body or a comprehension
    only qualifies what it holds."""
    out, seen = [], collections.Counter()
    for c in code.co_consts:
        if not isinstance(c, types.CodeType):
            continue
        seen[c.co_name] += 1
        n = seen[c.co_name]
        name = f"{scope}.{c.co_name}" + (f"#{n}" if n > 1 else "")
        if c.co_flags & inspect.CO_OPTIMIZED and c.co_name not in _COMPREHENSIONS:
            out.append((name, c))
        out.extend(code_names(c, name))
    return out


def _run_commands(tmp: Path) -> None:
    from convlab.cli import main

    csv = str(tmp / "marginal.csv")
    for argv in (["list"], ["run", "--all", "--json", str(tmp / "reports.json")],
                 ["marginal", "--csv", csv], ["bergman"], ["check-convex", csv],
                 ["check-psh"]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise SystemExit(f"convlab {' '.join(argv)} exited {rc}")


def use_checkout(src: Path = SRC) -> None:
    """Put ``src`` first on ``sys.path``; refuse when ``convlab`` would still
    be imported from elsewhere, as from a copy imported before."""
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("convlab")
    origin = spec.origin if spec else None
    if origin is None or Path(origin).resolve().parent != (src / "convlab").resolve():
        raise SystemExit(f"check_reachability: convlab imports from {origin}, not from {src}")


def unreached() -> list:
    """The qualified names of the checkout's code that the pass never ran."""
    use_checkout()
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(hook)
    try:
        import convlab
        import suites
        from test_acceptance import SUITE_SEED_BASE

        with tempfile.TemporaryDirectory() as tmp:
            _run_commands(Path(tmp))
        for idx, suite in enumerate(suites.ALL_SUITES):
            suite(SUITE_SEED_BASE + idx, cases=10)
    finally:
        sys.setprofile(None)
    names = []
    for path in sorted(Path(convlab.__file__).parent.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        names.extend(name for name, c in code_names(code, path.stem) if c not in reached)
    return names


def read() -> dict:
    """The frozen entries, ``{name: reason}``, in file order."""
    entries = {}
    for line in FROZEN.read_text(encoding="utf-8").splitlines():
        name, _, reason = line.partition(":")
        entries[name.strip()] = reason.strip()
    return entries


def compare(found: list, frozen: dict) -> list:
    """One line per entry that appeared or vanished."""
    return ([f"unreached now: {n}" for n in found if n not in frozen]
            + [f"reached now: {n} ({r})" for n, r in frozen.items() if n not in found])


def write(found: list, frozen: dict) -> None:
    FROZEN.write_text("".join(f"{n}: {frozen.get(n, '')}".rstrip() + "\n" for n in found),
                      encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the list instead of checking it")
    args = parser.parse_args(argv)
    found = unreached()
    frozen = read() if FROZEN.exists() else {}
    if args.write:
        write(found, frozen)
        return 0
    diff = compare(found, frozen)
    if diff:
        print("\n".join(diff), file=sys.stderr)
        print("unreached code differs from tests/data/unreached.txt")
        return 1
    print(f"{len(found)} unreached entries, as in tests/data/unreached.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
