"""The reachability check that CI runs after the traced counts."""

import os
import subprocess
import sys

import pytest

import check_reachability as check
import convlab

FROZEN = check.read()

SOURCE = '''
class Shape:
    sides = [n for n in range(3)]

    def area(self):
        return sum(s for s in self.sides)

def make(k):
    first = lambda x: x
    second = lambda x: lambda y: x + y
    return first, second
'''


def test_code_names_are_qualified_and_skip_class_bodies_and_comprehensions():
    code = compile(SOURCE, "shapes.py", "exec", dont_inherit=True)
    assert [name for name, _ in check.code_names(code, "shapes")] == [
        "shapes.Shape.area", "shapes.make", "shapes.make.<lambda>",
        "shapes.make.<lambda>#2", "shapes.make.<lambda>#2.<lambda>"]


def test_every_frozen_entry_has_a_reason():
    assert FROZEN and all(FROZEN.values())


def test_the_frozen_list_passes(monkeypatch, capsys):
    monkeypatch.setattr(check, "unreached", lambda: list(FROZEN))
    assert check.main([]) == 0
    assert capsys.readouterr().out == f"{len(FROZEN)} unreached entries, as in tests/data/unreached.txt\n"


def test_an_entry_that_appears_or_vanishes_fails_and_is_named(monkeypatch, capsys):
    gone, *kept = FROZEN
    monkeypatch.setattr(check, "unreached", lambda: kept + ["weights.new.<lambda>"])
    assert check.main([]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["unreached now: weights.new.<lambda>",
                                f"reached now: {gone} ({FROZEN[gone]})"]
    assert out == "unreached code differs from tests/data/unreached.txt\n"


def test_write_keeps_the_reasons_and_stores_a_new_entry_without_one(tmp_path, monkeypatch):
    frozen = tmp_path / "unreached.txt"
    frozen.write_text("a.f: kept on purpose\nb.g: abstract: overridden\n")
    monkeypatch.setattr(check, "FROZEN", frozen)
    monkeypatch.setattr(check, "unreached", lambda: ["b.g", "c.h"])
    assert check.main(["--write"]) == 0
    assert frozen.read_text() == "b.g: abstract: overridden\nc.h:\n"
    assert check.read() == {"b.g": "abstract: overridden", "c.h": ""}
    assert check.main([]) == 0


def test_the_checkout_goes_first_on_the_path(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    check.use_checkout()
    assert sys.path[0] == str(check.SRC)


def test_a_convlab_imported_from_elsewhere_is_refused(tmp_path, monkeypatch):
    stale = tmp_path / "src" / "convlab"
    stale.mkdir(parents=True)
    (stale / "__init__.py").write_text("")
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as refused:
        check.use_checkout(tmp_path / "src")  # the checkout's convlab is imported already
    assert str(refused.value) == (f"check_reachability: convlab imports from "
                                  f"{convlab.__file__}, not from {tmp_path / 'src'}")


def test_a_plain_checkout_imports_its_own_sources(tmp_path):
    """With only the tool's folder on the path, as ``python3
    tests/check_reachability.py`` runs, convlab comes from the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.dirname(check.__file__)
    code = "import check_reachability as c; c.use_checkout(); import convlab; print(convlab.__file__)"
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == str(check.SRC / "convlab" / "__init__.py") + "\n"
