"""The reachability check that CI runs after the traced counts."""

import check_reachability as check

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
