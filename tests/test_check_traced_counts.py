"""The traced-count check that CI runs on each benchmark workload."""

import json

import pytest

import check_traced_counts as check

FROZEN = json.loads(check.FROZEN.read_text())


def _run_output(tmp_path, counts, correct=True):
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts.items()}
    metrics["wall_s"] = {"value": 1.5, "unit": "s"}
    path = tmp_path / "run.out"
    result = json.dumps({"correct": correct, "metrics": metrics})
    path.write_text('{"details": 1}\n' + result + "\n")
    return str(path)


@pytest.mark.parametrize("workload", sorted(FROZEN))
def test_the_frozen_counts_pass(tmp_path, capsys, workload):
    assert check.main([workload, _run_output(tmp_path, FROZEN[workload])]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{workload} {k} {v}" for k, v in FROZEN[workload].items()]


def test_a_moved_count_fails_and_is_named(tmp_path, capsys):
    counts = dict(FROZEN["kernels"], **{"numerics.panels": 1})
    assert check.main(["kernels", _run_output(tmp_path, counts)]) == 1
    out, err = capsys.readouterr()
    want = FROZEN["kernels"]["numerics.panels"]
    assert err.splitlines() == [f"kernels numerics.panels: {want} -> 1"]
    assert out.splitlines()[-1] == ("traced kernels counts moved from "
                                    "tests/data/traced_counts.json")


def test_a_missing_or_extra_count_fails(tmp_path, capsys):
    counts = dict(FROZEN["probes"], **{"numerics.new": 3})
    del counts["geometry.escapes"]
    assert check.main(["probes", _run_output(tmp_path, counts)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "probes geometry.escapes: 1 -> None", "probes numerics.new: None -> 3"]


@pytest.mark.parametrize("output", ["incorrect", "empty", "missing"])
def test_a_run_that_is_not_correct_fails(tmp_path, capsys, output):
    if output == "incorrect":
        path = _run_output(tmp_path, FROZEN["marginals"], correct=False)
    else:
        path = tmp_path / "run.out"
        if output == "empty":
            path.write_text("")
    assert check.main(["marginals", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "traced marginals benchmark is not correct"


def test_write_stores_the_counts_in_the_frozen_layout(tmp_path, monkeypatch):
    original = check.FROZEN.read_bytes()
    frozen = tmp_path / "traced_counts.json"
    frozen.write_bytes(original)
    monkeypatch.setattr(check, "FROZEN", frozen)
    # rewriting the frozen counts leaves the file byte for byte as it was
    assert check.main(["--write", "kernels", _run_output(tmp_path, FROZEN["kernels"])]) == 0
    assert frozen.read_bytes() == original
    counts = dict(FROZEN["kernels"], **{"numerics.panels": 1})
    assert check.main(["--write", "kernels", _run_output(tmp_path, counts)]) == 0
    assert json.loads(frozen.read_text()) == dict(FROZEN, kernels=counts)
    assert check.main(["kernels", _run_output(tmp_path, counts)]) == 0
