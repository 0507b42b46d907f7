"""The defaults-override helper that CI runs before each ``expect`` line."""

import json
import math

import pytest

import write_defaults
from convlab.scenarios import load_defaults


@pytest.mark.parametrize("scenario, key, text, value", [
    ("min-principle", "ts", "[0, 0.4, 1e200]", [0, 0.4, 1e200]),
    ("lemma1", "t", "1e200", 1e200),
    ("prekopa-cex", "grid_n", "-1", -1),
])
def test_one_value_is_replaced(tmp_path, scenario, key, text, value):
    out = tmp_path / "defaults.json"
    assert write_defaults.main([str(out), scenario, key, text]) == 0
    want = load_defaults()
    want["scenarios"][scenario][key] = value
    assert out.read_text() == json.dumps(want)
    assert type(json.loads(out.read_text())["scenarios"][scenario][key]) is type(value)


def test_nan_is_written_as_json_dump_writes_it(tmp_path):
    out = tmp_path / "defaults.json"
    write_defaults.main([str(out), "prekopa-cex", "value_tol", "NaN"])
    assert '"value_tol": NaN' in out.read_text()
    assert math.isnan(json.loads(out.read_text())["scenarios"]["prekopa-cex"]["value_tol"])
