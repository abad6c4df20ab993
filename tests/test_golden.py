"""Golden outputs: the ``metrics``, ``metrics --walk-off``, ``optimize`` and
``sweep-rate`` outputs of both shipped configurations, rerun through the CLI
and compared field by field.

Floats agree to 1e-9 relative, ``tail_estimate`` (a ratio of the last
mode-sum shell to the total) to 1e-6; ints, bools, None and the echoed
configuration must match exactly.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from spdc_lab.cli import main, shipped_config_path

GOLDEN = Path(__file__).parent / "golden"
FLOAT_REL = 1e-9
REL_BY_KEY = {"tail_estimate": 1e-6}
EXACT_KEYS = ("config", "settings")


def assert_matches(got, want, where, rel=FLOAT_REL):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key, value in want.items():
            sub = "%s.%s" % (where, key)
            if key in EXACT_KEYS:
                assert json.dumps(got[key], sort_keys=True) == json.dumps(
                    value, sort_keys=True
                ), sub
            else:
                assert_matches(got[key], value, sub, REL_BY_KEY.get(key, FLOAT_REL))
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("config", ["degenerate_810", "nondegenerate_850_609"])
@pytest.mark.parametrize(
    "command, report", [("metrics", "metrics_report.json"), ("optimize", "optimization.json")]
)
def test_report_matches_golden(tmp_path, config, command, report):
    out = tmp_path / command
    assert main([command, "--config", shipped_config_path(config), "--out", str(out)]) == 0
    got = json.loads((out / report).read_text())
    want = json.loads((GOLDEN / config / report).read_text())
    assert_matches(got, want, report)


@pytest.mark.parametrize("config", ["degenerate_810", "nondegenerate_850_609"])
def test_walk_off_metrics_matches_golden(tmp_path, config):
    out = tmp_path / "metrics"
    argv = ["metrics", "--config", shipped_config_path(config), "--out", str(out), "--walk-off"]
    assert main(argv) == 0
    got = json.loads((out / "metrics_report.json").read_text())
    want = json.loads((GOLDEN / config / "metrics_walk_off_report.json").read_text())
    assert_matches(got, want, "metrics_walk_off_report.json")


@pytest.mark.parametrize("config", ["degenerate_810", "nondegenerate_850_609"])
def test_sweep_rate_matches_golden(tmp_path, config):
    out = tmp_path / "sweep-rate"
    assert main(["sweep-rate", "--config", shipped_config_path(config), "--out", str(out)]) == 0
    doc = json.loads((out / "sweep_rate.json").read_text())
    assert_matches(doc, json.loads((GOLDEN / config / "sweep_rate.json").read_text()), "json")
    with open(out / "sweep_rate.csv") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN / config / "sweep_rate.csv") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0] and len(got) == len(want)
    for row, (got_row, want_row) in enumerate(zip(got[1:], want[1:])):
        assert [cell == "" for cell in got_row] == [cell == "" for cell in want_row], row
        for col, (g, w) in enumerate(zip(got_row, want_row)):
            if w:
                assert_matches(float(g), float(w), "csv[%d][%s]" % (row, got[0][col]))
