"""Golden outputs: each ``GOLDEN_RUNS`` row is rerun through the CLI on both
shipped configurations and its outputs compared field by field.

Each golden file under ``golden/<config>/`` was produced from the repository
root, with BLAS pinned to one thread, by

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m spdc_lab.cli <command> \\
        --config src/spdc_lab/data/configs/<config>.json --out <dir> [flags]

with <command> and [flags] from its row; the row maps each file written to
<dir> to its golden name:

- ``metrics``: metrics_report.json, metrics_summary.csv
- ``metrics --walk-off``: metrics_report.json -> metrics_walk_off_report.json,
  metrics_summary.csv -> metrics_walk_off_summary.csv
- ``metrics --grid-resolution 801``: metrics_report.json ->
  metrics_grid801_report.json, metrics_summary.csv -> metrics_grid801_summary.csv
- ``optimize``: optimization.json
- ``optimize --walk-off``: optimization.json -> optimization_walk_off.json
- ``sweep-rate``: sweep_rate.csv, sweep_rate.json
- ``sweep-rate --walk-off``: sweep_rate.csv -> sweep_rate_walk_off.csv,
  sweep_rate.json -> sweep_rate_walk_off.json
- ``sweep-ratio``: sweep_ratio.csv, sweep_ratio.json
- ``sweep-ratio --walk-off``: sweep_ratio.csv -> sweep_ratio_walk_off.csv,
  sweep_ratio.json -> sweep_ratio_walk_off.json
- ``dispersion-report``: dispersion_report.csv, dispersion_report.json
- ``jsa --grid-resolution 64``: jsa_grid.json -> jsa_grid_64.json

The ``jsa`` CSV dump has no golden file: it is 3.3 MB at the default 201
points, and it holds the amplitude of the JSON dump.

Floats agree to 1e-9 relative, also inside lists, ``tail_estimate`` (a
ratio of the last mode-sum shell to the total) to 1e-6; ints, bools, None,
list lengths and the echoed configuration must match exactly. CSV files
compare cell by cell, with empty cells in the same places; a cell that is
not a number must match exactly.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from spdc_lab.cli import main
from spdc_lab.config import shipped_config_path

GOLDEN = Path(__file__).parent / "golden"
FLOAT_REL = 1e-9
REL_BY_KEY = {"tail_estimate": 1e-6}
EXACT_KEYS = ("config", "settings")

# (command, extra flags, {file written: golden file})
GOLDEN_RUNS = [
    (
        "metrics",
        (),
        {"metrics_report.json": "metrics_report.json", "metrics_summary.csv": "metrics_summary.csv"},
    ),
    (
        "metrics",
        ("--walk-off",),
        {
            "metrics_report.json": "metrics_walk_off_report.json",
            "metrics_summary.csv": "metrics_walk_off_summary.csv",
        },
    ),
    (
        "metrics",
        ("--grid-resolution", "801"),
        {
            "metrics_report.json": "metrics_grid801_report.json",
            "metrics_summary.csv": "metrics_grid801_summary.csv",
        },
    ),
    ("optimize", (), {"optimization.json": "optimization.json"}),
    ("optimize", ("--walk-off",), {"optimization.json": "optimization_walk_off.json"}),
    ("sweep-rate", (), {"sweep_rate.csv": "sweep_rate.csv", "sweep_rate.json": "sweep_rate.json"}),
    (
        "sweep-rate",
        ("--walk-off",),
        {"sweep_rate.csv": "sweep_rate_walk_off.csv", "sweep_rate.json": "sweep_rate_walk_off.json"},
    ),
    ("sweep-ratio", (), {"sweep_ratio.csv": "sweep_ratio.csv", "sweep_ratio.json": "sweep_ratio.json"}),
    (
        "sweep-ratio",
        ("--walk-off",),
        {"sweep_ratio.csv": "sweep_ratio_walk_off.csv", "sweep_ratio.json": "sweep_ratio_walk_off.json"},
    ),
    (
        "dispersion-report",
        (),
        {"dispersion_report.csv": "dispersion_report.csv", "dispersion_report.json": "dispersion_report.json"},
    ),
    ("jsa", ("--grid-resolution", "64"), {"jsa_grid.json": "jsa_grid_64.json"}),
]


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
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for j, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, "%s[%d]" % (where, j), rel)
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def assert_csv_matches(got_path, want_path):
    with open(got_path) as fh:
        got = list(csv.reader(fh))
    with open(want_path) as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0] and len(got) == len(want)
    for row, (got_row, want_row) in enumerate(zip(got[1:], want[1:])):
        assert [cell == "" for cell in got_row] == [cell == "" for cell in want_row], row
        for col, (g, w) in enumerate(zip(got_row, want_row)):
            where = "%s[%d][%s]" % (want_path.name, row, got[0][col])
            try:
                want_value = float(w)
            except ValueError:  # an empty or text cell, such as a role name
                assert g == w, where
                continue
            assert_matches(float(g), want_value, where)


@pytest.mark.parametrize("config", ["degenerate_810", "nondegenerate_850_609"])
@pytest.mark.parametrize(
    "command, flags, files",
    GOLDEN_RUNS,
    ids=["%s-%s" % (c, next(iter(files.values()))) for c, _, files in GOLDEN_RUNS],
)
def test_report_matches_golden(tmp_path, config, command, flags, files):
    out = tmp_path / command
    assert main([command, "--config", shipped_config_path(config), "--out", str(out), *flags]) == 0
    for written, golden in files.items():
        want_path = GOLDEN / config / golden
        if golden.endswith(".csv"):
            assert_csv_matches(out / written, want_path)
        else:
            got = json.loads((out / written).read_text())
            assert_matches(got, json.loads(want_path.read_text()), golden)


def test_compare_outputs_runs_every_golden_row(tmp_path):
    # tools/compare_outputs.py is the byte-identity check of a change that must
    # not move outputs: its matrix runs every (command, flags) row above on
    # both shipped configs, so its verdict covers every file golden/ pins
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "import compare_outputs\n"
        "print(json.dumps(compare_outputs.matrix(%r)))\n"
    ) % (str(Path(__file__).parents[1] / "tools"), str(tmp_path))
    proc = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for config in ("degenerate_810", "nondegenerate_850_609"):
        ran = {(argv[0], tuple(argv[1:])) for _, cfg, argv in runs if cfg == "shipped:" + config}
        missing = {(command, flags) for command, flags, _ in GOLDEN_RUNS} - ran
        assert not missing, (config, sorted(missing))
