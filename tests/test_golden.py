"""Golden outputs: each row of ``golden/runs.json`` (a command, its flags and
{file written: golden name}) is rerun through the CLI on both shipped
configurations and its outputs compared field by field.

Each golden file under ``golden/<config>/`` was produced from the repository
root, with BLAS pinned to one thread, by

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m spdc_lab.cli <command> \\
        --config src/spdc_lab/data/configs/<config>.json --out <dir> [flags]

with <command> and [flags] from its row, and the files written to <dir>
renamed as the row maps them. ``tools/regen_golden.py OUT_DIR`` runs every
row this way and names the files that differ from ``golden/``.

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

# (command, extra flags, {file written: golden file}) of each golden row
GOLDEN_RUNS = [
    (row["command"], tuple(row["flags"]), row["files"])
    for row in json.loads((GOLDEN / "runs.json").read_text())
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


def test_field_changes_lists_every_field_that_differs():
    # tools/compare_outputs.py (and tools/regen_golden.py on top of it) lists
    # each field of a file that differs with its relative move; a change that
    # keeps the number, or that only an empty dict or list shows, is a move
    # of its own (inf). It runs in a child, since the tool imports perfbench.
    inf = math.inf
    cases = [
        ("a.json", {"n": 7, "x": 1.0}, {"n": 7.0, "x": 2.0}, {"n": inf, "x": 0.5}),
        ("a.json", {"n": 7.0}, {"n": 7}, {"n": inf}),
        ("a.json", {"a": {}}, {"a": []}, {"a": inf}),
        ("a.json", {"a": [], "b": 1}, {"b": 1}, {"a": inf}),
        ("a.json", {"b": 1}, {"b": 1, "a": {}}, {"a": inf}),
        ("a.json", {"a": [1.0]}, {"a": []}, {"a[0]": inf, "a": inf}),
        ("a.json", {"a": {"b": 1}}, {"a": {}}, {"a.b": inf, "a": inf}),
        ("a.json", {"x": inf, "y": 1.0}, {"x": 1.0, "y": 1.0}, {"x": inf}),
        ("a.json", {"x": 0.0, "y": math.nan}, {"x": -0.0, "y": math.nan}, {"x": inf}),
        ("a.csv", "R,P\n7,0.5\n", "R,P\n7.0,0.25\n", {"R[0]": inf, "P[0]": 0.5}),
    ]
    docs = [
        (path, *(doc if path.endswith(".csv") else json.dumps(doc) for doc in (old, new)))
        for path, old, new, _ in cases
    ]
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "import compare_outputs\n"
        "docs = json.loads(sys.stdin.read())\n"
        "print(json.dumps([compare_outputs.field_changes(p, a.encode(), b.encode())"
        " for p, a, b in docs]))\n"
    ) % str(Path(__file__).parents[1] / "tools")
    proc = subprocess.run([sys.executable, "-B", "-c", script], input=json.dumps(docs),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [want for *_, want in cases]
