"""Golden outputs: each row of ``golden/runs.json`` (a command, its flags and
{file written: golden name}) is rerun through the CLI on both shipped
configurations, and no field of its outputs may move past the golden
tolerance, the table in ``tools/compare_outputs.py``.

Each golden file under ``golden/<config>/`` was produced from the repository
root, with BLAS pinned to one thread, by

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m spdc_lab.cli <command> \\
        --config src/spdc_lab/data/configs/<config>.json --out <dir> [flags]

with <command> and [flags] from its row, and the files written to <dir>
renamed as the row maps them. ``tools/regen_golden.py OUT_DIR`` runs every
row this way and prints the moves of the files that differ from ``golden/``.

The ``jsa`` CSV dump has no golden file: it is 3.3 MB at the default 201
points, and it holds the amplitude of the JSON dump.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from spdc_lab.cli import main
from spdc_lab.config import shipped_config_path

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import compare_outputs  # noqa: E402

# (config, argv, {file written: golden name}) of every golden run
RUNS = [(name.partition("/")[0], argv, files) for name, _, argv, files in compare_outputs.golden_runs()]


@pytest.mark.parametrize("config, argv, files", RUNS,
                         ids=["%s-%s-%s" % (a[0], next(iter(f.values())), c) for c, a, f in RUNS])
def test_report_matches_golden(tmp_path, config, argv, files):
    assert main([argv[0], "--config", shipped_config_path(config), "--out", str(tmp_path)] + argv[1:]) == 0
    for written, golden in files.items():
        old = Path(compare_outputs.GOLDEN, config, golden).read_bytes()
        assert compare_outputs.beyond_tolerance(golden, old, (tmp_path / written).read_bytes()) == {}, golden


def _encode(path, doc):
    return (doc if path.endswith(".csv") else json.dumps(doc)).encode()


def test_field_changes_lists_every_field_that_differs():
    # each field that differs, with its relative move; a change that keeps the
    # number, or that only an empty dict or list shows, moves by inf
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
    for path, old, new, want in cases:
        got = compare_outputs.field_changes(path, _encode(path, old), _encode(path, new))
        assert {field: move[0] for field, move in got.items()} == want, (old, new)


def test_beyond_tolerance_flags_every_move_the_golden_test_fails_on():
    cases = [
        ("a.json", {"x": 1.0}, {"x": 1.0 + 2e-9}, {"x"}),
        ("a.json", {"x": [1.0]}, {"x": [1.0 + 5e-10]}, set()),
        ("a.json", {"m": {"tail_estimate": 1e-4}}, {"m": {"tail_estimate": 1.0000005e-4}}, set()),
        ("a.json", {"tail_estimate": 1e-4}, {"tail_estimate": 1.000002e-4}, {"tail_estimate"}),
        ("a.json", {"m": {"max_shell": 5}}, {"m": {"max_shell": 6}}, {"m.max_shell"}),
        ("a.json", {"max_shell": 5}, {"max_shell": 4}, {"max_shell"}),
        ("a.json", {"n": 10**12}, {"n": 10**12 + 1}, {"n"}),
        ("a.json", {"converged": True}, {"converged": False}, {"converged"}),
        ("a.json", {"x": None}, {"x": 1.0}, {"x"}),
        ("a.json", {"x": [1.0, 2.0]}, {"x": [1.0]}, {"x[1]"}),
        ("a.json", {"config": {"w": [310.0]}}, {"config": {"w": [310.0000000000003]}}, {"config.w[0]"}),
        ("a.json", {"r": {"config": [1.0]}}, {"r": {"config": [1.000000000000001]}}, {"r.config[0]"}),
        ("a.csv", "R,P\n1.0,x\n", "R,P\n1.0000000001,x\n", set()),
        ("a.csv", "R,P\n1.0,x\n", "R,P\n1.0,y\n", {"P[0]"}),
        ("a.csv", "R,P\n1.0,\n", "R,P\n1.0,0.5\n", {"P[0]"}),
        ("a.csv", "R,P\n1.0,0.5\n", "P,R\n0.5,1.0\n", {"<columns>"}),
    ]
    for path, old, new, want in cases:
        got = compare_outputs.beyond_tolerance(path, _encode(path, old), _encode(path, new))
        assert set(got) == want, (old, new)


def test_loading_perfbench_designs_writes_no_bytecode(monkeypatch):
    # bytecode cached beside perfbench/designs.py would land in the
    # benchmark's directory, whatever PYTHONDONTWRITEBYTECODE says
    from conftest import load_perfbench_designs

    seen, exec_module = [], importlib.machinery.SourceFileLoader.exec_module

    def record(loader, module):
        seen.append(sys.dont_write_bytecode)
        exec_module(loader, module)

    monkeypatch.setattr(importlib.machinery.SourceFileLoader, "exec_module", record)
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    load_perfbench_designs()
    assert seen == [True]
    assert sys.dont_write_bytecode is False


def test_importing_the_tool_loads_no_perfbench_module(monkeypatch):
    for module in ("compare_outputs", "designs", "workloads"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    importlib.import_module("compare_outputs")
    assert "designs" not in sys.modules and "workloads" not in sys.modules
