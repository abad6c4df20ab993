"""``tools/traffic.py`` on two of its runs: the trace and the table it prints."""

import os
import sys
from pathlib import Path

from spdc_lab import cli  # noqa: F401  (every layer's module code runs here, untraced)

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import traffic  # noqa: E402


def test_two_runs_fill_the_table(tmp_path):
    runs = traffic.traffic_runs(str(tmp_path))
    assert len(runs) == 108 and len({name for name, _ in runs}) == 108
    reports = [run for run in runs if run[1][0] == "dispersion-report"][:2]
    before = sys.gettrace()
    with traffic.line_trace({}) as hits:
        codes = traffic.run_traffic(reports, str(tmp_path / "out"))
    assert sys.gettrace() is before
    assert list(codes.values()) == [0, 0]
    rows = {row.split(" | ")[0].strip("| "): row.split(" | ") for row in traffic.table(hits).splitlines()[2:]}
    modules = sorted(name for name in os.listdir(traffic.PACKAGE) if name.endswith(".py"))
    assert sorted(rows) == sorted(modules + ["total"])
    for name in modules:
        statements, reached, tier1, neither = (rows[name][k] for k in range(1, 5))
        assert int(statements) == int(reached) + int(neither) and tier1 == "-", name
    # dispersion-report runs in cli and never calls the rates or the sweeps
    assert int(rows["cli.py"][2]) > 0
    assert rows["metrics.py"][2] == rows["sweep.py"][2] == "0"


def test_statements_skip_docstrings_and_span_headers(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""doc"""\n\n@staticmethod\ndef f(x,\n      y):\n    """doc"""\n'
                    "    global z\n    return (x +\n            y)\n")
    assert traffic.statements(str(path)) == {4: range(3, 6), 8: range(8, 10)}
