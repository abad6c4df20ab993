"""Line trace of the CLI traffic over src/spdc_lab: which statements the
commands reach, which only tier-1 reaches, and which neither does.

    python3 tools/traffic.py [--tests]

One process runs the traffic through ``spdc_lab.cli.main``, under a
``sys.settrace`` line trace of the files of src/spdc_lab alone (108 runs):

- on both shipped configs, every command with and without ``--walk-off``,
  and the golden rows ``metrics --grid-resolution 801`` and
  ``jsa --grid-resolution 64`` (28 runs);
- ``metrics``, ``sweep-rate``, ``optimize``, ``dispersion-report`` and
  ``jsa`` on the perfbench designs ``designs.draw(0, 8)`` and
  ``designs.draw(1, 8)`` (80 runs).

``--tests`` then runs tier-1 (pytest on tests/) in the same process under the
same trace; lines that only its ``python -m`` children reach are not seen.

It prints one Markdown table with one row per module: its statements, those
the traffic reaches, those only tier-1 reaches and those neither reaches,
with the line numbers of the last two (a-b: every statement from line a to
line b). A statement is reached when a line of its own runs: its lines, or a
compound statement's lines before its body. Docstrings and ``global``
statements run no code and are not counted. Outputs go to a temporary
directory; nothing is written into the repository. It exits 0 when every
run exits 0 (and, with ``--tests``, tier-1 passes).
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "spdc_lab")
SHIPPED = ("degenerate_810", "nondegenerate_850_609")
COMMANDS = ("metrics", "jsa", "sweep-rate", "sweep-ratio", "optimize", "dispersion-report")
GOLDEN_FLAGS = (("metrics", "--grid-resolution", "801"), ("jsa", "--grid-resolution", "64"))
DESIGN_COMMANDS = ("metrics", "sweep-rate", "optimize", "dispersion-report", "jsa")


def _designs():
    # perfbench's designs module, read without writing its bytecode there
    spec = importlib.util.spec_from_file_location(
        "designs", os.path.join(ROOT, "perfbench", "designs.py"))
    designs = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(designs)
    finally:
        sys.dont_write_bytecode = dont_write
    return designs


def traffic_runs(workdir):
    """[(name, argv without --out)]: the 108 runs, with the design configs
    written under ``workdir``."""
    runs = []
    for cfg in SHIPPED:
        config = os.path.join(PACKAGE, "data", "configs", cfg + ".json")
        argvs = [(c,) + walk for c in COMMANDS for walk in ((), ("--walk-off",))] + list(GOLDEN_FLAGS)
        runs += [("%s/%s" % (cfg, "".join(argv)), [argv[0], "--config", config, *argv[1:]])
                 for argv in argvs]
    designs = _designs()
    for seed in (0, 1):
        paths = designs.write_configs(designs.draw(seed, 8), os.path.join(workdir, "draw%d" % seed))
        for j, path in enumerate(paths):
            runs += [("draw%d-%d/%s" % (seed, j, c), [c, "--config", path]) for c in DESIGN_COMMANDS]
    return runs


def statements(path):
    """{first line: own lines} of each counted statement of one source file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Global) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        found[node.lineno] = range(first, max(first, last) + 1)
    return found


@contextlib.contextmanager
def line_trace(hits):
    """Record in ``hits`` {file: lines run} every line of src/spdc_lab run
    while the context is open, on this thread and on threads it starts."""
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    old = sys.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(old)
        threading.settrace(None)


def run_traffic(runs, out):
    """Run each (name, argv) through ``cli.main`` with outputs under ``out``;
    returns {name: exit code}."""
    from spdc_lab import cli
    codes = {}
    for name, argv in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv + ["--out", os.path.join(out, name)])
    return codes


def _ranges(lines, order):
    # "a-b" for each run of statements consecutive in ``order``
    index = {line: j for j, line in enumerate(order)}
    groups = []
    for line in sorted(lines):
        if groups and index[line] == index[groups[-1][1]] + 1:
            groups[-1][1] = line
        else:
            groups.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in groups)


def table(traffic_hits, test_hits=None):
    """The Markdown table of the statements of each module of src/spdc_lab
    that ``traffic_hits`` and ``test_hits`` ({file: lines}) reach; without
    ``test_hits`` the tier-1 columns read "-"."""
    rows = ["| module | statements | traffic | tier-1 only | neither | tier-1 only lines | neither lines |",
            "| --- | --- | --- | --- | --- | --- | --- |"]
    totals = [0, 0, 0, 0]
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        stmts = statements(path)

        def reached(hits):
            lines = (hits or {}).get(path, set())
            return {s for s, own in stmts.items() if not lines.isdisjoint(own)}

        by_traffic = reached(traffic_hits)
        only_tests = reached(test_hits) - by_traffic
        neither = set(stmts) - by_traffic - only_tests
        counts = [len(stmts), len(by_traffic), len(only_tests), len(neither)]
        totals = [t + c for t, c in zip(totals, counts)]
        order = sorted(stmts)
        tests = (str(counts[2]), _ranges(only_tests, order)) if test_hits is not None else ("-", "-")
        rows.append("| %s | %d | %d | %s | %d | %s | %s |" % (
            name, counts[0], counts[1], tests[0], counts[3], tests[1], _ranges(neither, order)))
    tier1 = str(totals[2]) if test_hits is not None else "-"
    rows.append("| total | %d | %d | %s | %d | | |" % (totals[0], totals[1], tier1, totals[3]))
    return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true", help="also trace tier-1 (pytest on tests/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)  # and for tier-1's python -m children
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="traffic_") as workdir:
        runs = traffic_runs(workdir)
        with line_trace({}) as traffic_hits:  # the package's own imports included
            codes = run_traffic(runs, os.path.join(workdir, "out"))
    failed = sorted(name for name, code in codes.items() if code)
    print("%d runs; %d exit nonzero%s" % (len(codes), len(failed), ": " + ", ".join(failed) if failed else ""))
    test_hits, status = None, 0
    if args.tests:
        import pytest
        with line_trace({}) as test_hits:
            status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    print(table(traffic_hits, test_hits))
    return 1 if failed or status else 0


if __name__ == "__main__":
    sys.exit(main())
