"""Check that two source trees write byte-identical CLI outputs.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--perfbench-seeds 0 1]

Each tree runs ``spdc_lab.cli.main`` in process, in a fresh interpreter with
``PYTHONPATH=<tree>/src`` and one BLAS thread, over one matrix of 88 runs:

- on both shipped configs, every row of ``tests/golden/runs.json`` (the
  golden runs of ``tests/test_golden.py``) and the default-resolution
  ``jsa``, which has no golden file (24 runs);
- ``metrics``, ``sweep-rate``, ``optimize`` and ``dispersion-report`` on the
  perfbench designs ``designs.draw(0, 8)`` and ``designs.draw(1, 8)``
  (64 runs).

``--perfbench-seeds`` adds every task of the perfbench workloads on those
seeds, at the ``run_seconds`` of BENCHMARK.json. Design configs are written
once, with perfbench's ``designs.to_config``, and read by both trees; the
shipped configs are each tree's own.

It prints the exit codes and stderr that differ, the count of byte-identical
files and one Markdown table (``print_moves``): for each JSON or CSV field
that differs, with list indices and CSV rows folded (``largest_moves``), the
file that shows its largest relative move, the old and new values there and
the golden tolerance, which ``tests/test_golden.py`` reads from here. It
exits 0 only when every run has the same exit code and stderr on both trees
and every file is byte-identical.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
SHIPPED = ("degenerate_810", "nondegenerate_850_609")
DESIGN_COMMANDS = ("metrics", "sweep-rate", "optimize", "dispersion-report")
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# The golden tolerance (``tolerance``): the relative move a float or CSV number
# cell may make, by its field's last key (None: any other key). Any other
# value, and every leaf under an EXACT_KEYS key, must not move.
REL_TOLERANCE = {None: 1e-9, "tail_estimate": 1e-6}  # tail: last mode-sum shell / total
EXACT_KEYS = {"config"}
ABSENT = "(absent)"  # the value of a field in a file that lacks it

# the child: run every (name, config, argv) in process, record exit code and stderr
RUNNER = r"""
import contextlib, io, json, os, sys
import spdc_lab.cli as cli
from spdc_lab.config import shipped_config_path
src, plan, out = sys.argv[1:4]
if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
    sys.exit("spdc_lab was imported from %s, not from %s" % (cli.__file__, src))
with open(plan) as fh:
    runs = json.load(fh)
results = {}
for name, config, argv in runs:
    if config.startswith("shipped:"):
        config = shipped_config_path(config[len("shipped:"):])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "--config", config, "--out", os.path.join(out, name)] + argv[1:])
    results[name] = {"exit": code, "stderr": err.getvalue()}
with open(os.path.join(out, "_runs.json"), "w") as fh:
    json.dump(results, fh, indent=1, sort_keys=True)
"""


def golden_runs():
    """[(run name, config, argv, {file written: golden name})] of every row
    of ``tests/golden/runs.json`` on both shipped configs."""
    with open(os.path.join(GOLDEN, "runs.json")) as fh:
        rows = json.load(fh)
    runs = []
    for cfg in SHIPPED:
        for row in rows:
            argv = [row["command"], *row["flags"]]
            name = "-".join(a.lstrip("-") for a in argv)  # metrics-walk-off, jsa-grid-resolution-64
            runs.append(("%s/%s" % (cfg, name), "shipped:" + cfg, argv, row["files"]))
    return runs


def matrix(workdir, perfbench_seeds=()):
    """[(run name, config, argv without --config and --out)]: the 88-run
    matrix, then every perfbench task of ``perfbench_seeds``."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import designs
    from workloads import WORKLOADS

    runs = [run[:3] for run in golden_runs()]
    runs += [("%s/jsa" % cfg, "shipped:" + cfg, ["jsa"]) for cfg in SHIPPED]  # no golden file
    for seed in (0, 1):
        paths = designs.write_configs(designs.draw(seed, 8), os.path.join(workdir, "draw%d" % seed))
        for j, path in enumerate(paths):
            for command in DESIGN_COMMANDS:
                runs.append(("draw%d-%d/%s" % (seed, j, command), path, [command]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for seed in perfbench_seeds:
        for name, workload in sorted(WORKLOADS.items()):
            n = workload.task_count(seconds)
            tag = "%s-seed%d" % (name, seed)
            paths = designs.write_configs(designs.draw(seed, n), os.path.join(workdir, tag))
            for j, path in enumerate(paths):
                argv = workload.argv(j, path, None)
                runs.append(("%s/t%03d" % (tag, j), path, [argv[0]] + argv[5:]))
    return runs


def run_tree(tree, runs, out):
    """Run every (name, config, argv) of ``runs`` on ``tree``, writing under
    ``out``; returns {name: {"exit": code, "stderr": text}}."""
    plan = out + "_plan.json"
    with open(plan, "w") as fh:
        json.dump(runs, fh)
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    cwd = os.path.dirname(plan)  # so that no package in the caller's directory shadows src
    subprocess.run([sys.executable, "-c", RUNNER, src, plan, out], env=env, cwd=cwd, check=True)
    with open(os.path.join(out, "_runs.json")) as fh:
        return json.load(fh)


def files(out):
    found = set()
    for base, _, names in os.walk(out):
        found.update(os.path.relpath(os.path.join(base, n), out) for n in names)
    found.discard("_runs.json")
    return found


def _flatten(doc, path=""):
    # an empty dict or list is a field of its own, so that one that appears,
    # vanishes or changes type is listed
    if isinstance(doc, dict) and doc:
        for k, v in doc.items():
            yield from _flatten(v, "%s.%s" % (path, k) if path else k)
    elif isinstance(doc, list) and doc:
        for j, v in enumerate(doc):
            yield from _flatten(v, "%s[%d]" % (path, j))
    else:
        yield path, doc


def _csv_fields(text):
    header, *rows = (line.split(",") for line in text.splitlines())
    yield "<columns>", ",".join(header)
    for j, row in enumerate(rows):
        for k, value in zip(header, row):
            yield "%s[%d]" % (k, j), value


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_change(a, b):
    """|a - b| / max(|a|, |b|) of two numbers of one type, inf for other values
    that differ: an int that becomes a float, one number written another way
    (0.0 and -0.0, or "7" and "7.0" in a CSV cell) and an infinity or NaN
    against a number."""
    x, y = _number(a), _number(b)
    if type(a) is not type(b) or x is None or y is None or isinstance(a, bool):
        return 0.0 if type(a) is type(b) and a == b else math.inf
    if repr(a) == repr(b):  # NaN included
        return 0.0
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def field_changes(path, old, new):
    """{field: (relative change, old value, new value)} of the fields that
    differ in one JSON or CSV file. A field that one side lacks reads ABSENT
    there and moves by inf."""
    if path.endswith(".json"):
        a, b = (dict(_flatten(json.loads(t))) for t in (old, new))
    elif path.endswith(".csv"):
        a, b = (dict(_csv_fields(t.decode())) for t in (old, new))
    else:
        return {"<bytes>": (math.inf, ABSENT, ABSENT)}
    changes = {}
    for field in a.keys() | b.keys():
        x, y = a.get(field, ABSENT), b.get(field, ABSENT)
        rel = relative_change(x, y) if field in a and field in b else math.inf
        if rel > 0:
            changes[field] = (rel, x, y)
    return changes


def tolerance(path, field, value):
    """The relative move the golden test accepts in ``field`` of a file
    where its old value is ``value``."""
    keys = re.sub(r"\[[\d*]+\]", "", field).split(".")
    if EXACT_KEYS.intersection(keys) or not (isinstance(value, float) or path.endswith(".csv")):
        return 0.0
    return REL_TOLERANCE.get(keys[-1], REL_TOLERANCE[None])


def beyond_tolerance(path, old, new):
    """The ``field_changes`` of one golden file that are past their
    ``tolerance``: empty when the golden test accepts ``new`` for ``old``."""
    return {field: move for field, move in field_changes(path, old, new).items()
            if move[0] > tolerance(path, field, move[1])}


def largest_moves(worst, group, path, old, new):
    """Keep in ``worst`` {(group, field): (path, move)} the largest of the
    ``field_changes`` of one file, with list indices and CSV rows folded:
    amplitude_re[3][5] and R[3] (row 3 of column R) count as
    amplitude_re[*][*] and R[*]."""
    for field, move in field_changes(path, old, new).items():
        key = (group, re.sub(r"\[\d+\]", "[*]", field))
        if key not in worst or move[0] > worst[key][1][0]:
            worst[key] = (path, move)


def print_moves(worst):
    """Print the moves that ``largest_moves`` kept as one Markdown table,
    with the golden tolerance of each field."""
    print("| file | field | old | new | relative move | tolerance |")
    print("| --- | --- | --- | --- | --- | --- |")
    for (_, field), (path, (rel, a, b)) in sorted(worst.items()):
        old, new = (v if isinstance(v, str) else json.dumps(v) for v in (a, b))
        tol = tolerance(path, field, a)
        print("| %s | `%s` | %s | %s | %.3g | %g |" % (path, field, old, new, rel, tol))


def compare(parent_out, change_out, parent_runs, change_runs):
    """Print the differences; returns True when there are none."""
    same = True
    for name in sorted(parent_runs.keys() | change_runs.keys()):
        a, b = parent_runs.get(name), change_runs.get(name)
        if a != b:
            same = False
            print("run %s: parent %r, change %r" % (name, a, b))
    exits = [r["exit"] for r in parent_runs.values()]
    print("%d runs; exit codes %s" % (len(exits), {c: exits.count(c) for c in sorted(set(exits))}))
    ours, theirs = files(parent_out), files(change_out)
    for path in sorted(ours ^ theirs):
        same = False
        print("only in %s: %s" % ("parent" if path in ours else "change", path))
    identical, worst = 0, {}
    for path in sorted(ours & theirs):
        with open(os.path.join(parent_out, path), "rb") as fa, open(os.path.join(change_out, path), "rb") as fb:
            old, new = fa.read(), fb.read()
        if old == new:
            identical += 1
            continue
        same = False
        largest_moves(worst, os.path.basename(path), path, old, new)
    print("%d of %d files byte-identical" % (identical, len(ours | theirs)))
    print_moves(worst)
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--perfbench-seeds", type=int, nargs="*", default=())
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as workdir:
        plan = matrix(workdir, args.perfbench_seeds)
        outs, runs = [], []
        for side, tree in (("parent", args.parent_tree), ("change", args.change_tree)):
            outs.append(os.path.join(workdir, side))
            runs.append(run_tree(tree, plan, outs[-1]))
        return 0 if compare(*outs, *runs) else 1


if __name__ == "__main__":
    sys.exit(main())
