"""Regenerate the golden files from this tree and report how far each moved.

    python3 tools/regen_golden.py OUT_DIR

Runs every row of ``tests/golden/runs.json`` on both shipped configs, in
process at one BLAS thread (``compare_outputs.run_tree`` on this tree), and
writes each file the row pins as OUT_DIR/<config>/<golden name>, the layout
of ``tests/golden``. It prints one Markdown table of the largest move of
each field of each file that differs from ``tests/golden``, with its old and
new values and golden tolerance (``compare_outputs.print_moves``), then the
count of files that differ.

It exits 0 when every file is byte-identical to ``tests/golden``, 1 when
every move is inside the golden tolerance, 3 when one is past it (the golden
test fails on it) and 2 when a run fails.

A change that moves golden values lands in two commits, and no tolerance or
bound changes in either:

1. the change itself, with ``tests/golden`` as it was; this command with a
   scratch OUT_DIR prints the moves it makes;
2. the write-back: this command with OUT_DIR ``tests/golden`` and nothing
   else, its printed table pasted into the commit's CHANGES.md entry. Run
   again, it exits 0.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

import compare_outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    out_dir = parser.parse_args(argv).out_dir
    runs = compare_outputs.golden_runs()
    with tempfile.TemporaryDirectory(prefix="regen_golden_") as workdir:
        written_out = os.path.join(workdir, "out")
        results = compare_outputs.run_tree(compare_outputs.ROOT, [r[:3] for r in runs], written_out)
        failed = sorted(name for name, r in results.items() if r["exit"])
        for name in failed:
            print("run %s exited %d:\n%s" % (name, results[name]["exit"], results[name]["stderr"]))
        if failed:
            return 2
        worst, differ, past = {}, 0, False
        for name, _, _, files in runs:
            config = name.partition("/")[0]
            os.makedirs(os.path.join(out_dir, config), exist_ok=True)
            for written, golden in files.items():
                path = os.path.join(config, golden)
                new = Path(written_out, name, written).read_bytes()
                old = Path(compare_outputs.GOLDEN, path).read_bytes()
                Path(out_dir, path).write_bytes(new)
                if new != old:
                    differ += 1
                    past = past or bool(compare_outputs.beyond_tolerance(path, old, new))
                    compare_outputs.largest_moves(worst, path, path, old, new)
    compare_outputs.print_moves(worst)
    print("%d of %d golden files differ" % (differ, sum(len(run[3]) for run in runs)))
    return 3 if past else 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
