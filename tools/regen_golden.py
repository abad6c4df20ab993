"""Regenerate the golden files from this tree and report how far each moved.

    python3 tools/regen_golden.py OUT_DIR

Runs every row of ``tests/golden/runs.json`` on both shipped configs, in
process at one BLAS thread (``compare_outputs.run_tree`` on this tree), and
writes each file the row pins as OUT_DIR/<config>/<golden name>, the layout
of ``tests/golden``. For each file that differs from ``tests/golden`` it
prints the largest relative move of each field
(``compare_outputs.largest_moves``), then the count of files that differ.

It exits 0 when every file is byte-identical to ``tests/golden``, 1 when one
differs and 2 when a run fails. A golden regeneration is this command with
OUT_DIR ``tests/golden``, in a commit of its own whose message carries the
printed moves; no tolerance changes with it.
"""

import argparse
import json
import os
import sys
import tempfile

import compare_outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    out_dir = parser.parse_args(argv).out_dir
    runs = compare_outputs.golden_runs()
    with tempfile.TemporaryDirectory(prefix="regen_golden_") as workdir:
        plan = os.path.join(workdir, "plan.json")
        with open(plan, "w") as fh:
            json.dump([run[:3] for run in runs], fh)
        written_out = os.path.join(workdir, "out")
        results = compare_outputs.run_tree(compare_outputs.ROOT, plan, written_out)
        failed = sorted(name for name, r in results.items() if r["exit"])
        for name in failed:
            print("run %s exited %d:\n%s" % (name, results[name]["exit"], results[name]["stderr"]))
        if failed:
            return 2
        differ = total = 0
        for name, _, _, files in runs:
            config = name.partition("/")[0]
            os.makedirs(os.path.join(out_dir, config), exist_ok=True)
            for written, golden in files.items():
                path = os.path.join(config, golden)
                with open(os.path.join(written_out, name, written), "rb") as fh:
                    new = fh.read()
                with open(os.path.join(compare_outputs.GOLDEN, path), "rb") as fh:
                    old = fh.read()
                with open(os.path.join(out_dir, path), "wb") as fh:
                    fh.write(new)
                total += 1
                if new != old:
                    differ += 1
                    print(path)
                    for field, rel in sorted(compare_outputs.largest_moves(path, old, new).items()):
                        print("  %s: largest relative move %.3g" % (field, rel))
    print("%d of %d golden files differ" % (differ, total))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
