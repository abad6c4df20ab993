"""Record the reference figures of the default seed into reference.json.

    python3 perfbench/make_reference.py

Runs every workload once on the reference seed at the benchmark's
run_seconds, from the root of the checkout, and stores each task's design and
figures of merit. Run it only at a commit whose outputs are the intended
ones: later runs of the reference seed must reproduce these figures within
REL_TOL below.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Relative tolerance of every float figure; integers and flags must match.
# The figures are deterministic up to floating-point summation order, so 1e-6
# leaves room for a reordered sum or Tr(rho^2) in place of the SVD (both move
# results near 1e-15) while catching any change of the physics. The optimizer's
# golden-section and purity-scan decisions compare values that differ by far
# more than 1e-15, so they do not flip under such a reordering either.
REL_TOL = 1e-6


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, HERE)
    from run import REFERENCE_SEED, RUNS

    path = os.path.join(HERE, "reference.json")
    reference = {"seed": REFERENCE_SEED, "seconds": bench["run_seconds"],
                 "rel_tol": REL_TOL, "workloads": {}}
    with open(path, "w") as fh:
        json.dump(reference, fh)
    for w in bench["workloads"]:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
             "--seed", str(REFERENCE_SEED), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        if not json.loads(out.stdout.strip().splitlines()[-1])["correct"]:
            sys.exit("%s: outputs fail their checks; no reference recorded" % w["name"])
        with open(os.path.join(RUNS, "%s-seed%d-trace0.json" % (w["name"], REFERENCE_SEED))) as fh:
            record = json.load(fh)
        reference["workloads"][w["name"]] = [
            {"command": t["command"], "design": t["design"], "figures": t["figures"]}
            for t in record["tasks"]
        ]
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
