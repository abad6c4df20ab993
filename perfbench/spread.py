"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads rate-scan optimize --seeds 1-10 \
        [--seconds 15] [--out spread.json]

Runs run.py once per (workload, seed) with tracing off, from the root of the
checkout, and reports per metric the median and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. The bounds in BENCHMARK.json are checked against these spreads.
The raw (unscaled) times and the median host-speed probe of each run come
from the run record run.py leaves in .perfbench_runs/; the raw spreads are
printed too, to show what the host-speed scaling removes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(os.path.dirname(HERE), ".perfbench_runs")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=200,
        check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(RUNS, "%s-seed%d-trace0.json" % (workload, seed))) as fh:
        record = json.load(fh)
    doc["raw"], doc["probe_s"] = record["raw"], statistics.median(record["host_s"])
    return doc


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first, last = (int(s) for s in args.seeds.split("-"))
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(first, last + 1):
            t0 = time.monotonic()
            doc = run_once(workload, seed, seconds)
            doc["seed"], doc["run_wall_s"] = seed, time.monotonic() - t0
            runs.append(doc)
            print(workload, seed, doc["correct"], doc["failed"], round(doc["run_wall_s"], 1),
                  "probe %.4f" % doc["probe_s"],
                  {k: round(v["value"], 4) for k, v in doc["metrics"].items()}, flush=True)
        summary = {}
        for name in bounds:
            med, iqr = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": med, "iqr_frac": iqr, "bound": bounds[name]}
            line = "  %-20s median %10.5g  iqr/median %.4f  (bound %.2f, third %.4f)" % (
                name, med, iqr, bounds[name], bounds[name] / 3)
            if name in runs[0]["raw"]:
                raw_med, raw_iqr = spread([r["raw"][name] for r in runs])
                summary[name].update(raw_median=raw_med, raw_iqr_frac=raw_iqr)
                line += "  raw: median %.5g iqr/median %.4f" % (raw_med, raw_iqr)
            print(line, flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
