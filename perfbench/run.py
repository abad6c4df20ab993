"""spdc-lab benchmark: seeded design workloads through the public CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; spdc_lab is imported from ``src/``.
The run draws ``--seconds``' worth of designs from the seed (see designs.py
and workloads.py), writes them as config files, measures set-up time in
fresh interpreters and runs the batch in a worker process with tracing off.
Host-speed probes (hostspeed.py) run in gaps between the tasks and between
the set-up probes, and every time is reported scaled to the reference host
speed by the probes on either side of it; the summary prints the raw times
too.
With ``--trace 1`` it then runs the same batch again, traced, in a fresh
worker. Every output is checked after its batch; the default seed is also
compared with the figures in reference.json.

Standard output is a summary (every metric with unit and sample count, the
run record and, traced, the self-time shares), and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. End-to-end metrics
come from the untraced batch (``--trace 0``), per-layer metrics from the
traced one (``--trace 1``).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

# One BLAS thread on both sides of every comparison, never above nproc. On a
# 2-core host a two-thread OpenBLAS SVD of the 201 x 201 grid measured 2-4x
# slower than one thread, and noisier.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONPATH"] = SRC

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
import designs  # noqa: E402
import hostspeed  # noqa: E402
from tracer import self_shares, summarize  # noqa: E402
from workloads import WORKLOADS, tail_percentile  # noqa: E402

REFERENCE_SEED = 0
SETUP_PROBES = 3  # before the batch, and as many after it
BATCH_HOST_PROBES = 12  # at least, spread over the gaps between the tasks
DEADLINE_S = 170.0

# Fresh interpreter -> spdc_lab imported (as the CLI imports it) -> config loaded.
SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import spdc_lab.cli
t1 = time.perf_counter()
from spdc_lab.config import load_config
load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": spdc_lab.__file__}))
"""

# Times of stages that rate-scan and cli-batch never enter read exactly 0
# there, every run. They are printed with the other per-layer metrics but kept
# out of the JSON line, so that every time in it is a reading that varies.
PRINT_ONLY = (
    "metrics.singles_rate.self_s",
    "sweep.golden_section_maximize.total_s",
    "sweep.optimize.stage3_s",
    "sweep.optimize.report_s",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "task_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def run_record():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }


def _wait(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("time limit reached; the run was stopped")


def setup_probes(configs, deadline):
    """(wall, import, load) seconds of one fresh interpreter per config.

    Also returns the host-speed gaps around them: one probe before each
    interpreter and one after the last.
    """
    probes, gaps = [], []
    for config in configs:
        gaps.append(hostspeed.gap(1))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, config],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("time limit reached; the run was stopped")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("spdc_lab does not import and load a config")
        doc = json.loads(out)
        if not os.path.abspath(doc["file"]).startswith(SRC + os.sep):
            raise BenchError("spdc_lab was not imported from %s" % SRC)
        probes.append((wall, doc["import_s"], doc["load_s"]))
    gaps.append(hostspeed.gap(1))
    return probes, gaps


def run_batch(workload, tasks, trace, workdir, deadline):
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    probes = -(-BATCH_HOST_PROBES // len(tasks))
    with open(plan_path, "w") as fh:
        json.dump({"mode": workload.mode, "trace": trace, "tasks": tasks, "probes": probes}, fh)
    with open(os.path.join(workdir, "worker.log"), "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
        _wait(proc, deadline)
    if proc.returncode != 0:
        raise BenchError("the worker failed; see %s" % os.path.join(workdir, "worker.log"))
    with open(result_path) as fh:
        return json.load(fh)


def check_batch(tasks, result, reference):
    """Per-task (figures, errors), with the reference comparison when it applies."""
    checked = [
        checks.check_task(argv, rc, err)
        for argv, rc, err in zip(tasks, result["rc"], result["errors"])
    ]
    if reference is not None:
        expected, rel_tol = reference
        for (figures, errors), want in zip(checked, expected):
            if not errors:
                errors.extend(checks.compare(figures, want, rel_tol))
    return checked


def output_bytes(tasks):
    total = 0
    for argv in tasks:
        out = argv[argv.index("--out") + 1]
        for name in os.listdir(out):
            if name not in ("stdout.txt", "stderr.txt", "spans.json"):
                total += os.path.getsize(os.path.join(out, name))
    return total


def load_reference(workload, seed, docs):
    """(expected figures per task, rel_tol) when reference.json covers this run."""
    if seed != REFERENCE_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    entries = ref["workloads"].get(workload.name, [])
    if [e["design"] for e in entries] != docs:
        return None
    return [e["figures"] for e in entries], ref["rel_tol"]


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def bench(args):
    if not os.path.isfile(os.path.join(SRC, "spdc_lab", "cli.py")):
        raise BenchError("no spdc_lab sources under %s" % SRC)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    record = run_record()
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    workdir = os.path.join(RUNS, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        n = workload.task_count(args.seconds)
        drawn = designs.draw(args.seed, n)
        configs = designs.write_configs(drawn, os.path.join(workdir, "configs"))
        docs = [designs.to_config(d) for d in drawn]
        reference = load_reference(workload, args.seed, docs)

        # set-up is probed before and after the batch, so that its median
        # does not hang on the machine's speed at one moment
        probe_configs = [configs[k % n] for k in range(SETUP_PROBES)]
        probes, gaps = setup_probes(probe_configs, deadline)
        setup = hostspeed.scaled([p[0] for p in probes], gaps)
        host_s = sum(gaps, [])

        # traced, the first half of the batch runs twice, untraced then traced,
        # so that the run takes about as long as an untraced one
        batches = [False, True] if args.trace else [False]
        size = max(1, n // 2) if args.trace else n
        results, checked = [], []
        for trace in batches:
            tasks = [
                workload.argv(j, configs[j], os.path.join(workdir, "b%d" % trace, "t%03d" % j))
                for j in range(size)
            ]
            results.append(run_batch(workload, tasks, trace, workdir, deadline))
            host_s += sum(results[-1]["host_s"], [])
            checked.append(check_batch(tasks, results[-1], reference))
            if trace:
                out_bytes = output_bytes(tasks)
        more, gaps = setup_probes(probe_configs[::-1], deadline)
        probes += more
        setup += hostspeed.scaled([p[0] for p in more], gaps)
        host_s += sum(gaps, [])
    finally:
        record["loadavg_end"] = _loadavg()
        shutil.rmtree(workdir, ignore_errors=True)

    walls, imports, loads = zip(*probes)
    base = results[0]
    errors = [
        "%s task %d (%s): %s" % (label, j, tasks[j][0], "; ".join(e))
        for label, batch in zip(("untraced", "traced"), checked)
        for j, (_, e) in enumerate(batch)
        if e
    ]
    attempted = size * len(batches)
    failed = sum(1 for batch in checked for _, e in batch if e)
    task_s = base["task_s"]
    samples = {
        "setup_s": "%d fresh interpreters, median" % len(walls),
        "time_to_solution_s": "1 batch of %d tasks" % size,
        "task_p50_s": "%d tasks" % size,
        "cpu_s": "1 batch, user+sys%s" % (", children" if workload.mode == "cli" else ""),
        "peak_rss_mb": "max over the batch's %s" % (
            "%d processes" % size if workload.mode == "cli" else "worker process"
        ),
    }
    raw = {
        "setup_s": statistics.median(walls),
        "time_to_solution_s": base["wall_s"],
        "task_p50_s": statistics.median(task_s),
        "cpu_s": base["cpu_s"],
    }
    scaled_task_s = hostspeed.scaled(task_s, base["host_s"])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "time_to_solution_s": sum(scaled_task_s),
        "task_p50_s": statistics.median(scaled_task_s),
        "cpu_s": sum(hostspeed.scaled(base["task_cpu_s"], base["host_s"])),
        "peak_rss_mb": base["peak_rss_kb"] / 1024.0,
    }

    lines = [
        "workload %s, seed %d, %d tasks, trace %d" % (workload.name, args.seed, size, args.trace),
        "record %s" % json.dumps(record, sort_keys=True),
    ]
    lines.append(
        "host speed: median probe %.4f s over %d probes, reference %.4f s"
        % (statistics.median(host_s), len(host_s), hostspeed.REFERENCE_S)
    )
    for name, value in end_to_end.items():
        lines.append(
            "%-20s %12.6g %-5s (%s%s)"
            % (
                name,
                value,
                END_TO_END_UNITS[name],
                samples[name],
                "; raw %.6g s" % raw[name] if name in raw else "",
            )
        )
    p = tail_percentile(size)
    if p is not None:
        lines.append(
            "%-20s %12.6g %-5s (highest percentile with >= 10 of %d tasks beyond it)"
            % ("task_p%d_s" % p, float(np.percentile(scaled_task_s, p)), "s", size)
        )
    else:
        lines.append("task tail: none, %d tasks leave fewer than 10 beyond any percentile" % size)
    lines.append(
        "%-20s %12.6g %-5s (%d of %d tasks)"
        % ("fail_frac", failed / attempted, "ratio", failed, attempted)
    )
    lines.append(
        "reference figures: %s"
        % ("compared" if reference is not None else "not recorded for this seed and --seconds")
    )

    if args.trace:
        traced = results[1]
        layer = summarize(traced["spans"])
        layer["cli.import_s"] = statistics.median(imports)
        layer["config.load_config.s"] = statistics.median(loads)
        layer["cli.output_bytes"] = out_bytes
        # both halves scaled, so that a change of host speed between them
        # is not booked as overhead
        traced_s = sum(hostspeed.scaled(traced["task_s"], traced["host_s"]))
        layer["trace.overhead_frac"] = traced_s / end_to_end["time_to_solution_s"] - 1.0
        layer["host.probe_s"] = statistics.median(host_s)
        metrics = {
            k: {"value": v, "unit": _unit(k)}
            for k, v in sorted(layer.items())
            if k not in PRINT_ONLY
        }
        for k, v in sorted(layer.items()):
            lines.append("%-40s %14s %s" % (k, _fmt(v), _unit(k)))
        lines.append("self-time shares of the traced batch:")
        for k, share in list(self_shares(traced["spans"]).items())[:8]:
            lines.append("  %-32s %5.1f%%" % (k, 100.0 * share))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    lines.extend("FAILED " + e for e in errors)
    for line in lines:
        print("# " + line)
    record["raw"] = raw
    record["task_s"] = task_s
    record["host_s"] = host_s
    _save_record(tag, record, end_to_end, docs, tasks, checked[0])
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _save_record(tag, record, end_to_end, docs, tasks, checked):
    """Run record with the figures of every task, for make_reference.py."""
    doc = dict(record)
    doc["end_to_end"] = end_to_end
    doc["tasks"] = [
        {"command": [argv[0]] + argv[5:], "design": d, "figures": f}
        for argv, d, (f, _) in zip(tasks, docs, checked)
    ]
    with open(os.path.join(RUNS, tag + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
