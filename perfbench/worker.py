"""Runs one batch of CLI tasks and reports its timings; started by run.py.

    python3 worker.py <plan.json> <result.json>
    python3 worker.py --cli-child <spans.json> <spdc-lab arguments...>

The plan names the tasks (CLI argument lists), the mode and whether to
trace. In ``inprocess`` mode the tasks call ``spdc_lab.cli.main`` in this
process, so the resource usage of this process is the batch's. In ``cli``
mode every task is a fresh ``python -m spdc_lab.cli`` process (or, traced,
a ``--cli-child`` of this script) and its usage comes from ``os.wait4``.
Before every task, and after the last, the worker runs a gap of ``probes``
host-speed probes (hostspeed.py), outside the task timings; ``host_s`` holds
the gaps, and ``wall_s`` and ``cpu_s`` are sums over the tasks alone.
Output checks are run.py's job, after the batch, so they are never timed.
"""

import json
import os
import resource
import subprocess
import sys
import time
import traceback

import hostspeed


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def run_inprocess(plan):
    import spdc_lab.cli as cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    task_s, task_cpu_s, rc, errors, host_s = [], [], [], [], []
    for argv in plan["tasks"]:
        host_s.append(hostspeed.gap(plan["probes"]))
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, err = exc.code, "SystemExit(%r)" % (exc.code,)
        except Exception:
            code, err = None, traceback.format_exc(limit=3)
        else:
            err = None
        task_s.append(time.perf_counter() - t0)
        task_cpu_s.append(_cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(ru0))
        rc.append(code)
        errors.append(err)
    host_s.append(hostspeed.gap(plan["probes"]))
    return {
        "task_s": task_s,
        "task_cpu_s": task_cpu_s,
        "rc": rc,
        "errors": errors,
        "wall_s": sum(task_s),
        "cpu_s": sum(task_cpu_s),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "host_s": host_s,
        "spans": tracer.spans if tracer else [],
    }


def run_cli(plan):
    task_s, task_cpu_s, rc, errors, rss, spans, host_s = [], [], [], [], 0, [], []
    for argv in plan["tasks"]:
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, "spans.json")
        if plan["trace"]:
            cmd = [sys.executable, os.path.abspath(__file__), "--cli-child", spans_path]
        else:
            cmd = [sys.executable, "-m", "spdc_lab.cli"]
        host_s.append(hostspeed.gap(plan["probes"]))
        with open(os.path.join(out, "stdout.txt"), "wb") as fo, open(
            os.path.join(out, "stderr.txt"), "wb"
        ) as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd + argv, stdout=fo, stderr=fe)
            _, status, ru = os.wait4(proc.pid, 0)
            task_s.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rc.append(proc.returncode)
        errors.append(None)
        task_cpu_s.append(_cpu(ru))
        rss = max(rss, ru.ru_maxrss)
        if plan["trace"] and os.path.exists(spans_path):
            with open(spans_path) as fh:
                child = json.load(fh)
            base = len(spans)
            for s in child:
                if s["parent"] >= 0:
                    s["parent"] += base
            spans.extend(child)
    host_s.append(hostspeed.gap(plan["probes"]))
    return {
        "task_s": task_s,
        "task_cpu_s": task_cpu_s,
        "rc": rc,
        "errors": errors,
        "wall_s": sum(task_s),
        "cpu_s": sum(task_cpu_s),
        "peak_rss_kb": rss,
        "host_s": host_s,
        "spans": spans,
    }


def cli_child(spans_path, argv):
    """One traced CLI invocation; the spans go to ``spans_path``."""
    t0 = time.perf_counter()
    import spdc_lab.cli as cli

    from tracer import Tracer

    tracer = Tracer()
    # the package import is the first span, so that it shows in the shares
    tracer.spans.append(
        {"name": "cli.import", "parent": -1, "start": t0, "end": time.perf_counter(), "count": 0}
    )
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


def main():
    if sys.argv[1] == "--cli-child":
        return cli_child(sys.argv[2], sys.argv[3:])
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    result = run_inprocess(plan) if plan["mode"] == "inprocess" else run_cli(plan)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
