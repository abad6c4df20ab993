"""Outside-in tracing of spdc_lab's layers from the benchmark's own files.

The tracer replaces the public functions listed in ``TRACED`` with wrappers
that record one span per call: name, start, end, parent span and a count
taken from the arguments or the return value. Every spdc_lab module that
bound a function by ``from ... import`` holds its own reference, so each of
those module attributes is replaced too (``jsa_grid`` and
``phase_mismatch_exact`` are bound in jsa, metrics, sweep and cli). Spans stay
in memory until ``summarize`` turns them into the per-layer metrics.
"""

import functools
import inspect
import sys
import time

import numpy as np


def _size(*arrays):
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _amplitude_elements(bound, result):
    grid = bound.arguments["grid"]
    return int(np.size(getattr(grid, "amplitude", grid)))


# (module, function, count taken from the bound arguments and the result)
TRACED = (
    ("spdc_lab.cli", "main", None),
    ("spdc_lab.config", "load_config", None),
    ("spdc_lab.dispersion", "wave_number", lambda b, r: _size(b.arguments["omega"])),
    (
        "spdc_lab.jsa",
        "phase_mismatch_exact",
        lambda b, r: _size(b.arguments["Omega_s"], b.arguments["Omega_i"]),
    ),
    (
        "spdc_lab.jsa",
        "mode_function",
        lambda b, r: _size(b.arguments["Omega_s"], b.arguments["Omega_i"]),
    ),
    ("spdc_lab.jsa", "jsa_grid", None),
    ("spdc_lab.schmidt", "schmidt_purity", _amplitude_elements),
    ("spdc_lab.metrics", "pair_rate", None),
    ("spdc_lab.metrics", "singles_rate", lambda b, r: r.max_shell + 1),
    ("spdc_lab.metrics", "compute_metrics", None),
    # wrapped so that its loop is not booked as cli.main self time
    ("spdc_lab.sweep", "rate_vs_pump_waist", None),
    ("spdc_lab.sweep", "golden_section_maximize", None),
    ("spdc_lab.sweep", "optimize", None),
)


class Tracer:
    """Span recorder; ``install`` patches spdc_lab, ``spans`` holds the record."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _call(self, name, fn, args, kwargs, count):
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else -1,
            "start": time.perf_counter(),
            "end": None,
            "count": 0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["count"] = count(result)
        return result

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        if name == "sweep.golden_section_maximize":

            @functools.wraps(fn)
            def traced(f, *args, **kwargs):
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                return self._call(name, fn, (counted,) + args, kwargs, lambda r: evals[0])

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counter = None
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                counter = functools.partial(count, bound)
            return self._call(name, fn, args, kwargs, counter)

        return traced

    def install(self):
        """Patch every spdc_lab module attribute that refers to a traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spdc_lab"]
        for module_name, func_name, count in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(
                "%s.%s" % (module_name.split(".")[1], func_name), original, count
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _tree(spans):
    """(children, duration, self time) per span."""
    children = [[] for _ in spans]
    for j, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(j)
    dur = [s["end"] - s["start"] for s in spans]
    self_time = [dur[j] - sum(dur[k] for k in children[j]) for j in range(len(spans))]
    return children, dur, self_time


def summarize(spans):
    """Per-layer metrics from a list of spans (each ``parent`` indexes the list)."""
    children, dur, self_time = _tree(spans)
    by_name = {}
    for j, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(j)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def count(name):
        return sum(spans[j]["count"] for j in ids(name))

    def self_s(name):
        return sum(self_time[j] for j in ids(name))

    def child_time(j, name):
        return sum(dur[k] for k in children[j] if spans[k]["name"] == name)

    out = {
        "cli.main.self_s": self_s("cli.main"),
        "dispersion.wave_number.calls": calls("dispersion.wave_number"),
        "dispersion.wave_number.points": count("dispersion.wave_number"),
        "dispersion.wave_number.self_s": self_s("dispersion.wave_number"),
        "jsa.phase_mismatch_exact.calls": calls("jsa.phase_mismatch_exact"),
        "jsa.phase_mismatch_exact.points": count("jsa.phase_mismatch_exact"),
        "jsa.mode_function.calls": calls("jsa.mode_function"),
        "jsa.mode_function.points": count("jsa.mode_function"),
        "jsa.mode_function.self_s": self_s("jsa.mode_function"),
        "jsa.jsa_grid.calls": calls("jsa.jsa_grid"),
        "jsa.jsa_grid.self_s": self_s("jsa.jsa_grid"),
        "schmidt.schmidt_purity.calls": calls("schmidt.schmidt_purity"),
        "schmidt.schmidt_purity.elements": count("schmidt.schmidt_purity"),
        "schmidt.schmidt_purity.self_s": self_s("schmidt.schmidt_purity"),
        "metrics.singles_rate.calls": calls("metrics.singles_rate"),
        "metrics.singles_rate.shells": count("metrics.singles_rate"),
        "metrics.singles_rate.self_s": self_s("metrics.singles_rate"),
        "metrics.compute_metrics.calls": calls("metrics.compute_metrics"),
        "sweep.golden_section_maximize.evals": count("sweep.golden_section_maximize"),
        "sweep.golden_section_maximize.total_s": sum(
            dur[j] for j in ids("sweep.golden_section_maximize")
        ),
    }

    # each grid-doubling level of pair_rate is one mode_function call on N^2
    # points; the last level is the converged one
    levels = points = useful = 0
    for j in ids("metrics.pair_rate"):
        sizes = [
            spans[k]["count"] for k in children[j] if spans[k]["name"] == "jsa.mode_function"
        ]
        levels += len(sizes)
        points += sum(sizes)
        useful += sizes[-1] if sizes else 0
    out["metrics.pair_rate.calls"] = calls("metrics.pair_rate")
    out["metrics.pair_rate.levels"] = levels
    out["metrics.pair_rate.points"] = points
    out["metrics.pair_rate.useful_frac"] = useful / points if points else 0.0
    out["metrics.pair_rate.self_s"] = self_s("metrics.pair_rate")

    # optimize: stage 1 is golden_section_maximize, the final reports are its
    # compute_metrics children and stage 3 is the rest. A stage-3 purity (eta)
    # evaluation is a schmidt_purity (pair_rate) call whose nearest traced
    # ancestor among these three is optimize itself.
    stage3 = report = 0.0
    for j in ids("sweep.optimize"):
        rep = child_time(j, "metrics.compute_metrics")
        report += rep
        stage3 += dur[j] - rep - child_time(j, "sweep.golden_section_maximize")
    stop = ("sweep.optimize", "metrics.compute_metrics", "sweep.golden_section_maximize")

    def in_stage3(j):
        p = spans[j]["parent"]
        while p >= 0 and spans[p]["name"] not in stop:
            p = spans[p]["parent"]
        return p >= 0 and spans[p]["name"] == "sweep.optimize"

    out["sweep.optimize.purity_evals"] = sum(
        in_stage3(j) for j in ids("schmidt.schmidt_purity")
    )
    out["sweep.optimize.eta_evals"] = sum(in_stage3(j) for j in ids("metrics.pair_rate"))
    out["sweep.optimize.stage3_s"] = stage3
    out["sweep.optimize.report_s"] = report
    return out


def self_shares(spans):
    """Self time per traced function as a share of the traced self time."""
    _, _, self_time = _tree(spans)
    totals = {}
    for s, t in zip(spans, self_time):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
