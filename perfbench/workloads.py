"""The workloads: which CLI command each task runs on its drawn design.

Every workload is closed loop: one client runs one task at a time and waits
for its answer, as a designer at a terminal does. A task is one CLI command
on one design, and no two tasks share a design, so a cache that survives
between in-process tasks has nothing to hit.

``task_s`` is the mean wall time of one task measured at the commit that
defined the benchmark (2-core x86 container, one BLAS thread). It only turns
``--seconds`` into a fixed task count, so that two commits compared at the
same ``--seconds`` do the same work; a faster commit finishes it sooner.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # "inprocess": spdc_lab.cli.main in one worker process;
    # "cli": one fresh ``python -m spdc_lab.cli`` process per task
    mode: str
    # argument lists cycled over the tasks, without --config and --out
    commands: tuple
    task_s: float

    @property
    def cycle(self):
        # designs alternate degenerate / non-degenerate, so a cycle of
        # 2 * len(commands) tasks runs every command on both families
        return 2 * len(self.commands)

    def task_count(self, seconds):
        return max(self.cycle, round(seconds / self.task_s))

    def argv(self, j, config, out):
        command = self.commands[(j // 2) % len(self.commands)]
        return [command[0], "--config", config, "--out", out] + list(command[1:])


WORKLOADS = {
    w.name: w
    for w in (
        # dispersion, jsa, pair-rate doubling and SVD purity, no mode sum
        Workload(
            "rate-scan",
            "inprocess",
            (("sweep-rate",),),
            0.95,
        ),
        # mode-sum singles rates lead, then SVD purity and the optimizer stages
        Workload(
            "optimize",
            "inprocess",
            (("optimize",),),
            5.4,
        ),
        # package import, config loading and the report writers dominate
        Workload(
            "cli-batch",
            "cli",
            (("metrics",), ("jsa",), ("dispersion-report",)),
            0.8,
        ),
    )
}


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it, or None."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))
