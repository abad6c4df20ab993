"""Host-speed probe: a fixed job whose wall time tracks the machine's speed.

    python3 perfbench/hostspeed.py [count]

The benchmark runs on a few cores of a shared host whose speed drifts: the
same code ran up to 1.5x slower from one run to the next, in phases of half
a minute to many minutes (baseline/unscaled/summary.md), and the speed also
changed within seconds. Raw times then measure the host as much as the
program. So every run puts a gap of these probes before and after each timed
item (a task or a set-up probe) and scales the item's time by

    REFERENCE_S / mean(probe wall times in the gaps on either side of it),

that is, to seconds at the host speed where one probe takes ``REFERENCE_S``.

A probe starts a fresh interpreter that imports numpy (dynamic loading and
unmarshalling, as a CLI start-up does) and then runs a fixed mix of
interpreted Python, numpy ufuncs and a small SVD (the kinds of work the
tasks compute); its time runs from spawn to exit. Timing the mix alone
tracked the in-process tasks worse than the whole probe did, being too
short. A change to spdc_lab cannot move the probe, which never imports it.

Run as a script it prints the median wall time of ``count`` probes, which is
how REFERENCE_S was measured.
"""

import statistics
import subprocess
import sys
import time

# median probe wall time on the 2-vCPU x86 VM where the benchmark was
# defined (Python 3.11.7, numpy 2.4.6, one BLAS thread)
REFERENCE_S = 0.25

PROBE = """\
import numpy as np
a = np.random.default_rng(0).standard_normal((128, 128))
for _ in range(4):
    np.linalg.svd(a, compute_uv=False)
x = np.linspace(0.0, 1.0, 200000)
np.exp(-x * x).sum() + np.sinc(x).sum()
s = 0
for i in range(150000):
    s += i * i
"""


def probe():
    """Wall seconds of one probe, from spawn to exit."""
    t0 = time.perf_counter()
    # through a pipe, so that the wait ends at the pipe's end of file: a plain
    # wait with a timeout polls the child in sleeps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", PROBE],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


def gap(count):
    """Wall seconds of ``count`` probes run back to back."""
    return [probe() for _ in range(count)]


def scaled(times, gaps):
    """``times`` in seconds at the reference host speed.

    ``gaps[i]`` and ``gaps[i + 1]`` are the probes run just before and just
    after ``times[i]``.
    """
    speed = [statistics.mean(g) for g in gaps]
    return [t * 2.0 * REFERENCE_S / (speed[i] + speed[i + 1]) for i, t in enumerate(times)]


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    print("%.4f" % statistics.median(gap(n)))
