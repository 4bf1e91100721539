"""The machine-speed calibration kernel.

The CPU speed of a shared machine drifts by more than a fifth within
seconds, so raw wall-clock times do not repeat.  The benchmark runs this
fixed pure-Python loop between its jobs, and on a timer inside long jobs,
and reports every timing in reference seconds:

    raw seconds * (REFERENCE_KERNEL_S / mean kernel time around the job)

The loop exercises what the program's own hot paths use (integer
arithmetic, list indexing and a dict) and keeps at most a dict of 97
small ints, so it never sets the peak RSS.  It allocates no container
objects and runs with the garbage collector paused, so the size of the
program's heap at the time of the sample does not slow it down.  One sample
takes 0.1-0.2 s; much shorter samples add noise of their own.
"""

from __future__ import annotations

import gc
import time

# A corrected second is a second on a machine where one kernel sample takes
# this long.  On the machine the figures in README.md come from (2-core
# x86-64 VM, CPython 3.11) a sample took 0.1 s at its faster speed and
# about 0.16 s at its slower one.
REFERENCE_KERNEL_S = 0.1

KERNEL_ITERATIONS = 430_000


def _kernel(n: int) -> int:
    table = list(range(97))
    acc = 0
    seen = {}
    for i in range(n):
        j = table[(i * 31 + acc) % 97]
        acc = (acc + j * i) & 0xFFFF
        seen[j] = acc
        if i & 1:
            acc ^= seen.get(acc % 97, j)
    return acc


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel(KERNEL_ITERATIONS)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
