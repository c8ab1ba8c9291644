"""Calibration kernel for time normalization.

A shared virtual machine can change speed by up to 1.8x within a minute
(measured on a 2-core Xeon VM with Python 3.11), which no run length
averages away.  So every timing is taken next to a fixed pure-Python kernel
and scaled to reference time:

    reference seconds = measured seconds * REF_KERNEL_S / kernel seconds

A change to ferrox moves the measured time and not the kernel, so ratios
between commits are preserved; a slow phase of the machine moves both.
"""

from __future__ import annotations

import time

#: Kernel time that defines reference time (about the kernel's time on that
#: VM in its fast phases).
REF_KERNEL_S = 400e-6


def kernel() -> complex:
    """Fixed complex-arithmetic loop, like the series loops of ferrox."""
    acc = 0j
    z = 0.6 + 0.3j
    for k in range(1, 1500):
        acc = acc * z + complex(k, 0.5) / (k + 1.5)
    return acc


def kernel_seconds() -> float:
    """Best of two kernel runs (the better one skips an interrupt)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(2):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best
