"""Host-speed calibration: time that reads the same whatever the neighbours do.

On a shared 2-core host, other tenants slow every process by 1.2-1.8x in
phases that last from seconds to several minutes, often longer than a whole
run, so no best-of or median over one run's passes removes them.  A timed
pass therefore samples the host's current speed with a fixed reference
kernel about every ``INTERVAL_S`` seconds (a ``SIGALRM`` handler runs it
between bytecodes, inside whatever spec is executing), and each stretch of
program time between two samples is scaled by how much slower than nominal
the kernel ran at either end of it:

    calibrated = sum over stretches of  stretch_s * NOMINAL_S / kernel_s

The kernel is the benchmark's own code and never changes with the program,
so a program that does less work reads faster by the same share, while a
phase that slows both reads as no change.  Time spent in the samples
themselves is left out of every latency.

The kernel enumerates the subgroups of (Z/2)^4 by join closure of the cyclic
subgroups and counts the inclusion pairs: frozensets of element indices, a
dict index, set unions and subset tests, the operations the program's
lattice code spends its time on.  It is still less memory-bound than the
program, which is slowed somewhat less than the kernel by a busy neighbour
(a log-log slope of about 0.8 between them), so a phase that covers a whole
run still moves calibrated figures a little; see README.md.
"""

from __future__ import annotations

import itertools
import signal
from bisect import bisect_right
from time import perf_counter

INTERVAL_S = 0.1
# Kernel repetitions per sample.
UNITS = 2
# Seconds one sample takes on the host this benchmark was written on (a
# 2-core Intel Xeon virtual machine, Python 3.11) with no busy neighbour; it
# only fixes the unit of calibrated time.
NOMINAL_S = 0.0029
# What the kernel must find: 67 subgroups, 513 inclusion pairs.
KERNEL_ANSWER = (67, 513)


def kernel(n: int = 2, k: int = 4) -> tuple[int, int]:
    """Subgroups of (Z/n)^k and their inclusion pairs, by join closure."""
    elems = list(itertools.product(range(n), repeat=k))
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple((p + q) % n for p, q in zip(x, y))] for y in elems] for x in elems]
    cyclic = set()
    for i in range(len(elems)):
        group, j = {0}, i
        while j not in group:
            group.add(j)
            j = add[j][i]
        cyclic.add(frozenset(group))
    subgroups = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        found = []
        for a in frontier:
            for c in cyclic:
                if c <= a:
                    continue
                joined = frozenset(add[x][y] for x in a for y in c)
                if joined not in subgroups:
                    subgroups.add(joined)
                    found.append(joined)
        frontier = found
    ordered = sorted(subgroups, key=len)
    return len(ordered), sum(1 for a in ordered for b in ordered if a <= b)


def time_kernel() -> tuple[float, float]:
    """One sample: perf_counter before and after ``UNITS`` kernel runs."""
    started = perf_counter()
    for _ in range(UNITS):
        kernel()
    return started, perf_counter()


def scale(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Nominal over actual speed, from the samples at both ends of a stretch."""
    return 2 * NOMINAL_S / ((before[1] - before[0]) + (after[1] - after[0]))


class Calibrator:
    """Samples the kernel on a timer while in its ``with`` block.

    ``samples`` holds ``(start, end)`` perf_counter pairs, one per sample,
    in time order; a sample's length is the kernel's time then.  One sample
    is taken on entry and one on exit, so every interval timed inside the
    block lies between two samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "Calibrator":
        if kernel() != KERNEL_ANSWER:
            raise RuntimeError("calibration kernel gave a wrong answer")
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def calibrated(samples: list[tuple[float, float]],
               intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """For each ``(start, end)`` interval that lies between two of the
    ``samples``: its raw seconds with the samples left out, and its
    calibrated seconds (see the module docstring)."""
    ends = [end for _, end in samples]
    # the stretch between sample k and k+1, and its scale
    stretches = [(samples[k][1], samples[k + 1][0], scale(samples[k], samples[k + 1]))
                 for k in range(len(samples) - 1)]
    out = []
    for start, end in intervals:
        raw = scaled = 0.0
        k = max(0, bisect_right(ends, start) - 1)
        while k < len(stretches) and stretches[k][0] < end:
            lo, hi, factor = stretches[k]
            part = min(hi, end) - max(lo, start)
            if part > 0:
                raw += part
                scaled += part * factor
            k += 1
        out.append((raw, scaled))
    return out
