"""Host-speed calibration for the pipeline benchmark.

The benchmark runs on a few cores of a shared host whose speed moves by up
to half again over seconds to minutes, as other tenants load it: a fixed
pure-Python loop has read anywhere from 5.4 to 8.5 ms on the same 2-vCPU
Xeon VM within five minutes, and thread CPU time moves with it, so the
slowdown is the core's and not time stolen from the guest. Ten runs made
one after another therefore spread by 10-30% in every timing, whatever the
program does.

So each timed step is bracketed by a short calibration loop, and its time is
scaled to a host on which that loop takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / mean(loop before, loop after)

A program that gets 10% faster still reads 10% faster; a host that gets 10%
slower for a while no longer does. The loop is the benchmark's own code and
calls nothing in the package. run.py prints the unscaled values and the
median loop time on its info line, next to the scaled result.
"""
from __future__ import annotations

import os
import statistics
import time

#: Iterations of one calibration loop, about 2 ms of CPython bytecode.
LOOPS = 30_000
#: Repeats per probe; the fastest is kept, since an interrupt only adds time.
REPEATS = 3
#: The loop's nominal time: a round figure near the median of the probes on
#: a 2-vCPU Xeon VM with CPython 3.11, so scaled times read close to
#: unscaled ones there.
REFERENCE_S = 0.002


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class HostSpeed:
    """Probes the host's current speed and keeps every probe of the run."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, cpus=()) -> float:
        """Seconds one calibration loop takes now: on this process's CPU, or
        the mean over ``cpus`` for a step that runs on several at once."""
        if not cpus:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                _loop(LOOPS)
                best = min(best, time.perf_counter() - t0)
            self.samples.append(best)
            return best
        home = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self.probe())
        finally:
            os.sched_setaffinity(0, home)
        return statistics.fmean(times)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a time measured between two probes to the reference host."""
        return REFERENCE_S * 2 / (before + after)

    def median(self) -> float:
        return statistics.median(self.samples)
