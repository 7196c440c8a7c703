"""How fast the host runs pure Python while an operation runs, and times
scaled to a fixed speed.

On a shared host the same code runs up to 1.7 times slower for seconds or
minutes at a time, and CPU time slows with wall time, so a median over one
run's passes still follows the host from run to run. While the timed part of
a pass runs, a ``Sampler`` interrupts it every ``INTERVAL_S`` with a timer
signal and times ``probe``, a fixed piece of standard-library work of about
a millisecond. The pass's times are then scaled by one factor:

    reported = measured * REFERENCE_S / mean(probe times of the pass)

A probe before and after an operation would miss the spells inside it; the
probes spread over the pass follow them. The time spent in the probes is
left out of the measured times (``Sampler.clock``). The CPUs of a shared
host differ in speed too, so a probe must run on the CPU that runs the
operation: where the operation is another process, both keep to one CPU
(``pin_to_one_cpu``) and the probes run between two operations. The level
of the factor depends on how the probes are taken, so compare a time with
the same metric of the same workload only. ``probe`` uses nothing
from troplog, so no change to the library moves it, and garbage collection
is off while it runs, so the heap that the library keeps does not either.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
GAP_PROBES = 3  # probes between two operations that run in other processes
# Median time of probe() on a quiet host: two Intel Xeon vCPUs, Python 3.11.
REFERENCE_S = 0.0011


def probe() -> None:
    """A fixed mix of Fraction arithmetic, tuple hashing and an integer loop."""
    acc, counts = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        key = (i % 97, i % 89, i * 7 % 31)
        counts[key] = counts.get(key, 0) + 1
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFFFFF


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` of wall time while entered.

    Use it in the main thread only: the probes run in a SIGALRM handler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler
        self._previous = None

    def clock(self) -> float:
        """A perf_counter that stands still while a probe runs."""
        return time.perf_counter() - self.spent

    def take(self, count: int = 1) -> None:
        """Time ``count`` probes now."""
        start = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        for _ in range(count):
            probe_start = time.perf_counter()
            probe()
            self.samples.append(time.perf_counter() - probe_start)
        if was_enabled:
            gc.enable()
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.take()

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts from now on, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def factor(samples: list[float]) -> float:
    """What to multiply times measured beside ``samples`` by to report them
    at reference speed: ``REFERENCE_S`` over their mean, 1 for no samples."""
    return REFERENCE_S / statistics.fmean(samples) if samples else 1.0
