"""Machine-speed probe: a thread inside every measured process.

The host's speed drifts by tens of percent within a minute, and CPU time
drifts with it.  So each measured process pins itself to one CPU and runs
a thread that times a fixed piece of pure-Python exact arithmetic (the
kind of work crlie does) every PERIOD_S seconds.  Sharing the CPU and the
caches with the body, the samples slow down when the body does; run.py
turns the body's CPU seconds into seconds at the reference speed, at
which one sample takes REFERENCE_S.  The cyclic collector is off during a
sample: a collection that the sample's allocations started would traverse
the body's heap and charge that to the probe, so a body with a larger
heap would look faster.  The body's next allocation starts it instead.
"""

import gc
import os
import sys
import threading
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_S = 0.004


def _work() -> None:
    acc, seen = Fraction(0), {}
    for i in range(500):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        seen[(i % 97, i % 13)] = acc.numerator % 7


class Sampler(threading.Thread):
    """Samples as (perf_counter midpoint, CPU seconds of the sample)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while True:
            gc.disable()
            w0, c0 = time.perf_counter(), time.thread_time()
            _work()
            c1, w1 = time.thread_time(), time.perf_counter()
            gc.enable()
            self.samples.append(((w0 + w1) / 2, c1 - c0))
            if self._halt.wait(PERIOD_S):
                return

    def stop(self) -> list[tuple[float, float]]:
        self._halt.set()
        self.join()
        return self.samples


def start(cpu: int) -> Sampler:
    """Pin this process to ``cpu`` and start sampling its speed."""
    os.sched_setaffinity(0, {cpu})
    # Once a sample holds the interpreter lock, it keeps it to its end.
    sys.setswitchinterval(0.05)
    sampler = Sampler()
    sampler.start()
    return sampler
