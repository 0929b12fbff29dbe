"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings by
up to about 1.8x over minutes and flips between a fast and a slow state
many times a second (CPU time grows with wall time, so this is not the
process waiting: the core itself runs slower).  To keep those swings out
of the reported times, a timer interrupts the work every ``INTERVAL_S``
and times a fixed reference kernel, in the same thread, so the samples
cover the work uniformly in time.  Each item's wall time, less the time
spent in the samples, is multiplied by ``NOMINAL_S`` over the mean sample
taken during it: the item's time at the host's nominal speed.

The kernel uses numpy only, never qfisher, so a change to the program does
not move it.  It mixes the kinds of work the workloads do: interpreted
Python, numpy calls on 4001-node grids, and a numpy pass over a larger
array.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

#: median time of one sample on the host the baseline was measured on
#: (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6)
NOMINAL_S = 0.00137
#: time between samples while a sampler runs
INTERVAL_S = 0.1
#: samples taken and discarded when the kernel is first built
WARMUP_SAMPLES = 20
#: samples taken on each side of an item timed from outside
EDGE_SAMPLES = 10


class Sampler:
    """Times the reference kernel, on demand or every INTERVAL_S while
    running.  ``samples`` holds every sample time; ``spent`` is the wall
    time spent taking them, including the warm-up."""

    def __init__(self):
        t0 = time.perf_counter()
        self._x = np.linspace(-5.0, 5.0, 4001)
        self._y = np.exp(-self._x * self._x)
        self._mid = np.random.default_rng(0).random(50_000)
        self.samples = []
        for _ in range(WARMUP_SAMPLES):
            self._kernel()
        self.spent = time.perf_counter() - t0

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(4000):
            acc += (i * 0.5) % 7.0
        x, y = self._x, self._y
        for _ in range(5):
            g = np.gradient(y, x)
            acc += float(np.trapezoid(g * g / np.maximum(y, 1e-300), x))
        return acc + float(np.exp(self._mid).sum())

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        return self.samples[-1]

    def _on_timer(self, _signum, _frame):
        self.sample()

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@lru_cache(maxsize=None)
def sampler() -> Sampler:
    """The process's sampler, built (and warmed) on first use."""
    return Sampler()


def scaled(work: float, samples: list) -> float:
    """``work`` at nominal host speed, from the samples taken during it."""
    return work * NOMINAL_S / statistics.mean(samples)


class ItemTimes(dict):
    """Wall time of each item of a pass (one PDE run, one certify section,
    one command, one set-up) less the time spent sampling, and in
    ``scaled`` the same times at nominal host speed."""

    def __init__(self):
        super().__init__()
        self.scaled = {}

    def add(self, name: str, work: float, samples: list) -> None:
        """An item that took ``work`` seconds, with the samples taken during
        it; an item too short to hold one is scaled by one taken now."""
        self[name] = work
        self.scaled[name] = scaled(work, samples or [sampler().sample()])

    @contextmanager
    def timed(self, name: str):
        """Time the block; samples come from a running sampler, if any."""
        s = sampler()
        first, spent = len(s.samples), s.spent
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        self.add(name, wall - (s.spent - spent), s.samples[first:])

    def record(self, name: str, timer) -> None:
        """Record ``timer()``, a call that returns the time it measured and
        runs outside this process, with EDGE_SAMPLES samples on each side."""
        s = sampler()
        before = [s.sample() for _ in range(EDGE_SAMPLES)]
        work = timer()
        self.add(name, work, before + [s.sample() for _ in range(EDGE_SAMPLES)])
