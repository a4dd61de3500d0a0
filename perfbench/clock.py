"""A clock corrected for the machine's speed.

On the 2-core machine this benchmark was built on, the speed of both cores
drifts together by 15-30 % within seconds, and CPU time drifts with wall
time: the slowdown is per instruction, not time spent waiting. Medians of
raw run times then spread by 15-25 % between runs of the same code.

``SpeedClock`` samples the speed of the core the benchmark runs on, while
it runs: every TICK_S seconds a SIGALRM handler times a fixed piece of work
of the kind the workloads do, small numpy calls driven from Python (under
1 % of the run). An interval's length at reference speed is its wall time
times TICK_REFERENCE_S over the tick's mean time in the interval, taken as a
harmonic mean so that slow and fast stretches weigh by their length. Raw
wall times are recorded next to every scaled one.

A pure-Python loop as the tick under-corrected: across six noisy-label runs
it cut the spread of median run times from 13.5 % to 4.0 %, this tick to
2.0 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.1
TICK_CALLS = 40
TICK_REFERENCE_S = 0.0006  # about the tick's time when this machine runs fast


class SpeedClock:
    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, tick seconds)
        self._previous = None
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((200, 11))
        self._theta = 0.01 * rng.standard_normal(11)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        for _ in range(TICK_CALLS):
            float(np.mean(np.logaddexp(0.0, self._x @ self._theta)))
        self.ticks.append((start, time.perf_counter() - start))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]."""
        ticks = [s for t, s in self.ticks if start <= t <= end]
        if not ticks:  # shorter than one tick: use the last tick before it
            ticks = [s for t, s in self.ticks if t <= end][-1:]
        return TICK_REFERENCE_S / statistics.harmonic_mean(ticks)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
