"""A gauge of the machine's current speed, sampled while a workload runs.

On a shared machine the speed of one core can drift by half and more
within minutes, and every timing of a run moves with it.  The gauge times a fixed pure-Python loop every 10 ms
of the process's CPU time, from a ``SIGVTALRM`` handler, so the samples are
taken in between the workload's own steps.  ``run.py`` divides each pass's
times by the median sample of that pass.  On a 2-vCPU Xeon VM (2.1 GHz
nominal), over 27 passes of ``simples`` the pass time and the median sample
correlated at 0.97, and the quartile spread of pass times fell from 25% to
6%.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
LOOP = 2000


def _loop() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i
    return perf_counter() - t0


class SpeedGauge:
    """Samples of how long the fixed loop takes, in seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(_loop())

    def sample(self, n: int) -> None:
        """Take n samples now, for intervals too short for the timer."""
        self.samples.extend(_loop() for _ in range(n))

    def median_since(self, start: int) -> float:
        return statistics.median(self.samples[start:])
