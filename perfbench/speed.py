"""How fast the host runs Python right now, sampled alongside the work.

The host this benchmark was tuned on changes speed by up to ±30% within
seconds (other tenants share its cores and caches), so raw host times
spread more than any useful regression bound.  :class:`SpeedMeter` runs
a fixed pure-Python snippet from a 10 ms interval timer while a round
runs; the snippet's mean duration tracks the host's speed at the same
moments the work ran.  Dividing a host time by :func:`SpeedMeter.slowdown`
expresses it on a host where the snippet takes ``REFERENCE_TICK_S``.
On the tuning host this cut the round-to-round spread of ycsb-a
throughput from 31% to 5% (interquartile range over median, 16 rounds).

The snippet touches nothing the simulator uses, and the timer costs
about 0.6% of a round.
"""

from __future__ import annotations

import signal
import time

#: Snippet duration that defines the reference host (the middle of the
#: 40-66 us range it took on the 2-vCPU tuning host).
REFERENCE_TICK_S = 50e-6
INTERVAL_S = 0.01


def _snippet() -> None:
    table: dict = {}
    for i in range(400):
        table[i & 63] = table.get(i & 63, 0) + i


class SpeedMeter:
    """Samples the snippet's duration every ``INTERVAL_S`` while on."""

    def __init__(self) -> None:
        self.ticks = 0
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.seconds += time.perf_counter() - t0
        self.ticks += 1

    def start(self) -> None:
        self.ticks = 0
        self.seconds = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """How many times slower than the reference host the host ran
        while the meter was on (1.0 when no tick landed)."""
        if not self.ticks:
            return 1.0
        return self.seconds / self.ticks / REFERENCE_TICK_S
