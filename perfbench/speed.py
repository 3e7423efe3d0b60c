"""Machine-speed probe for a shared, drifting machine.

On a shared 2-vCPU x86_64 VM, the same request took up to 1.8 times as
long from one minute to the next, and the speed moved even within one
request of a second.  While a probe is active, a timer signal every
PERIOD_S runs a fixed reference loop in the middle of whatever is
executing and records how long it took.  The loop is big-int sums into a
dict keyed by tuples, in a random order, like the kernel's inner loops,
and it runs no package code, so a change to the package cannot move it.

A request's time is its wall time minus the probe runs inside it, scaled
by REFERENCE_S over the mean probe time during and just around it: it
reads as if the probe loop took REFERENCE_S, about its time on that VM
when unloaded.  The loop allocates no objects the garbage collector
tracks, so it triggers no collection of the program's heap.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.01
REFERENCE_S = 0.0002
# Probe runs on each side of a request that join the ones inside it.
PAD = 2

_FACTOR = 0x9E3779B97F4A7C15F39CC0605CEDC834
_RNG = random.Random(0)
_KEYS = [tuple(_RNG.randrange(-3, 5) for _ in range(6)) for _ in range(2048)]
_ORDER = [_RNG.choice(_KEYS) for _ in range(500)]


class SpeedProbe:
    """Context manager that samples the reference loop on a timer."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._acc: dict = {}
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = self._acc
        acc.clear()
        for i in range(len(_ORDER)):
            key = _ORDER[i]
            value = acc.get(key)
            acc[key] = i * _FACTOR if value is None else value + i * _FACTOR
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # Keep sampling long enough for the last interval's padding.
        time.sleep((PAD + 1) * PERIOD_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds without the probe runs inside, normalised seconds) of
        an interval that lay inside the probe's active time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        seconds = end - start - sum(self.durations[lo:hi])
        window = self.durations[max(0, lo - PAD):hi + PAD]
        if not window:
            raise RuntimeError("no probe samples: was the probe active?")
        return seconds, seconds * REFERENCE_S / statistics.fmean(window)
