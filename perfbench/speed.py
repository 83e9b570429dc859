"""Unit timings corrected for the speed of a shared host.

The host this benchmark was built on (2-core Xeon VM) runs phases of seconds
to minutes in which everything takes up to 1.7x as long, on one core or both;
identical SSA runs took 3.6 s and 7.6 s within ten minutes.  A fixed reference
loop (interpreter work plus small numpy array operations, like hexreact's own
mix) is timed after every unit of work, and each unit's wall time is scaled by
``REFERENCE_S`` over the mean of the reference times around it.  The results
read as seconds at the reference speed.  On 14-second windows, the median
time of a fixed SSA run and of a fixed run+track varied by 28% and 26% of
their median (quartile distance) raw, and by 8% and 3% once scaled.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.003  # the reference loop on a quiet core of the build host


def reference_s() -> float:
    """Fastest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        seen = {}
        for i in range(20000):
            acc += (i * 7) % 13
            seen[i & 255] = acc
        a = np.zeros((64, 64), dtype=np.uint8)
        for _ in range(100):
            a = np.roll(a, 1, axis=0) + 1
        best = min(best, time.perf_counter() - t0)
    return best


class UnitClock:
    """Times named units of work; keeps (raw, scaled) seconds per unit."""

    def __init__(self):
        self.units: dict[str, tuple[float, float]] = {}
        self.reference_total = 0.0  # time spent in the reference loop
        self._ref = self._reference()

    def _reference(self) -> float:
        t0 = time.perf_counter()
        ref = reference_s()
        self.reference_total += time.perf_counter() - t0
        return ref

    def scale(self) -> float:
        """Scale factor to apply to raw seconds measured just now."""
        ref = self._reference()
        factor = REFERENCE_S / ((self._ref + ref) / 2)
        self._ref = ref
        return factor

    def time(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.units[name] = (raw, raw * self.scale())
        return out


class NullClock:
    """Stands in for UnitClock in traced runs: units are called, not timed."""

    def time(self, name: str, fn, *args):
        return fn(*args)
