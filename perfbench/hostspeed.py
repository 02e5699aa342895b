"""The host's current speed, from a fixed computation timed between operations.

The host this benchmark was written on shares its cores with other
machines. Its speed drifts by up to a third within minutes, and the drift
moves every wall time of a run together. Runs therefore time a fixed
reference computation next to their operations. The reference never
touches the program. It does the three kinds of work the workloads do:
numpy calls on small arrays from a Python loop, streaming passes over a
larger array, and Python tuples in a set. Dividing the nominal reference
time by the run's mean reference time gives the host's speed during that
run, relative to the nominal host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on the 2-CPU host the benchmark was written on.
REF_NOMINAL_S = 0.030
# One reference sample per this much operation time (at least one per op).
SECONDS_PER_SAMPLE = 0.5

_GOLD = np.uint64(0x9E3779B97F4A7C15)


class HostSpeed:
    def __init__(self):
        # Buffers are allocated once, so sampling adds no memory peaks.
        self._small = np.arange(2048, dtype=np.uint64)
        self._medium = np.arange(1 << 17, dtype=np.float64)
        self._out = np.empty_like(self._medium)
        self.times: list[float] = []

    def sample(self, after_s: float = 0.0) -> None:
        """Time the reference once, or once per SECONDS_PER_SAMPLE of `after_s`."""
        for _ in range(max(1, int(after_s / SECONDS_PER_SAMPLE))):
            t0 = time.perf_counter()
            acc = 0
            for i in range(1, 1201):
                h = (self._small + np.uint64(i)) * _GOLD
                h ^= h >> np.uint64(29)
                acc += int(np.count_nonzero(h < _GOLD))
            for _ in range(24):
                np.multiply(self._medium, 1.5, out=self._out)
                np.sqrt(self._out, out=self._out)
                acc += int(np.count_nonzero(self._out < 256.0))
            acc += len(sorted({(i % 997, i) for i in range(15000)}))
            self.times.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        """Host speed relative to nominal: above 1 while the host runs fast."""
        return REF_NOMINAL_S / statistics.fmean(self.times)
