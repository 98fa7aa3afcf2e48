"""Machine-speed probe: a fixed reference kernel timed between operations.

The speed of a shared host drifts by tens of percent over tens of seconds,
so raw wall times of identical work do not repeat.  The probe kernel
imports nothing from fppkit; it is timed about once a second, and every raw
time is scaled by PROBE_REF / (mean probe time near that moment), which
turns it into seconds on the reference machine.  The host switches between
a fast and a slow state within seconds, so probe times are bimodal: their
mean follows the average speed an operation sees, and their median does not.

The kernel has a pure-Python half (dict inserts with scattered keys, like
the dict-heavy fppkit layers) and a numpy half (a random gather from an
array larger than L2, like the array passes over large graphs); either half
alone tracked one of the workloads worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-core Xeon VM, CPython 3.11,
# numpy 2.4).  Set by `python3 perfbench/run.py --calibrate-probe`; README.md.
PROBE_REF = 0.0513
DICT_STEPS = 100_000
GATHER = 1 << 20
WINDOW_S = 4.0  # probes within this distance of an interval's midpoint
MIN_NEAR = 5  # else the nearest five; with fewer, one stray probe sways the mean
EVERY_S = 0.5  # at most one probe per this much wall time


def kernel(values: np.ndarray, index: np.ndarray) -> float:
    table: dict[int, int] = {}
    x = 1
    for i in range(DICT_STEPS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFF
        table[x] = i
    return len(table) + float(values[index].sum())


class Probe:
    """Probe samples of one run and the speed factor they imply."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        rng = np.random.default_rng(2204)
        self.values = rng.random(GATHER)
        self.index = rng.integers(0, GATHER, GATHER, dtype=np.int32)

    def measure(self) -> float:
        t0 = time.perf_counter()
        kernel(self.values, self.index)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def maybe_measure(self) -> None:
        """Measure unless the last probe ran less than EVERY_S ago."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.measure()

    def local(self, t_mid: float) -> float:
        """Mean probe time within WINDOW_S of t_mid (or of the MIN_NEAR
        nearest probes), without the highest and the lowest."""
        near = [s for t, s in self.samples if abs(t - t_mid) <= WINDOW_S]
        if len(near) < MIN_NEAR:
            ranked = sorted(self.samples, key=lambda p: abs(p[0] - t_mid))
            near = [s for _, s in ranked[:MIN_NEAR]]
        if len(near) >= 3:
            near = sorted(near)[1:-1]
        return statistics.fmean(near)

    def adjust(self, start: float, end: float, seconds: float | None = None) -> float:
        """Raw interval [start, end] (or `seconds` spent within it) in
        reference-machine seconds."""
        raw = end - start if seconds is None else seconds
        return raw * PROBE_REF / self.local((start + end) / 2)

    def summary(self) -> tuple[float, float, int]:
        """Median, interquartile range and count of the probe times."""
        times = [s for _, s in self.samples]
        if len(times) < 2:
            return times[0], 0.0, len(times)
        q1, _, q3 = statistics.quantiles(times, n=4)
        return statistics.median(times), q3 - q1, len(times)
