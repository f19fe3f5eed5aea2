"""Host-speed normalisation of the timed intervals.

On a shared host the same code runs up to 1.6x slower for stretches of
tens of seconds, because other tenants load the machine; a run's median
cannot average that away, since whole runs land in slow or fast
stretches.  The meter therefore runs a fixed calibration kernel (about
3 ms of interpreter work: an arithmetic loop and method calls on small
objects; of the kernels tried, this mix tracked the simulator's
slowdowns best, better than dict- or NumPy-heavy ones) at every cell
boundary and every
:data:`SAMPLE_EVERY_S` of epoch loop, and converts each raw interval
between two calibrations to *reference seconds*:

    reference_s = raw_s * REFERENCE_S / mean(calibration before, after)

so an interval reads as the time it would take when the kernel takes
:data:`REFERENCE_S`.  Time spent calibrating is excluded.  The kernel
lives in the benchmark, so changes to the simulator cannot move it.
"""

from __future__ import annotations

import bisect
import time

#: calibration-kernel duration that defines reference speed: its 5th
#: percentile on a shared 2-core x86-64 container under Python 3.11.
REFERENCE_S = 0.0024
#: longest stretch of epoch loop between two calibrations.
SAMPLE_EVERY_S = 0.1


class _Counter:
    __slots__ = ("mask", "total")

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x & self.mask
        return self.total


def calibration_kernel() -> int:
    """Fixed interpreter work: arithmetic, then method calls on objects."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    counters = [_Counter(m) for m in range(256)]
    for i in range(8_000):
        total += counters[i & 255].add(i)
    return total


class SpeedMeter:
    """Calibration windows on the host clock, and interval conversion."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """Run the calibration kernel once and record its window."""
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        """Calibrate if :data:`SAMPLE_EVERY_S` passed since the last one."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def reference_seconds(self, a: float, b: float) -> float:
        """Convert the raw host interval ``[a, b]`` to reference seconds.

        Work between calibration windows k-1 and k runs at the mean speed
        of the two; work before the first or after the last window at
        that window's speed.  Calibration windows count as no work.
        """
        if b <= a:
            return 0.0
        if not self.durations:
            raise RuntimeError("no calibration sample taken")
        starts, ends, durs = self.starts, self.ends, self.durations
        n = len(durs)
        total = 0.0
        # gap k spans [ends[k-1], starts[k]] (k = 0 and k = n are open-ended)
        k = bisect.bisect_right(ends, a)
        while True:
            lo = ends[k - 1] if k > 0 else float("-inf")
            hi = starts[k] if k < n else float("inf")
            if lo >= b:
                break
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                if k == 0:
                    cal = durs[0]
                elif k == n:
                    cal = durs[n - 1]
                else:
                    cal = 0.5 * (durs[k - 1] + durs[k])
                total += overlap * REFERENCE_S / cal
            if k == n:
                break
            k += 1
        return total

    def speed(self) -> float:
        """Median host speed relative to reference (below 1 = slower)."""
        ordered = sorted(self.durations)
        return REFERENCE_S / ordered[len(ordered) // 2]
