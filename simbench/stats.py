"""Medians, percentiles and their sample counts."""

from __future__ import annotations

import math

#: candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: a percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def highest_percentile(n: int) -> float | None:
    """The highest tail percentile with at least 10 of ``n`` samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def describe(name: str, values, unit: str) -> str:
    """One report line: median, the highest reportable percentile, and n."""
    n = len(values)
    line = f"{name:<18} median {median(values):.6g} {unit}"
    q = highest_percentile(n)
    if q is not None and q > 50.0:
        line += f"  p{q:g} {percentile(values, q):.6g} {unit}"
    return line + f"  (n={n})"
