"""Percentiles, owned by the benchmark so the program cannot move the ruler."""

from __future__ import annotations

import math

#: percentiles a latency report may use, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, int(math.ceil(p / 100.0 * n - 1e-9))))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` % of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p, n):
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return n - rank(p, n)


def supported(p, n):
    """True when at least :data:`MIN_BEYOND` samples lie beyond ``p``."""
    return n >= 1 and beyond(p, n) >= MIN_BEYOND


def highest_supported(n):
    """The highest of :data:`PERCENTILES` with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the lowest has fewer."""
    best = None
    for p in PERCENTILES:
        if supported(p, n):
            best = p
    return best


def median(values):
    return percentile(values, 50.0)
