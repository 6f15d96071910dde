"""Summary statistics for the benchmark: percentiles, tail percentiles
and failure shares.  Pure functions over lists of numbers, so the tests can
pin their edge cases down."""

from __future__ import annotations

import math

# A tail percentile is only reported when at least this many samples lie
# beyond it; fewer would make it the reading of one or two slow operations.
TAIL_SAMPLES = 10


def percentile(samples: list[float], p: float) -> float:
    """The p-th percentile (0 < p < 100) by the nearest-rank method: the
    smallest sample with at least p% of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


def min_samples_for(p: float) -> int:
    """Fewest samples for which TAIL_SAMPLES of them lie beyond the p-th
    percentile: 100 for p90, 1000 for p99."""
    return math.ceil(TAIL_SAMPLES / (1 - p / 100) - 1e-9)


def tail_percentile(samples: list[float], p: float = 90) -> float | None:
    """The p-th percentile if at least TAIL_SAMPLES samples lie beyond it,
    else None."""
    if len(samples) < min_samples_for(p):
        return None
    return percentile(samples, p)


def fail_share(failed: int, attempted: int) -> float:
    """Failed or wrong operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted
