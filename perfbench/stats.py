"""Summaries the benchmark reports: medians, tail percentiles, failures."""

from __future__ import annotations

import statistics

# a tail percentile is reported only when at least this many samples lie
# beyond it, so it is never one outlier's value
TAIL_SAMPLES = 10
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0)


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of a percentile, in exact integer arithmetic
    (percentiles are taken to two decimals: 99.9 * 10000 / 100 is 9990)."""
    basis_points = round(pct * 100)
    return max(1, -(-count * basis_points // 10000))


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least TAIL_SAMPLES samples
    ranked beyond it, or None when there are too few samples."""
    for pct in TAIL_CANDIDATES:
        if count - _rank(count, pct) >= TAIL_SAMPLES:
            return pct
    return None


def latency_summary(samples) -> dict:
    """Median and tail of a set of timings, with the sample count."""
    ordered = sorted(samples)
    tail = tail_percentile(len(ordered))
    return {
        "count": len(ordered),
        "p50": statistics.median(ordered),
        "tail_pct": tail,
        "tail": percentile(ordered, tail) if tail is not None else None,
    }


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted
