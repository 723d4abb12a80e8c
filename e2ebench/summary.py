"""The benchmark's arithmetic: one percentile, one spread.

Every latency figure the benchmark prints goes through
:func:`percentile`, and every run-to-run comparison through
:func:`spread`, so two numbers with the same name were always computed
the same way.
"""

from __future__ import annotations

import math
import statistics

#: a percentile is credible only with this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it.

    Refuses (``TooFewSamples``) a tail percentile with fewer than
    ``MIN_BEYOND`` samples beyond it — p95 needs 200 samples, p99
    needs 1000 — because the value would be one outlier's latency.
    The median needs one sample.
    """
    if not 0 < q < 1:
        raise ValueError(f"percentile wants 0 < q < 1, got {q}")
    count = len(samples)
    rank = math.ceil(q * count)  # 1-based
    if count == 0 or (q > 0.5 and count - rank < MIN_BEYOND):
        raise TooFewSamples(
            f"p{q * 100:g} of {count} samples: fewer than {MIN_BEYOND} "
            "beyond it")
    return sorted(samples)[max(rank, 1) - 1]


def median(samples: list[float]) -> float:
    return percentile(samples, 0.5)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of repeated runs, as
    ``statistics.quantiles(values, n=4)`` gives them — the driver's
    own arithmetic."""
    first, middle, third = statistics.quantiles(values, n=4)
    return first, middle, third


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, middle, third = quartiles(values)
    return (third - first) / abs(middle) if middle else math.inf


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of *parent* by which *change* is worse (negative when it
    is better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else math.inf


def self_times(spans: list[tuple]) -> list[float]:
    """Self time per span: its duration minus its direct children's.

    A span starts ``(name, start, end, parent_index, ...)``; children
    of one parent never overlap each other (one thread, or a hand-off
    the parent waits for), so the subtraction is exact.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own
