"""Percentile, spread and self-time arithmetic."""

import statistics

import pytest

from e2ebench import summary


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 1001)]  # 1..1000
    assert summary.percentile(samples, 0.5) == 500
    assert summary.percentile(samples, 0.95) == 950
    assert summary.percentile(samples, 0.99) == 990
    assert summary.percentile(list(reversed(samples)), 0.95) == 950
    assert summary.median([3.0]) == 3.0
    assert summary.median([1.0, 2.0]) == 1.0  # a sample, never a mean


def test_percentile_refuses_a_tail_it_cannot_support():
    with pytest.raises(summary.TooFewSamples):
        summary.percentile([1.0] * 199, 0.95)  # 9 beyond
    assert summary.percentile([1.0] * 200, 0.95) == 1.0  # 10 beyond
    with pytest.raises(summary.TooFewSamples):
        summary.percentile([1.0] * 999, 0.99)
    with pytest.raises(summary.TooFewSamples):
        summary.percentile([], 0.5)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 1.0)


def test_spread_is_the_drivers_arithmetic():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.8, 9.7, 10.3]
    first, middle, third = statistics.quantiles(values, n=4)
    assert summary.quartiles(values) == (first, middle, third)
    assert summary.spread(values) == (third - first) / middle


def test_worse_by_respects_direction():
    assert summary.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert summary.worse_by(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert summary.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert summary.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["request", 0.0, 10.0, None, 1, None],   # 0
        ["parse", 1.0, 3.0, 0, 1, None],         # 1
        ["execute", 3.0, 9.0, 0, 1, None],       # 2
        ["join", 4.0, 8.0, 2, 1, None],          # 3
        ["decode", 8.0, 8.5, 2, 1, None],        # 4
        ["other", 20.0, 21.0, None, 2, None],    # 5
    ]
    own = summary.self_times(spans)
    assert own == [2.0, 2.0, 1.5, 4.0, 0.5, 1.0]
    # nothing is counted twice: self times add up to the roots
    assert sum(own) == pytest.approx(10.0 + 1.0)
