"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import statistics

import pytest

from benchmarks.e2e import stats


def test_nearest_rank_returns_observed_values():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("bad", [-1, 100.5])
def test_percentile_rejects_out_of_range_q(bad):
    with pytest.raises(ValueError):
        stats.percentile([1.0], bad)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, q, beyond",
    [(200, 95, 10), (199, 95, 9), (1000, 99, 10), (999, 99, 9), (100, 50, 50)],
)
def test_samples_beyond(count, q, beyond):
    assert stats.beyond(count, q) == beyond


def test_check_tail_needs_ten_beyond():
    stats.check_tail(200, 95)
    stats.check_tail(1000, 99)
    with pytest.raises(ValueError, match="9 beyond"):
        stats.check_tail(199, 95)
    with pytest.raises(ValueError):
        stats.check_tail(999, 99)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.iqr_frac(values) == pytest.approx((q3 - q1) / statistics.median(values))
