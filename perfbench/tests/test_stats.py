import statistics

import pytest

import stats


def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.5, 9.5, 10.0, 11.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([3.0] * 10) == 0.0


def test_empty_and_short_series_are_rejected():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([1.0])
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, want", [
    (39, None),        # too few samples for any tail
    (40, None),        # p90 would leave only four beyond it
    (100, 90.0),       # ten beyond p90
    (999, 90.0),       # p99 leaves nine
    (1000, 99.0),      # ten beyond p99
    (10000, 99.9),     # ten beyond p99.9
])
def test_tail_needs_ten_samples_beyond(n, want):
    values = [float(i) for i in range(n)]
    got = stats.tail(values)
    if want is None:
        assert got is None
    else:
        pct, value = got
        assert pct == want
        assert value == stats.percentile(values, want)
        assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_summary_reports_count_median_and_tail():
    values = [float(i) for i in range(100)]
    s = stats.summary(values)
    assert s["n"] == 100 and s["p50"] == 49.5 and s["p90"] == 89.0
    assert stats.summary([]) == {"n": 0}
