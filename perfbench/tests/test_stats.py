import random

import pytest

import stats


@pytest.mark.parametrize("n", [11, 12, 28, 100])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(1000), n)
    value, percentile, count = stats.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_highest_such_percentile():
    samples = list(range(1, 31))
    value, percentile, _ = stats.tail(samples)
    assert value == 20
    assert percentile == pytest.approx(200.0 / 3.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_relative_spread_matches_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    # statistics.quantiles (exclusive): q1 = 1.5, q3 = 4.5, median 3
    assert stats.relative_spread(values) == pytest.approx(1.0)
