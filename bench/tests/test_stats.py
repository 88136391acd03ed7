import pytest

from bench import stats


def test_median_odd_even_and_empty():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.90) == 90
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.5) == 7.0
    # unsorted input, rank rounds up
    assert stats.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert stats.percentile([5, 1, 4, 2], 0.51) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # 9 beyond the median: not even p50
        (20, 0.50),
        (99, 0.50),  # p90 would leave 9
        (100, 0.90),
        (120, 0.90),  # the pooled per-plan walls: 12 beyond p90
        (1_000, 0.99),
        (257_000, 0.999),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_rel_spread_and_summarize():
    walls = [2.0, 2.2, 1.9]
    assert stats.rel_spread(walls) == pytest.approx(0.3 / 2.0)
    assert stats.rel_spread([0.0, 0.0]) == 0.0
    assert stats.summarize(walls) == {"value": 2.0, "min": 1.9, "max": 2.2, "n": 3}
