import pytest

import stats


@pytest.mark.parametrize("n, best", [
    (19, None),      # p50 has only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 has only 9 beyond it
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (999, 95.0),     # p99 has only 9 beyond it
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, best):
    assert stats.highest_supported(n) == best


def test_beyond_counts_samples_strictly_above_the_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert sum(1 for v in values if v > stats.percentile(values, 90)) \
        == stats.beyond(90, 100) == 10


def test_nearest_rank_percentile():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([4, 1, 3, 2], 50) == 2
    assert stats.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)
