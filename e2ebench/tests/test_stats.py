"""Medians, nearest-rank percentiles and sample-backed tails."""

import pytest

from e2ebench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([], 50) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, (99.0, 990.0)),   # p99.9 has 1 beyond it, p99 has 10
        (100, (90.0, 90.0)),     # p99: 1 beyond, p95: 5, p90: 10
        (40, (75.0, 30.0)),      # p90: 4 beyond, p75: 10
        (20, (50.0, 10.0)),      # only the median has 10 beyond it
        (19, (0.0, 0.0)),        # no rung has 10 samples beyond it
    ],
)
def test_tail_reads_the_highest_percentile_with_ten_beyond(n, expected):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    assert stats.tail(values) == expected


def test_median_and_geomean():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([]) == 0.0
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
