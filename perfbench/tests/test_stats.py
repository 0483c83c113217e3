import numpy as np
import pytest

from perfbench.stats import MIN_BEYOND, distribution, quartile_spread, samples_beyond, tail_percentile


def count_above(values, pct):
    return int((np.asarray(values) > np.percentile(values, pct)).sum())


@pytest.mark.parametrize("n", [1, 5, 10, 19, 20, 21, 40, 99, 100, 250, 1000, 1234])
def test_tail_has_ten_samples_beyond_and_next_percentile_does_not(n):
    values = np.arange(n, dtype=float)
    pct = tail_percentile(n)
    assert 50 <= pct <= 99
    assert samples_beyond(n, pct) == count_above(values, pct)
    if n >= 2 * MIN_BEYOND:
        assert count_above(values, pct) >= MIN_BEYOND
    if pct < 99 and count_above(values, pct) >= MIN_BEYOND:
        assert count_above(values, pct + 1) < MIN_BEYOND


def test_known_tail_choices():
    assert tail_percentile(20) == 52
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    # Too few samples for any tail: fall back to the median, and say so.
    assert tail_percentile(12) == 50
    assert samples_beyond(12, 50) == 6


def test_distribution_reports_percentile_and_count():
    dist = distribution(list(range(1, 101)))
    assert dist.n == 100
    assert dist.p50 == pytest.approx(50.5)
    assert dist.tail_pct == 90
    assert dist.tail_beyond == 10
    assert dist.tail == pytest.approx(np.percentile(range(1, 101), 90))
    assert dist.note == "p90, 10 of 100 samples beyond"


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9, 10, 10, 10, 11]) == pytest.approx(0.1)
