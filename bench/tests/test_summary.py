"""The percentile picker reports a percentile only with >= 10 samples
beyond it."""

from summary import percentile, spread, supported, tail_percentile


def test_p99_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000)), 0.99) is None  # 9 beyond
    assert tail_percentile(list(range(1001)), 0.99) == 990   # 10 beyond
    assert tail_percentile(list(range(300)), 0.99) is None


def test_median_needs_ten_samples_beyond_too():
    assert tail_percentile(list(range(20)), 0.50) is None
    assert tail_percentile(list(range(21)), 0.50) == 10
    assert not supported(0, 0.5)


def test_picker_sorts_its_input():
    values = list(range(2000, 0, -1))
    assert tail_percentile(values, 0.99) == percentile(sorted(values), 0.99)


def test_spread_is_interquartile_share_of_median():
    # statistics.quantiles(n=4) of 1..9: q1=2.5, median=5, q3=7.5
    assert spread(list(range(1, 10))) == (2.5, 5.0, 7.5, 1.0)
    assert spread([5.0] * 10)[3] == 0.0
