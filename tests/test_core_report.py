"""Tests for :mod:`repro.core.report`."""

import pytest
from hypothesis import example, given, strategies as st

from collections import Counter

from repro.core.report import (
    CDFSeries,
    SortedCounts,
    average_by_group,
    bounded_mean,
    format_table,
    histogram,
    histogram_percentile,
    percentile,
    rank_series,
    sort_groups_descending,
    summary_stats,
)


# -- CDF ---------------------------------------------------------------------------

def test_cdf_from_values_basic():
    cdf = CDFSeries.from_values([1, 2, 3, 4])
    assert len(cdf) == 4
    assert cdf.points[0] == (1.0, 25.0)
    assert cdf.points[-1] == (4.0, 100.0)


def test_cdf_percentile_at_and_value_at():
    cdf = CDFSeries.from_values([10, 20, 30, 40, 50])
    assert cdf.percentile_at(30) == 60.0
    assert cdf.percentile_at(5) == 0.0
    assert cdf.percentile_at(100) == 100.0
    assert cdf.value_at_percentile(50) == 30
    assert cdf.value_at_percentile(100) == 50
    assert cdf.value_at_percentile(0) == 10


def test_cdf_fraction_above():
    cdf = CDFSeries.from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert cdf.fraction_above(8) == pytest.approx(0.2)
    assert cdf.fraction_above(10) == pytest.approx(0.0)
    assert cdf.fraction_above(0) == pytest.approx(1.0)


def test_cdf_empty():
    cdf = CDFSeries.from_values([])
    assert len(cdf) == 0
    assert cdf.percentile_at(1) == 0.0
    assert cdf.value_at_percentile(50) == 0.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=200))
def test_cdf_is_monotonic(values):
    cdf = CDFSeries.from_values(values)
    previous_value, previous_pct = cdf.points[0]
    for value, pct in cdf.points[1:]:
        assert value >= previous_value
        assert pct >= previous_pct
        previous_value, previous_pct = value, pct
    assert cdf.points[-1][1] == pytest.approx(100.0)


# -- summary statistics ---------------------------------------------------------------------

def test_summary_stats_known_values():
    stats = summary_stats([1, 2, 3, 4, 5])
    assert stats["count"] == 5
    assert stats["mean"] == 3
    assert stats["median"] == 3
    assert stats["min"] == 1
    assert stats["max"] == 5
    assert stats["p90"] == pytest.approx(4.6)


def test_summary_stats_empty():
    stats = summary_stats([])
    assert stats["count"] == 0
    assert stats["mean"] == 0


def test_summary_stats_single_value():
    stats = summary_stats([7.0])
    assert stats["median"] == 7.0
    assert stats["stddev"] == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=100))
@example([5e-324, 5e-324])
def test_summary_stats_bounds_property(values):
    stats = summary_stats(values)
    assert stats["min"] <= stats["median"] <= stats["max"]
    assert stats["min"] <= stats["mean"] <= stats["max"]


@given(st.lists(st.integers(0, 400), max_size=60),
       st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
@example([], [50.0])
@example([7], [0.0, 95.0, 100.0])
def test_histogram_statistics_equal_the_sample_statistics(values, pcts):
    """A ``size -> count`` histogram and an integer total give the
    sample's own mean and percentiles, to the last bit."""
    counts = Counter(values)
    ordered = SortedCounts(counts)
    assert list(ordered) == sorted(map(float, values))
    for pct in pcts:
        assert histogram_percentile(counts, pct) == percentile(values, pct)
    if values:
        assert bounded_mean(float(sum(values)), len(values), ordered[0],
                            ordered[len(ordered) - 1]) == \
            summary_stats(values)["mean"]


# -- grouping and ranking -----------------------------------------------------------------------

def test_average_by_group_and_minimum_samples():
    data = {"com": [10, 20, 30], "ua": [200], "edu": [50, 70]}
    averages = average_by_group(data, minimum_samples=2)
    assert averages == {"com": 20.0, "edu": 60.0}
    all_groups = average_by_group(data, minimum_samples=1)
    assert all_groups["ua"] == 200.0


def test_sort_groups_descending():
    ordered = sort_groups_descending({"com": 20.0, "ua": 200.0, "edu": 60.0})
    assert [label for label, _mean in ordered] == ["ua", "edu", "com"]


def test_rank_series():
    series = rank_series({"a": 5, "b": 100, "c": 20})
    assert series == [(1, 100), (2, 20), (3, 5)]


@given(st.dictionaries(st.text(min_size=1, max_size=5),
                       st.integers(min_value=0, max_value=10 ** 6),
                       min_size=1, max_size=50))
def test_rank_series_is_non_increasing(counts):
    series = rank_series(counts)
    values = [count for _rank, count in series]
    assert values == sorted(values, reverse=True)
    assert [rank for rank, _count in series] == list(range(1, len(counts) + 1))


# -- histogram and table formatting -----------------------------------------------------------------

def test_histogram_counts_and_edges():
    bins = histogram([1, 2, 3, 10, 20, 99, 100], [0, 10, 100])
    assert bins[0] == (0, 10, 3)
    assert bins[1] == (10, 100, 4)


def test_histogram_requires_two_edges():
    with pytest.raises(ValueError):
        histogram([1], [5])


def test_format_table_alignment_and_headers():
    text = format_table([["com", 23], ["ua", 214]],
                        headers=("tld", "mean"))
    lines = text.splitlines()
    assert lines[0].startswith("tld")
    assert set(lines[1]) <= {"-", " "}
    assert "214" in lines[-1]


def test_format_table_empty():
    assert format_table([]) == ""
