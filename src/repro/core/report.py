"""Statistical helpers: CDFs, summaries, group averages, rank series.

These are the building blocks the benchmark harness uses to regenerate the
paper's figures: cumulative distributions (Figures 2, 5, 6, 7), per-group
averages (Figures 3 and 4), and rank-versus-count series (Figures 8 and 9).
They work on plain sequences of numbers so they can be reused outside the
survey pipeline (e.g. in the ablation benches).
"""

from __future__ import annotations

import bisect
import collections.abc
import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclasses.dataclass
class CDFSeries:
    """An empirical cumulative distribution function.

    ``points`` is a list of ``(value, percentile)`` pairs with percentiles in
    [0, 100], sorted by value — directly plottable as the paper's CDF
    figures.
    """

    points: List[Tuple[float, float]]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "CDFSeries":
        """Build the empirical CDF of ``values``."""
        ordered = sorted(float(v) for v in values)
        total = len(ordered)
        points: List[Tuple[float, float]] = []
        if not total:
            return cls(points=points)
        for index, value in enumerate(ordered, start=1):
            points.append((value, 100.0 * index / total))
        return cls(points=points)

    def percentile_at(self, value: float) -> float:
        """Percentage of observations less than or equal to ``value``."""
        if not self.points:
            return 0.0
        best = 0.0
        for observed, percentile in self.points:
            if observed <= value:
                best = percentile
            else:
                break
        return best

    def value_at_percentile(self, percentile: float) -> float:
        """Smallest value at or above the requested percentile."""
        if not self.points:
            return 0.0
        for observed, cumulative in self.points:
            if cumulative >= percentile:
                return observed
        return self.points[-1][0]

    def fraction_above(self, value: float) -> float:
        """Fraction (0..1) of observations strictly greater than ``value``."""
        return max(0.0, 1.0 - self.percentile_at(value) / 100.0)

    def __len__(self) -> int:
        return len(self.points)


def summary_stats(values: Sequence[float]) -> Dict[str, float]:
    """Mean, median, percentiles, and extremes of a sample."""
    data = sorted(map(float, values))
    if not data:
        return {"count": 0.0, "mean": 0.0, "median": 0.0, "p90": 0.0,
                "p99": 0.0, "min": 0.0, "max": 0.0, "stddev": 0.0}
    count = len(data)
    mean = bounded_mean(math.fsum(data), count, data[0], data[-1])
    variance = math.fsum((v - mean) ** 2 for v in data) / count
    return {
        "count": float(count),
        "mean": mean,
        "median": _percentile(data, 50.0),
        "p90": _percentile(data, 90.0),
        "p99": _percentile(data, 99.0),
        "min": data[0],
        "max": data[-1],
        "stddev": math.sqrt(variance),
    }


def bounded_mean(total: float, count: int, low: float, high: float) -> float:
    """``total / count``, clamped to the sample's ``[low, high]``.

    ``total`` must be the exact sum rounded once (``math.fsum``): with the
    clamp, the mean stays inside [min, max] even for samples of denormals,
    where naive summation rounds below the smallest element.
    """
    return min(max(total / count, low), high)


class SortedCounts(collections.abc.Sequence):
    """The sorted sample a ``value -> count`` histogram stands for.

    Indexing finds a rank by bisecting the cumulative counts, so
    :func:`_percentile` reads a histogram's percentiles without the sample
    being expanded or sorted.  Values come back as floats, as from
    ``sorted(map(float, sample))``.
    """

    def __init__(self, counts: Mapping[float, int]):
        ordered = sorted(item for item in counts.items() if item[1])
        self._values = [float(value) for value, _ in ordered]
        self._ends = list(itertools.accumulate(count for _, count
                                               in ordered))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, rank: int) -> float:
        if not 0 <= rank < len(self):
            raise IndexError(rank)
        return self._values[bisect.bisect_right(self._ends, rank)]


def histogram_percentile(counts: Mapping[float, int], pct: float) -> float:
    """:func:`percentile` of the sample a ``value -> count`` histogram
    stands for."""
    return _percentile(SortedCounts(counts), pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (0..100) of an unsorted sample.

    The public face of :func:`_percentile`, the definition
    :func:`summary_stats` and :func:`histogram_percentile` share.
    """
    return _percentile(sorted(map(float, values)), pct)


def _percentile(ordered: Sequence[float], percentile: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (percentile / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    low, high = ordered[lower], ordered[upper]
    # Clamped: on subnormal samples the weighted sum can round below both
    # neighbours (0.5 * 5e-324 is 0.0).  Integer samples never leave the
    # bracket, so their percentiles are unchanged.
    return min(max(low * (1.0 - weight) + high * weight, low), high)


def delta_stats(before: Sequence[float], after: Sequence[float],
                unchanged: int = 0) -> Dict[str, float]:
    """Churn summary between two aligned samples (e.g. snapshot diffing).

    ``before[i]`` and ``after[i]`` must describe the same entity (the same
    surveyed name in two snapshots).  ``unchanged`` counts further pairs
    known to be equal and left out of the lists: they add to the count but
    not to any delta, and because the sums are ``math.fsum`` (exactly
    rounded) the result is bit-identical to listing them.  Returns the
    count compared, how many moved, and signed/absolute delta statistics.
    """
    if len(before) != len(after):
        raise ValueError("before and after must be the same length")
    deltas = [float(b) - float(a) for a, b in zip(before, after)]
    count = len(deltas) + unchanged
    if not count:
        return {"count": 0.0, "changed": 0.0, "mean_delta": 0.0,
                "mean_abs_delta": 0.0, "max_abs_delta": 0.0}
    changed = sum(1 for delta in deltas if delta != 0.0)
    return {
        "count": float(count),
        "changed": float(changed),
        "mean_delta": math.fsum(deltas) / count,
        "mean_abs_delta": math.fsum(abs(d) for d in deltas) / count,
        "max_abs_delta": max((abs(d) for d in deltas), default=0.0),
    }


def average_by_group(values: Mapping[str, Sequence[float]],
                     minimum_samples: int = 1) -> Dict[str, float]:
    """Average of each group's values (e.g. mean TCB per TLD).

    Groups with fewer than ``minimum_samples`` observations are dropped so a
    single odd name does not produce a misleading bar.
    """
    averages: Dict[str, float] = {}
    for group, group_values in values.items():
        group_values = list(group_values)
        if len(group_values) < minimum_samples:
            continue
        averages[group] = sum(group_values) / len(group_values)
    return averages


def sort_groups_descending(averages: Mapping[str, float]) -> List[Tuple[str, float]]:
    """Groups ordered by decreasing average (the bar order of Figures 3-4)."""
    return sorted(averages.items(), key=lambda item: (-item[1], item[0]))


def rank_series(counts: Mapping[object, int]) -> List[Tuple[int, int]]:
    """Rank-versus-count series (the log-log scatter of Figures 8-9)."""
    ordered = sorted(counts.values(), reverse=True)
    return [(rank, count) for rank, count in enumerate(ordered, start=1)]


def histogram(values: Sequence[float], bin_edges: Sequence[float]
              ) -> List[Tuple[float, float, int]]:
    """Simple histogram: list of (low, high, count) per bin."""
    edges = sorted(bin_edges)
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    bins = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    counts = [0] * (len(edges) - 1)
    for value in values:
        for index in range(len(edges) - 1):
            upper_ok = value < edges[index + 1] or \
                (index == len(edges) - 2 and value <= edges[index + 1])
            if edges[index] <= value and upper_ok:
                counts[index] += 1
                break
    return [(low, high, counts[index])
            for index, (low, high, _unused) in enumerate(bins)]


def format_table(rows: Sequence[Sequence[object]],
                 headers: Optional[Sequence[str]] = None) -> str:
    """Render rows as a fixed-width text table (used by benches and the CLI)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    if headers is not None:
        materialised.insert(0, [str(h) for h in headers])
    if not materialised:
        return ""
    widths = [max(len(row[col]) for row in materialised)
              for col in range(len(materialised[0]))]
    lines = []
    for index, row in enumerate(materialised):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if headers is not None and index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
