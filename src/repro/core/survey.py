"""The survey orchestrator: crawl, resolve, fingerprint, analyse, aggregate.

:class:`Survey` reproduces the paper's measurement pipeline end to end:

1. take the list of web-server names from the (simulated) directory crawl;
2. for every name, walk its delegation chains with a real iterative resolver
   and build its delegation graph (Section 2);
3. fingerprint every nameserver discovered along the way via ``version.bind``
   and match the banners against the catalogue of known BIND holes;
4. compute, per name, the TCB report, the bottleneck (min-cut) analysis, and
   the hijack classification;
5. aggregate everything into a :class:`SurveyResults` object from which each
   of the paper's figures and headline statistics can be regenerated.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import itertools
import operator
import weakref
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dns.name import DomainName, NameLike
from repro.core.report import (CDFSeries, SortedCounts, average_by_group,
                               bounded_mean, histogram_percentile,
                               summary_stats)

if TYPE_CHECKING:
    from repro.core.value import NameserverValueAnalyzer, ServerValue
    from repro.vulns.bindversion import FingerprintResult
    from repro.vulns.database import VulnerabilityDatabase

#: Execution backends a :class:`Survey` (its engine) runs on.
BACKENDS: Tuple[str, ...] = ("serial", "socket")


class _Absent:
    """The type of :data:`ABSENT`, which no pass column value has."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


#: An extras cell of a record that lacks the column.
ABSENT = _Absent()

#: The classification of a name whose min-cut is entirely vulnerable.
COMPLETELY_HIJACKABLE = "complete"


def is_cctld(tld: str) -> bool:
    """True for a two-letter (country-code) TLD label."""
    return len(tld) == 2


@dataclasses.dataclass
class NameRecord:
    """Everything the survey learned about one name.

    ``tcb_servers`` (the servers the name transitively trusts) and
    ``mincut_servers`` (the smallest set whose compromise hijacks it) are
    immutable frozensets, shared rather than copied: the engine stores
    the TCB view's and the bottleneck's own sets, and a record hydrated
    from a binary snapshot holds the set store's cached frozenset, one
    object per distinct set.
    """

    name: DomainName
    tld: str
    category: str
    is_popular: bool
    resolved: bool
    tcb_size: int
    in_bailiwick: int
    vulnerable_in_tcb: int
    compromisable_in_tcb: int
    safety_percentage: float
    mincut_size: int
    mincut_safe: int
    mincut_vulnerable: int
    classification: str
    tcb_servers: FrozenSet[DomainName] = frozenset()
    mincut_servers: FrozenSet[DomainName] = frozenset()
    #: Columns contributed by engine analysis passes (availability, DNSSEC,
    #: ...).  Values are JSON-scalar (bool/int/float/str) so snapshots and
    #: cross-backend byte-identity hold without special casing.
    extras: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def is_cctld_name(self) -> bool:
        """True if the name lives under a two-letter (country-code) TLD."""
        return is_cctld(self.tld)

    @property
    def completely_hijackable(self) -> bool:
        """True if the min-cut consists solely of vulnerable servers."""
        return self.classification == COMPLETELY_HIJACKABLE

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly record used by snapshots."""
        return {
            "name": str(self.name),
            "tld": self.tld,
            "category": self.category,
            "is_popular": self.is_popular,
            "resolved": self.resolved,
            "tcb_size": self.tcb_size,
            "in_bailiwick": self.in_bailiwick,
            "vulnerable_in_tcb": self.vulnerable_in_tcb,
            "compromisable_in_tcb": self.compromisable_in_tcb,
            "safety_percentage": round(self.safety_percentage, 3),
            "mincut_size": self.mincut_size,
            "mincut_safe": self.mincut_safe,
            "mincut_vulnerable": self.mincut_vulnerable,
            "classification": self.classification,
            "tcb_servers": sorted(str(s) for s in self.tcb_servers),
            "mincut_servers": sorted(str(s) for s in self.mincut_servers),
            "extras": {key: self.extras[key] for key in sorted(self.extras)},
        }


#: The built-in record fields, in declaration order
#: (:meth:`SurveyResults.column` serves exactly these).
RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(NameRecord))


def is_number(value: object) -> bool:
    """True for an int or float cell; bools are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number_kind(kind: type) -> bool:
    """True for the type of an :func:`is_number` cell."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _bump(counts: Dict, key: object, step: int) -> None:
    """Add ``step`` to ``counts[key]``, deleting the key at zero."""
    left = counts.get(key, 0) + step
    if left:
        counts[key] = left
    else:
        del counts[key]


class _PassColumn:
    """One pass column's share of a :class:`SurveyCensus`."""

    __slots__ = ("present", "other", "kinds", "texts", "cells")

    def __init__(self, rows: int = 0):
        #: Records carrying the column, and of those, carrying something
        #: other than a number (every row).
        self.present = 0
        self.other = 0
        # The rest covers resolved rows only, as the summary does.
        #: type -> cells of that type.
        self.kinds: Dict[type, int] = {}
        #: str(cell) -> cells, over the cells that are not numbers.
        self.texts: Dict[str, int] = {}
        #: One cell per row, in row order; ABSENT off the resolved rows
        #: carrying the column.
        self.cells: List[object] = [ABSENT] * rows

    @classmethod
    def of_cells(cls, cells: List[object],
                 unresolved: Sequence[int]) -> "_PassColumn":
        """Count one :meth:`SurveyResults.extra_column` in one pass."""
        column = cls()
        kinds = collections.Counter(map(type, cells))
        kinds.pop(_Absent, None)
        column.present = sum(kinds.values())
        column.other = sum(count for kind, count in kinds.items()
                           if not _is_number_kind(kind))
        if unresolved:
            cells = list(cells)
            for row in unresolved:
                value = cells[row]
                if value is not ABSENT:
                    kinds[type(value)] -= 1
                    cells[row] = ABSENT
        column.kinds = {kind: count for kind, count in kinds.items()
                        if count}
        column.cells = cells
        if not all(map(_is_number_kind, column.kinds)):
            column.texts = dict(collections.Counter(
                str(value) for value in cells
                if value is not ABSENT and not is_number(value)))
        return column

    def copy(self) -> "_PassColumn":
        column = copy.copy(self)
        column.kinds, column.texts = dict(self.kinds), dict(self.texts)
        column.cells = list(self.cells)
        return column

    def count(self, value: object, resolved: bool, row: int,
              step: int) -> None:
        """Add (``step`` 1) or take away (-1) one row's cell."""
        self.present += step
        number = is_number(value)
        if not number:
            self.other += step
        if not resolved:
            return
        kind = type(value)
        _bump(self.kinds, kind, step)
        if not number:
            _bump(self.texts, str(value), step)
        self.cells[row] = value if step > 0 else ABSENT

    def values(self) -> List[object]:
        """The resolved rows' cells, in row order."""
        cells = self.cells
        if sum(self.kinds.values()) == len(cells):
            return cells
        return [cell for cell in cells if cell is not ABSENT]

    def summarise(self, column: str, summary: Dict[str, float]) -> None:
        """Add this column's :meth:`SurveyColumns.extras_summary` keys."""
        kinds = list(self.kinds)
        if not kinds:
            return
        rows = sum(self.kinds.values())
        if kinds == [bool]:
            summary[column] = self.texts.get("True", 0) / rows
        elif all(issubclass(kind, (int, float)) for kind in kinds):
            values = self.values()
            summary[column] = sum(map(float, values)) / len(values)
        else:
            texts = self.texts
            if any(map(_is_number_kind, kinds)):
                texts = collections.Counter(map(str, self.values()))
            for observed in sorted(texts):
                summary[f"{column}={observed}"] = texts[observed] / rows


class SurveyCensus:
    """Running totals behind a result set's drift statistics.

    Over the resolved rows: the count, a TCB-size histogram and total
    (mean, median, p95), the positive min-cut sizes' count and total, and
    the completely-hijackable and vulnerable-dependency counts.  Per pass
    column: how many records carry it and how many of those carry
    something other than a number (every row; they answer
    :meth:`SurveyResults.extras_columns` and
    :meth:`SurveyResults.numeric_extra_count`), and over the resolved rows
    the cells' types, per-value counts of the cells that are not numbers,
    and a row-ordered cell list for the numeric means.

    A census is counted in one pass over a result set's columns
    (:class:`SurveyColumns`; the pass columns on first use, so the
    headline reads none), or :meth:`advanced` from the previous epoch's
    by counting only the rows that changed.  Either way the
    statistics are those of the records themselves: numeric means are
    recomputed from the row-ordered cells each time, never kept by adding
    and subtracting, and the TCB percentiles go through the same
    interpolation as :func:`~repro.core.report.percentile`.
    """

    def __init__(self, columns: Optional["SurveyColumns"] = None):
        self.rows = 0
        #: Resolved rows.
        self.resolved = 0
        #: TCB size -> resolved rows with that size, and the sizes' total.
        self._sizes: Dict[int, int] = {}
        self._size_total = 0
        #: Resolved rows with a positive min-cut, and their sizes' total.
        self._mincut_rows = 0
        self._mincut_total = 0
        #: Resolved rows completely hijackable / with a vulnerable server.
        self._hijackable = 0
        self._vulnerable = 0
        #: Per pass column; None until counted off the result set
        #: ``_source`` refers to (weakly: the result set holds its census),
        #: whose ``_unresolved`` rows the summary leaves out.
        self._extras: Optional[Dict[str, _PassColumn]] = {}
        self._source: Optional[weakref.ref] = None
        self._unresolved: List[int] = []
        if columns is not None:
            self._count_columns(columns)

    def _count_columns(self, columns: "SurveyColumns") -> None:
        resolved = columns.column("resolved")
        self.rows = len(resolved)
        sizes = columns.resolved("tcb_size")
        self.resolved = len(sizes)
        self._sizes = dict(collections.Counter(sizes))
        self._size_total = sum(sizes)
        cuts = [size for size in columns.resolved("mincut_size") if size > 0]
        self._mincut_rows, self._mincut_total = len(cuts), sum(cuts)
        self._hijackable = columns.resolved("classification").count(
            COMPLETELY_HIJACKABLE)
        self._vulnerable = sum(1 for count
                               in columns.resolved("vulnerable_in_tcb")
                               if count > 0)
        self._unresolved = [row for row, ok in enumerate(resolved)
                            if not ok]
        self._extras, self._source = None, weakref.ref(columns.results)

    def _pass_columns(self) -> Dict[str, _PassColumn]:
        """The per-column counts, counted on first use."""
        if self._extras is None:
            results, self._source = self._source(), None
            self._extras = {
                column: _PassColumn.of_cells(results.extra_column(column),
                                             self._unresolved)
                for column in results._listed_extras_columns()}
        return self._extras

    def advanced(self, rows: Sequence[int], leaving: Iterable[NameRecord],
                 incoming: Iterable[NameRecord]) -> "SurveyCensus":
        """The census once each of ``rows`` trades its ``leaving`` record
        for its ``incoming`` one (the three in step); this one is kept."""
        extras = self._pass_columns()
        census = copy.copy(self)
        census._sizes = dict(self._sizes)
        census._extras = {column: entry.copy()
                          for column, entry in extras.items()}
        for row, before, after in zip(rows, leaving, incoming):
            census._count(before, row, -1)
            census._count(after, row, 1)
        return census

    def _count(self, record: NameRecord, row: int, step: int) -> None:
        resolved = record.resolved
        if resolved:
            self.resolved += step
            _bump(self._sizes, record.tcb_size, step)
            self._size_total += step * record.tcb_size
            if record.mincut_size > 0:
                self._mincut_rows += step
                self._mincut_total += step * record.mincut_size
            if record.classification == COMPLETELY_HIJACKABLE:
                self._hijackable += step
            if record.vulnerable_in_tcb > 0:
                self._vulnerable += step
        extras = self._extras
        for column, value in record.extras.items():
            entry = extras.get(column)
            if entry is None:
                entry = extras[column] = _PassColumn(self.rows)
            entry.count(value, resolved, row, step)

    # -- reads -------------------------------------------------------------------------

    def columns(self) -> List[str]:
        """Every pass column at least one record carries, sorted."""
        return sorted(column for column, entry
                      in self._pass_columns().items() if entry.present)

    def numeric_count(self, column: str) -> Optional[int]:
        """How many records carry ``column`` if every value is a number;
        ``None`` for an absent or non-numeric column."""
        entry = self._pass_columns().get(column)
        if entry is None or not entry.present or entry.other:
            return None
        return entry.present

    def tcb_mean(self) -> float:
        """Mean TCB size of the resolved rows (as :func:`summary_stats`)."""
        if not self.resolved:
            return 0.0
        ordered = SortedCounts(self._sizes)
        return bounded_mean(float(self._size_total), self.resolved,
                            ordered[0], ordered[len(ordered) - 1])

    def tcb_percentile(self, pct: float) -> float:
        """A TCB-size percentile of the resolved rows (as
        :func:`~repro.core.report.percentile`)."""
        return histogram_percentile(self._sizes, pct)

    def mincut_mean(self) -> float:
        """Mean size of the resolved rows' non-empty min-cuts."""
        if not self._mincut_rows:
            return 0.0
        return self._mincut_total / self._mincut_rows

    def hijackable_fraction(self) -> float:
        """Fraction of resolved rows whose min-cut is all vulnerable."""
        return self._hijackable / self.resolved if self.resolved else 0.0

    def vulnerable_dependency_fraction(self) -> float:
        """Fraction of resolved rows with a vulnerable TCB member."""
        return self._vulnerable / self.resolved if self.resolved else 0.0

    def extras_summary(self) -> Dict[str, float]:
        """See :meth:`SurveyColumns.extras_summary`."""
        summary: Dict[str, float] = {}
        extras = self._pass_columns()
        for column in self.columns():
            extras[column].summarise(column, summary)
        return summary


@dataclasses.dataclass
class SurveyResults:
    """Aggregated output of a survey run."""

    records: List[NameRecord]
    server_names_controlled: Dict[DomainName, int]
    vulnerable_servers: Set[DomainName]
    compromisable_servers: Set[DomainName]
    fingerprints: Dict[DomainName, FingerprintResult]
    popular_names: Set[DomainName]
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)
    _record_index: Optional[Dict[DomainName, NameRecord]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    #: The :class:`~repro.core.delta.DirtyIndex` of these results, carried
    #: by :meth:`~repro.core.engine.SurveyEngine.run_delta` from the
    #: previous epoch's; while set, ``server_names_controlled`` is that
    #: run's exact fold too, so the next delta adjusts both instead of
    #: rebuilding them, and the index's row order and
    #: :class:`SurveyCensus` describe ``records``.  Every other result set
    #: rebuilds from scratch.
    _dirty_index: Optional[object] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    # -- cohorts ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def resolved_records(self) -> List[NameRecord]:
        """Records for names whose delegation chain could be walked."""
        return [record for record in self.records if record.resolved]

    def popular_records(self) -> List[NameRecord]:
        """Records for the Alexa-style popular cohort."""
        return [record for record in self.records if record.is_popular]

    def records_by_tld(self) -> Dict[str, List[NameRecord]]:
        """Records grouped by TLD."""
        grouped: Dict[str, List[NameRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.tld, []).append(record)
        return grouped

    def record_for(self, name: NameLike) -> Optional[NameRecord]:
        """The record for ``name``, if it was surveyed.

        Backed by :meth:`record_index`, so repeated lookups are O(1)
        instead of scanning the record list.
        """
        if not isinstance(name, DomainName):
            name = DomainName(name)
        return self.record_index().get(name)

    def record_index(self) -> Dict[DomainName, NameRecord]:
        """name -> record, built on first use (do not mutate)."""
        index = self._record_index
        if index is None or len(index) != len(self.records):
            index = {record.name: record for record in self.records}
            self._record_index = index
        return index

    def tcb_index_rows(self):
        """Yield ``(name, resolved, tcb_servers)`` per record.

        The :class:`~repro.core.delta.DirtyIndex` feed: dirty-set
        computation needs exactly these three columns, so exposing them as
        a protocol lets column-backed lazy views
        (:class:`~repro.core.snapstore.LazySurveyResults`) serve the index
        without materialising a single :class:`NameRecord`.
        """
        for record in self.records:
            yield record.name, record.resolved, record.tcb_servers

    # -- record columns ------------------------------------------------------------------

    def column(self, field: str) -> List[object]:
        """One :class:`NameRecord` field for every record, in record order.

        The figure and headline reducers (:class:`SurveyColumns`) read the
        survey only through this, so a column-backed view answers them
        without building a single record.
        """
        if field not in RECORD_FIELDS:
            raise ValueError(f"not a NameRecord field: {field!r}")
        return list(map(operator.attrgetter(field), self.records))

    def columns(self) -> "SurveyColumns":
        """A fresh :class:`SurveyColumns` over these results."""
        return SurveyColumns(self)

    # -- figures 2-7: per-name distributions (reduced by SurveyColumns) --------------

    def tcb_sizes(self, popular_only: bool = False) -> List[int]:
        """TCB sizes across the survey (optionally only the popular cohort)."""
        return self.columns().tcb_sizes(popular_only)

    def tcb_cdf(self, popular_only: bool = False) -> CDFSeries:
        """The Figure 2 CDF."""
        return CDFSeries.from_values(self.tcb_sizes(popular_only=popular_only))

    def mean_tcb_by_tld(self, kind: str = "all",
                        minimum_samples: int = 3) -> Dict[str, float]:
        """Mean TCB size per TLD; ``kind`` is "gtld", "cctld", or "all"."""
        return self.columns().mean_tcb_by_tld(kind, minimum_samples)

    def vulnerable_in_tcb_counts(self, popular_only: bool = False) -> List[int]:
        """Per-name count of vulnerable TCB members (Figure 5)."""
        return self.columns().vulnerable_in_tcb_counts(popular_only)

    def safety_percentages(self, popular_only: bool = False) -> List[float]:
        """Per-name percentage of safe TCB members (Figure 6)."""
        return self.columns().safety_percentages(popular_only)

    def fraction_with_vulnerable_dependency(self) -> float:
        """Fraction of names depending on >= 1 vulnerable server (45 %)."""
        return self.columns().fraction_with_vulnerable_dependency()

    def safe_bottleneck_counts(self, popular_only: bool = False) -> List[int]:
        """Per-name number of safe servers in the min-cut (Figure 7)."""
        return self.columns().safe_bottleneck_counts(popular_only)

    def fraction_completely_hijackable(self) -> float:
        """Fraction of names whose min-cut is entirely vulnerable (30 %)."""
        return self.columns().fraction_completely_hijackable()

    def mean_mincut_size(self) -> float:
        """Average bottleneck size (paper: 2.5 servers)."""
        return self.columns().mean_mincut_size()

    # -- figures 8-9: nameserver value ------------------------------------------------------------

    def value_analyzer(self) -> NameserverValueAnalyzer:
        """A value analyzer loaded with this survey's TCBs."""
        from repro.core.value import NameserverValueAnalyzer
        vulnerability_map = {host: True for host in self.vulnerable_servers}
        analyzer = NameserverValueAnalyzer(vulnerability_map)
        for record in self.resolved_records():
            analyzer.add_name(record.tcb_servers)
        return analyzer

    def server_value_ranking(self, only_vulnerable: bool = False,
                             tld_filter: Optional[Sequence[str]] = None
                             ) -> List[ServerValue]:
        """Rank servers by the number of surveyed names they control."""
        return self.value_analyzer().ranking(only_vulnerable=only_vulnerable,
                                             tld_filter=tld_filter)

    # -- analysis-pass columns --------------------------------------------------------------------

    def extras_columns(self) -> List[str]:
        """Every pass-contributed column appearing on at least one record."""
        if self._dirty_index is not None:
            return self._dirty_index.census(self.columns()).columns()
        return self._listed_extras_columns()

    def _listed_extras_columns(self) -> List[str]:
        """:meth:`extras_columns` found without a census (the census
        count reads it)."""
        return sorted(set().union(*map(operator.attrgetter("extras"),
                                       self.records)))

    def extra_column(self, column: str) -> List[object]:
        """One pass column for every record, in record order, with
        :data:`ABSENT` where a record lacks it."""
        return [record.extras.get(column, ABSENT) for record in self.records]

    def extra_values(self, column: str,
                     resolved_only: bool = True) -> List[object]:
        """Values of one pass column (records missing it are skipped)."""
        return self.columns().extra_values(column, resolved_only)

    def numeric_extra_count(self, column: str) -> Optional[int]:
        """How many records carry ``column`` when every value is a number
        (bools are not); ``None`` for an empty or non-numeric column."""
        if self._dirty_index is not None:
            return self._dirty_index.census(self.columns()).numeric_count(
                column)
        values = self.extra_values(column, resolved_only=False)
        if values and all(map(is_number, values)):
            return len(values)
        return None

    def extras_summary(self) -> Dict[str, float]:
        """Aggregate pass columns: means for numbers, fractions for the rest."""
        return self.columns().extras_summary()

    # -- headline summary -------------------------------------------------------------------------

    def total_servers_discovered(self) -> int:
        """Distinct nameservers appearing in at least one TCB."""
        return len(self.server_names_controlled)

    def vulnerable_server_fraction(self) -> float:
        """Fraction of discovered servers with a known vulnerability (17 %)."""
        total = self.total_servers_discovered()
        if not total:
            return 0.0
        vulnerable = sum(1 for host in self.server_names_controlled
                         if host in self.vulnerable_servers)
        return vulnerable / total

    def headline(self) -> Dict[str, float]:
        """The paper's headline statistics, computed from this survey."""
        return self.columns().headline()


class SurveyColumns:
    """The reducers behind the headline, Figures 2-7, the pass summary and
    the churn timeline's drift series.

    Every statistic here reads the survey through
    :meth:`SurveyResults.column` (pass columns through
    :meth:`SurveyResults.extra_column`) or through the results'
    :class:`SurveyCensus`, and nothing else.  Each field is fetched once
    and kept, as is each field's resolved-rows cut and the census, so a
    caller asking for several statistics (:meth:`headline`, the churn
    timeline's per-epoch row) reads every column once.  Use one instance
    per reduction: records changed after a column was read are not seen.
    """

    def __init__(self, results: SurveyResults):
        self._results = results
        self._columns: Dict[str, List[object]] = {}
        self._resolved: Dict[tuple, List[object]] = {}
        self._census: Optional[SurveyCensus] = None

    @property
    def results(self) -> SurveyResults:
        """The result set these reducers read."""
        return self._results

    def census(self) -> SurveyCensus:
        """The results' census: the one their carried
        :class:`~repro.core.delta.DirtyIndex` holds, else counted once
        from these columns."""
        if self._census is None:
            index = getattr(self._results, "_dirty_index", None)
            self._census = SurveyCensus(self) if index is None \
                else index.census(self)
        return self._census

    def column(self, field: str) -> List[object]:
        """One record field for every row (fetched once, shared)."""
        found = self._columns.get(field)
        if found is None:
            found = self._columns[field] = self._results.column(field)
        return found

    def resolved(self, field: str, popular_only: bool = False) -> List[object]:
        """``field`` over the resolved rows (popular ones only, if asked)."""
        key = (field, popular_only)
        found = self._resolved.get(key)
        if found is None:
            keep = self.column("resolved")
            if popular_only:
                keep = [resolved and popular for resolved, popular in
                        zip(keep, self.column("is_popular"))]
            found = self._resolved[key] = list(
                itertools.compress(self.column(field), keep))
        return found

    # -- figure 2: TCB size distribution ----------------------------------------------

    def tcb_sizes(self, popular_only: bool = False) -> List[int]:
        """TCB sizes across the survey (optionally only the popular cohort)."""
        return list(self.resolved("tcb_size", popular_only))

    def names_resolved(self) -> int:
        """How many names resolved."""
        return self.census().resolved

    def mean_tcb_size(self) -> float:
        """Mean TCB size of the resolved names."""
        return self.census().tcb_mean()

    def tcb_percentile(self, pct: float) -> float:
        """A percentile (0..100) of the resolved names' TCB sizes; 50 is
        the median."""
        return self.census().tcb_percentile(pct)

    # -- figures 3-4: per-TLD averages ---------------------------------------------------

    def mean_tcb_by_tld(self, kind: str = "all",
                        minimum_samples: int = 3) -> Dict[str, float]:
        """Mean TCB size per TLD; ``kind`` is "gtld", "cctld", or "all"."""
        grouped: Dict[str, List[float]] = {}
        for tld, size in zip(self.resolved("tld"), self.resolved("tcb_size")):
            if kind == "gtld" and is_cctld(tld):
                continue
            if kind == "cctld" and not is_cctld(tld):
                continue
            grouped.setdefault(tld, []).append(float(size))
        return average_by_group(grouped, minimum_samples=minimum_samples)

    # -- figures 5-6: vulnerability exposure -----------------------------------------------

    def vulnerable_in_tcb_counts(self, popular_only: bool = False) -> List[int]:
        """Per-name count of vulnerable TCB members (Figure 5)."""
        return list(self.resolved("vulnerable_in_tcb", popular_only))

    def safety_percentages(self, popular_only: bool = False) -> List[float]:
        """Per-name percentage of safe TCB members (Figure 6)."""
        return list(self.resolved("safety_percentage", popular_only))

    def fraction_with_vulnerable_dependency(self) -> float:
        """Fraction of names depending on >= 1 vulnerable server (45 %)."""
        return self.census().vulnerable_dependency_fraction()

    # -- figure 7: bottlenecks -----------------------------------------------------------------

    def safe_bottleneck_counts(self, popular_only: bool = False) -> List[int]:
        """Per-name number of safe servers in the min-cut (Figure 7)."""
        return list(self.resolved("mincut_safe", popular_only))

    def fraction_completely_hijackable(self) -> float:
        """Fraction of names whose min-cut is entirely vulnerable (30 %)."""
        return self.census().hijackable_fraction()

    def mean_mincut_size(self) -> float:
        """Average bottleneck size (paper: 2.5 servers)."""
        return self.census().mincut_mean()

    # -- analysis-pass columns --------------------------------------------------------------------

    def extra_values(self, column: str,
                     resolved_only: bool = True) -> List[object]:
        """Values of one pass column (records missing it are skipped)."""
        cells = self._results.extra_column(column)
        if resolved_only:
            cells = itertools.compress(cells, self.column("resolved"))
        return [cell for cell in cells if cell is not ABSENT]

    def extras_columns(self) -> List[str]:
        """Every pass column on at least one record."""
        return self.census().columns()

    def extras_summary(self) -> Dict[str, float]:
        """Aggregate pass columns: means for numbers, fractions for the rest.

        Over the resolved names: boolean columns become the fraction of
        records where they are true; numeric columns the mean
        ``sum(map(float, values)) / len(values)`` of their values in row
        order; string (and mixed) columns expand into one
        ``column=value`` fraction per observed ``str(value)``, so e.g.
        ``dnssec_status`` summarises to ``dnssec_status=secure: 0.93``.
        Deterministic (sorted) keying so snapshots and CLI output are
        stable.
        """
        return self.census().extras_summary()

    # -- headline summary -------------------------------------------------------------------------

    def headline(self) -> Dict[str, float]:
        """The paper's headline statistics, computed from the survey."""
        results = self._results
        sizes = self.resolved("tcb_size")
        popular_stats = summary_stats(self.resolved("tcb_size",
                                                    popular_only=True))
        in_bailiwick = self.resolved("in_bailiwick")
        vulnerable_counts = self.resolved("vulnerable_in_tcb")
        return {
            "names_surveyed": float(len(self.column("resolved"))),
            "names_resolved": float(self.names_resolved()),
            "servers_discovered": float(results.total_servers_discovered()),
            "mean_tcb_size": self.mean_tcb_size(),
            "median_tcb_size": self.tcb_percentile(50.0),
            "fraction_tcb_over_200": CDFSeries.from_values(sizes)
            .fraction_above(200) if sizes else 0.0,
            "popular_mean_tcb_size": popular_stats["mean"],
            "mean_in_bailiwick": (sum(in_bailiwick) / len(in_bailiwick))
            if in_bailiwick else 0.0,
            "vulnerable_server_fraction": results.vulnerable_server_fraction(),
            "fraction_names_with_vulnerable_dependency":
                self.fraction_with_vulnerable_dependency(),
            "mean_vulnerable_in_tcb": (sum(vulnerable_counts) /
                                       len(vulnerable_counts))
            if vulnerable_counts else 0.0,
            "fraction_completely_hijackable":
                self.fraction_completely_hijackable(),
            "mean_mincut_size": self.mean_mincut_size(),
        }

class Survey:
    """Runs the measurement pipeline against a synthetic Internet.

    ``Survey`` is a thin backwards-compatible facade over
    :class:`~repro.core.engine.SurveyEngine` — the staged pipeline that
    separates discovery, closure, fingerprinting, and analysis, with
    memoized dependency closures and pluggable execution backends.  Code
    that only needs "survey this Internet" keeps using this class; code
    that wants to tune the execution (socket timeouts and retries, custom
    aggregation) should use the engine directly.

    Parameters
    ----------
    internet:
        The :class:`~repro.topology.generator.SyntheticInternet` to survey.
    vulnerability_db:
        Catalogue used to interpret fingerprints; defaults to the standard
        BIND catalogue.
    popular_count:
        Size of the "Alexa top-N" popular cohort.
    include_bottleneck:
        Whether to run the (slightly more expensive) min-cut analysis.
    backend:
        Execution backend: ``"serial"`` (default) or ``"socket"``
        (``repro-dns worker`` processes at ``worker_addrs``, one stripe of
        the names each).  Both produce identical results for the same
        seed.
    passes:
        Extra analysis passes to run per name — pass instances or spec
        strings such as ``"availability"`` (see :mod:`repro.core.passes`).
    """

    def __init__(self, internet, vulnerability_db: Optional[VulnerabilityDatabase] = None,
                 popular_count: int = 500, include_bottleneck: bool = True,
                 backend: str = "serial",
                 passes: Sequence = (),
                 worker_addrs: Sequence[str] = (), retries: int = 0,
                 min_workers: int = 1, auth_token: Optional[str] = None):
        from repro.core.engine import EngineConfig, SurveyEngine
        self.internet = internet
        self.popular_count = popular_count
        self.include_bottleneck = include_bottleneck
        self.engine = SurveyEngine(
            internet, vulnerability_db,
            EngineConfig(backend=backend, popular_count=popular_count,
                         include_bottleneck=include_bottleneck,
                         passes=tuple(passes),
                         worker_addrs=tuple(worker_addrs),
                         retries=retries, min_workers=min_workers,
                         auth_token=auth_token))
        self.database = self.engine.database

    def close(self) -> None:
        """Release engine resources (socket-backend worker connections)."""
        self.engine.close()

    # -- engine pass-throughs (kept for backwards compatibility) --------------------

    @property
    def resolver(self):
        """The engine's primary resolver."""
        return self.engine.resolver

    @property
    def builder(self):
        """The engine's primary delegation-graph builder."""
        return self.engine.builder

    @property
    def fingerprinter(self):
        """The engine's primary fingerprinter."""
        return self.engine.fingerprinter

    # -- main pipeline --------------------------------------------------------------------

    def run(self, names: Optional[Iterable[NameLike]] = None,
            max_names: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None
            ) -> SurveyResults:
        """Survey the given names (default: the whole directory)."""
        return self.engine.run(names=names, max_names=max_names,
                               progress=progress)

    def _vulnerability_maps(self):
        """Per-hostname vulnerability flags derived from fingerprints."""
        return self.engine.vulnerability_maps()
