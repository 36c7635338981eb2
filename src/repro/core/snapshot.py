"""Snapshot persistence: format dispatch, sniffing load, and diffing.

The paper kept an active web site with the raw results of its July 2004
snapshot.  :func:`save_results` / :func:`load_results` play the same role
for this reproduction, over two interchangeable codecs:

* **binary** — the columnar REPRO-SNAP store (:mod:`repro.core.snapstore`):
  mmap-backed, O(1) open, lazy records.  The performance path.
* **json** — the original self-describing document, now an export/interop
  codec living in :mod:`repro.core.export` (optionally zlib-compressed).
  The golden format the byte-identity tests compare everything against.

:func:`load_results` never trusts extensions: it sniffs the first bytes —
REPRO-SNAP magic, zlib header, or JSON — and dispatches, raising
:class:`~repro.core.snapstore.SnapshotFormatError` with a precise reason
(wrong magic / truncated / checksum mismatch / malformed JSON) instead of
leaking a raw ``json.JSONDecodeError`` on corrupt input.

Snapshots are the **name boundary** of the integer-interned graph core
(:mod:`repro.core.graphcore`): integer node ids and NS-slot bitsets are
builder-local and never serialised — every server set reaching this module
has already been materialised back to :class:`~repro.dns.name.DomainName`,
which is what keeps snapshots byte-identical across execution backends and
across internal representation changes (the binary codec content-addresses
those sets; the JSON codec writes them as sorted presentation strings).

:func:`diff_results` compares two result sets name by name.  When both
sides are lazy binary views it runs columnar — cell reads straight off the
mmap, no :class:`~repro.core.survey.NameRecord` hydration — and produces
the exact same :class:`SnapshotDiff` the record-walking path yields.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import zlib
from typing import (Collection, Dict, Iterable, List, Optional, Tuple,
                    Union)

from repro.dns.name import DomainName, name_key
from repro.core.export import (
    SNAPSHOT_FORMAT_VERSION,
    _is_zlib_header,
    results_from_dict,
    results_to_dict,
    save_results_json,
)
from repro.core.snapstore import (
    MAGIC,
    SnapshotFormatError,
    open_results,
    save_results_snapshot,
)
from repro.core.survey import SurveyResults

PathLike = Union[str, pathlib.Path]

#: Codec names accepted by :func:`save_results` (and the CLI ``--format``).
SNAPSHOT_FORMATS = ("json", "binary")


def save_results(results: SurveyResults, path: PathLike, indent: int = 0,
                 format: str = "json", compress: bool = False
                 ) -> pathlib.Path:
    """Write survey results to ``path``; returns the path written.

    ``format="json"`` (default) writes the interop JSON document,
    optionally zlib-compressed with ``compress=True``; ``format="binary"``
    writes a REPRO-SNAP columnar snapshot (already compact — ``compress``
    is rejected there).  Both round-trip byte-identically through
    :func:`load_results`.
    """
    if format == "binary":
        if compress:
            raise ValueError("binary snapshots do not take compress=True "
                             "(the columnar format is already compact)")
        return save_results_snapshot(results, path)
    if format != "json":
        raise ValueError(f"unknown snapshot format {format!r} "
                         f"(expected one of {SNAPSHOT_FORMATS})")
    return save_results_json(results, path, indent=indent,
                             compress=compress)


def sniff_format(path: PathLike) -> str:
    """The snapshot codec at ``path``: "binary", "zlib", or "json".

    Decided by leading bytes only — the REPRO-SNAP magic, the two-byte
    zlib header, or anything else (assumed JSON) — never by extension.
    """
    with pathlib.Path(path).open("rb") as handle:
        head = handle.read(len(MAGIC))
    if head.startswith(MAGIC):
        return "binary"
    if _is_zlib_header(head):
        return "zlib"
    return "json"


def load_results(path: PathLike) -> SurveyResults:
    """Read survey results written by :func:`save_results`, any codec.

    Binary snapshots open lazily (O(1), mmap-backed
    :class:`~repro.core.snapstore.LazySurveyResults`); JSON — plain or
    zlib-compressed — hydrates eagerly.  Corrupt input raises
    :class:`SnapshotFormatError` naming what was expected and what was
    found.
    """
    path = pathlib.Path(path)
    codec = sniff_format(path)
    if codec == "binary":
        return open_results(path)
    try:
        if codec == "zlib":
            raw = zlib.decompress(path.read_bytes())
        else:
            raw = path.read_bytes()
        payload = json.loads(raw.decode("utf-8"))
    except zlib.error as error:
        raise SnapshotFormatError(
            f"{path}: truncated or corrupt zlib snapshot: {error}"
        ) from error
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SnapshotFormatError(
            f"{path}: not a recognised snapshot (expected magic {MAGIC!r}, "
            f"a zlib stream, or JSON; got malformed JSON: {error})"
        ) from error
    try:
        return results_from_dict(payload)
    except (KeyError, TypeError, AttributeError) as error:
        raise SnapshotFormatError(
            f"{path}: malformed JSON snapshot: {error!r}") from error


# -- snapshot diffing ---------------------------------------------------------------

#: Built-in numeric per-name fields compared by :func:`diff_results`.
DIFF_NUMERIC_FIELDS = ("tcb_size", "vulnerable_in_tcb", "mincut_size")

#: Built-in categorical per-name fields compared by :func:`diff_results`.
DIFF_CATEGORICAL_FIELDS = ("classification",)


@dataclasses.dataclass
class NameChange:
    """One name whose record differs between two snapshots."""

    name: DomainName
    fields: Dict[str, Tuple[object, object]]  # field -> (before, after)

    def magnitude(self) -> float:
        """Size of the change, for ranking (numeric deltas dominate)."""
        largest = 0.0
        for before, after in self.fields.values():
            if isinstance(before, (int, float)) and \
                    isinstance(after, (int, float)) and \
                    not isinstance(before, bool) and \
                    not isinstance(after, bool):
                largest = max(largest, abs(float(after) - float(before)))
            else:
                largest = max(largest, 1.0)
        return largest


@dataclasses.dataclass
class SnapshotDiff:
    """Per-name churn between two survey snapshots.

    Snapshots are deterministic (sorted keys, backend-independent), so any
    difference reported here comes from the worlds surveyed — a different
    generator configuration, BIND catalogue, or deployment — never from the
    execution backend.

    Names present in only one snapshot are first-class changes: each
    contributes a :class:`NameChange` whose ``presence`` field records the
    add/removal, so ``changed``/:meth:`top_movers` — and equivalence checks
    built on :attr:`is_identical` — see namespace churn, not just field
    churn on the intersection.
    """

    only_in_a: List[DomainName]
    only_in_b: List[DomainName]
    common: int
    numeric: Dict[str, Dict[str, float]]      # field -> delta_stats
    transitions: Dict[str, Dict[Tuple[str, str], int]]
    changes: List[NameChange]

    @property
    def changed(self) -> int:
        """Number of names whose records differ (adds/removals included)."""
        return len(self.changes)

    @property
    def is_identical(self) -> bool:
        """True when the snapshots agree on every name and compared field.

        The check an incremental re-survey's delta-vs-full equivalence
        uses: no field churn, no names added, no names removed.
        """
        return not self.changes and not self.only_in_a and not self.only_in_b

    def top_movers(self, count: int = 10) -> List[NameChange]:
        """The most-changed names, largest magnitude first."""
        ordered = sorted(self.changes,
                         key=lambda change: (-change.magnitude(),
                                             change.name))
        return ordered[:count]


def _diff_fields(results: SurveyResults) -> Tuple[Dict[str, int],
                                                  Tuple[str, ...]]:
    """Numeric and categorical fields to compare, extras included.

    Each numeric field maps to how many records carry a value for it:
    built-in fields are on every record, a pass column on the records
    whose extras hold it.
    """
    numeric = {field: len(results.records) for field in DIFF_NUMERIC_FIELDS}
    categorical = list(DIFF_CATEGORICAL_FIELDS)
    for column in results.extras_columns():
        count = results.numeric_extra_count(column)
        if count:
            numeric[column] = count
        else:
            categorical.append(column)
    return numeric, tuple(categorical)


def _field_value(record, field: str):
    if field in record.extras:
        return record.extras[field]
    return getattr(record, field, None)


class _RecordDiffView:
    """Diff cell access over hydrated records (the non-lazy path)."""

    def __init__(self, results: SurveyResults):
        self.names = results.record_index()

    @staticmethod
    def value(record, field: str):
        return _field_value(record, field)


def _diff_view(results: SurveyResults):
    """Cell-access view for diffing: columnar for lazy snapshots.

    Lazy binary views expose ``column_diff_view()`` — per-field cell reads
    straight from the mmap'd columns, no record hydration; everything else
    gets the hydrating record walk.  Both return identical values for
    every (name, field), so the diff below cannot tell them apart.
    """
    maker = getattr(results, "column_diff_view", None)
    if maker is not None:
        return maker()
    return _RecordDiffView(results)


def _same_names(a: SurveyResults, b: SurveyResults) -> bool:
    """True when ``b`` carries a delta index advanced from ``a``'s over
    the same rows, so both hold the same names (no set is compared)."""
    index_a = getattr(a, "_dirty_index", None)
    index_b = getattr(b, "_dirty_index", None)
    return index_a is not None and index_b is not None and \
        index_b.same_rows_as(index_a)


def diff_results(a: SurveyResults, b: SurveyResults,
                 dirty: Optional[Iterable[DomainName]] = None
                 ) -> SnapshotDiff:
    """Compare two survey results name by name.

    Numeric fields (TCB size, vulnerable dependencies, min-cut size, and
    any numeric pass column such as ``availability``) get churn statistics
    via :func:`repro.core.report.delta_stats`; categorical fields
    (classification, ``dnssec_status``, ...) get transition counts.  Fields
    are drawn from snapshot *a*'s schema so diffing against an older
    snapshot without pass columns degrades gracefully.

    Two lazy binary snapshots diff columnar: only the *names* materialise
    (they key and order the comparison); records never hydrate, which is
    what makes diffing two mmap'd snapshots O(cells read), not O(parse).
    Two epoch-store views over one keyframe go further: without a given
    ``dirty``, the union of their overlay rows bounds and keys the
    comparison (both hold the keyframe's rows, and the rows neither
    overlays read the same keyframe cells on both sides), so no
    world-sized name index is built and ``common`` is the row count.

    ``dirty``, when given, bounds the comparison to those names: every
    other name the two sides share must hold the *same* record in both —
    as after :meth:`~repro.core.engine.SurveyEngine.run_delta`, which
    copies every clean record from ``a``.  Such a pair cannot differ, so
    it only adds to each numeric field's count (a zero delta), and the
    diff equals the full one while costing O(dirty).
    """
    from repro.core.report import delta_stats

    view_a = _diff_view(a)
    view_b = _diff_view(b)
    bounded = None
    if dirty is None:
        bound = getattr(view_a, "overlay_bound", None)
        bounded = None if bound is None else bound(view_b)
    only_in_a: List[DomainName] = []
    only_in_b: List[DomainName] = []
    if bounded is not None:
        # Same rows on both sides, and only the overlay rows can differ:
        # they alone key the comparison.
        index_a = index_b = bounded
        common = len(a.records)
        compared: Collection[DomainName] = bounded.keys()
    else:
        index_a = view_a.names
        index_b = view_b.names
        if _same_names(a, b):
            names = index_a.keys()
        else:
            names = index_a.keys() & index_b.keys()
            only_in_a = sorted(index_a.keys() - names, key=name_key)
            only_in_b = sorted(index_b.keys() - names, key=name_key)
        common = len(names)
        compared = names if dirty is None else \
            {name for name in dirty if name in names}
    shared = sorted(compared, key=name_key)
    numeric_fields, categorical_fields = _diff_fields(a)
    # Pairs left uncompared, per numeric field: the records of ``a``
    # carrying a value, less those that are not clean.
    unchanged = {field: 0 for field in numeric_fields}
    if len(compared) != common:
        outside = [index_a[name] for name in only_in_a]
        outside.extend(index_a[name] for name in compared)
        for field, present in numeric_fields.items():
            unchanged[field] = present - sum(
                1 for handle in outside
                if view_a.value(handle, field) is not None)

    numeric: Dict[str, Dict[str, float]] = {}
    pairs: Dict[str, Tuple[List[float], List[float]]] = \
        {field: ([], []) for field in numeric_fields}
    transitions: Dict[str, Dict[Tuple[str, str], int]] = {}
    changes: List[NameChange] = []

    for name in shared:
        handle_a, handle_b = index_a[name], index_b[name]
        changed_fields: Dict[str, Tuple[object, object]] = {}
        for field in numeric_fields:
            before = view_a.value(handle_a, field)
            after = view_b.value(handle_b, field)
            if before is None or after is None:
                continue
            pairs[field][0].append(float(before))
            pairs[field][1].append(float(after))
            if before != after:
                changed_fields[field] = (before, after)
        for field in categorical_fields:
            before = view_a.value(handle_a, field)
            after = view_b.value(handle_b, field)
            if before is None or after is None:
                continue
            if before != after:
                changed_fields[field] = (before, after)
                field_transitions = transitions.setdefault(field, {})
                key = (str(before), str(after))
                field_transitions[key] = field_transitions.get(key, 0) + 1
        if changed_fields:
            changes.append(NameChange(name=name, fields=changed_fields))

    for field, (before_values, after_values) in pairs.items():
        if before_values or unchanged[field]:
            numeric[field] = delta_stats(before_values, after_values,
                                         unchanged=unchanged[field])

    # Adds/removals are changes too: surface them through the same
    # NameChange/transition machinery the per-field churn uses.
    for name in only_in_a:
        changes.append(NameChange(name=name,
                                  fields={"presence": ("present", "absent")}))
    for name in only_in_b:
        changes.append(NameChange(name=name,
                                  fields={"presence": ("absent", "present")}))
    if only_in_a or only_in_b:
        presence = transitions.setdefault("presence", {})
        if only_in_a:
            presence[("present", "absent")] = len(only_in_a)
        if only_in_b:
            presence[("absent", "present")] = len(only_in_b)

    return SnapshotDiff(
        only_in_a=only_in_a, only_in_b=only_in_b,
        common=common, numeric=numeric, transitions=transitions,
        changes=changes)
