"""Dirty-set computation for incremental re-surveys.

A survey record is a pure function of the world: re-running any name on any
backend reproduces its record byte for byte.  After a journalled world
mutation (:mod:`repro.topology.changes`), the only names whose records can
differ from the previous snapshot are those whose *dependency graph*
touches the mutation's footprint — and because a name's TCB is the
transitive closure of its dependencies, that footprint test reduces to a
set intersection over data the previous snapshot already holds:

    a name depends on zone ``Z``  ⟹  its TCB contains every non-excluded
    nameserver ``Z`` had at survey time.

:class:`DirtyIndex` holds the inverted index (host → names whose TCB holds
it) of one result set — built once, then carried from epoch to epoch by
the delta engine — and answers "which names must be
re-surveyed for this :class:`~repro.topology.changes.ChangeSet`?".  The
mapping is deliberately conservative — a name sharing a *server* with a
mutated zone without depending on the zone is re-surveyed for nothing —
because over-dirtying only costs time while under-dirtying would silently
serve stale records.  Working purely in record space (no graph required)
is what makes it backend-agnostic: the previous results may come from a
socket-backend run whose worker universes were never merged, or
straight from a JSON snapshot on disk (the CLI ``resurvey`` path).

Two rules extend the closure argument to the cases it cannot see:

* a newly cut zone changes the delegation path of every name *below* it
  (and of every name depending on a host below it — covered by the host
  index), so names under a created apex are always dirty;
* names that previously failed to resolve have empty TCBs and therefore no
  footprint, so any mutation that can create namespace (a new zone cut)
  marks all unresolved names dirty.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import weakref
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.dns.name import DomainName
from repro.core.survey import (NameRecord, SurveyCensus, SurveyColumns,
                               SurveyResults)


class _Rows:
    """An index's names in row order, with each name's row on demand.

    Shared, unchanged, by every index advanced over the same rows.
    """

    __slots__ = ("names", "_positions")

    def __init__(self, names: List[DomainName]):
        self.names = names
        self._positions: Optional[Dict[DomainName, int]] = None

    def positions(self, names: Iterable[DomainName]) -> List[int]:
        """The rows of those ``names`` that are rows, ascending."""
        if self._positions is None:
            self._positions = {name: row
                               for row, name in enumerate(self.names)}
        return sorted(row for row in map(self._positions.get, names)
                      if row is not None)


class DirtyIndex:
    """Maps a change footprint back to the names needing re-survey."""

    def __init__(self, previous: SurveyResults):
        self._tcbs: Dict[DomainName, AbstractSet[DomainName]] = {}
        self._unresolved: Set[DomainName] = set()
        # Lists, not sets: an index lives as long as its result set, and
        # at ~350k host memberships lists take a sixth of the memory.
        self._by_host: Dict[DomainName, List[DomainName]] = {}
        by_host = self._by_host
        # The tcb_index_rows protocol instead of record iteration: a
        # column-backed lazy view (mmap'd snapshot) serves these three
        # columns without hydrating any NameRecord, so building the index
        # over a loaded snapshot costs column scans, not a full parse.
        for name, resolved, tcb_servers in previous.tcb_index_rows():
            self._tcbs[name] = tcb_servers
            if not resolved:
                self._unresolved.add(name)
            for host in tcb_servers:
                bucket = by_host.get(host)
                if bucket is None:
                    by_host[host] = [name]
                else:
                    bucket.append(name)
        self._rows = _Rows(list(self._tcbs))
        self._census: Optional[SurveyCensus] = None
        #: The index this one was advanced from, and the hosts in the
        #: TCBs of the rows that left or came in on the way.
        self._base: Optional[weakref.ref] = None
        self._moved: FrozenSet[DomainName] = frozenset()

    @classmethod
    def of(cls, results: SurveyResults) -> "DirtyIndex":
        """The index of ``results``: the one carried since it was produced
        by :meth:`~repro.core.engine.SurveyEngine.run_delta`, else a fresh
        build (a cold run, a loaded snapshot, a lazy store view, or a
        result set whose carried index was :meth:`advanced` away from)."""
        carried = getattr(results, "_dirty_index", None)
        if carried is not None and carried._tcbs is not None and \
                len(carried) == len(results.records):
            return carried
        return cls(results)

    def __len__(self) -> int:
        return len(self._tcbs)

    def names(self) -> AbstractSet[DomainName]:
        """Every indexed name."""
        return self._tcbs.keys()

    def names_depending_on(self, host: DomainName) -> List[DomainName]:
        """Names whose previous TCB contained ``host``."""
        return list(self._by_host.get(host, ()))

    def hosts(self) -> AbstractSet[DomainName]:
        """Every host in at least one indexed TCB."""
        return self._by_host.keys()

    def dirty_rows(self, entry_names: Sequence[DomainName],
                   dirty: Iterable[DomainName]) -> Optional[List[int]]:
        """The rows of the ``dirty`` names, ascending, when the survey's
        ``entry_names`` are these rows in order; else None.

        ``dirty`` must hold indexed names only, as :meth:`dirty_names`
        returns.
        """
        if entry_names != self._rows.names:
            return None
        return self.rows_of(dirty)

    def rows_of(self, names: Iterable[DomainName]) -> List[int]:
        """The rows, in this index's result set, of those ``names`` it
        holds, ascending."""
        return self._rows.positions(names)

    def census(self, columns: SurveyColumns) -> SurveyCensus:
        """The census of this index's result set, counted from its
        :class:`SurveyColumns` ``columns`` on first use, then carried by
        :meth:`advanced`.  It stays this result set's after the index is
        advanced away from."""
        if self._census is None:
            self._census = SurveyCensus(columns)
        return self._census

    def moved_since(self, base: object) -> Optional[FrozenSet[DomainName]]:
        """Hosts in the TCBs of the rows that left or came in since
        ``base``, if this index was advanced from it; else None.

        Only these hosts can have a different TCB count, fingerprint or
        verdict in this index's result set than in ``base``'s.
        """
        if self._base is None or base is None or self._base() is not base:
            return None
        return self._moved

    def same_rows_as(self, base: object) -> bool:
        """True if this index was advanced from ``base`` over its rows."""
        return self.moved_since(base) is not None and \
            self._rows is base._rows

    def resolved_count(self) -> int:
        """How many indexed names resolved."""
        return len(self._tcbs) - len(self._unresolved)

    def fold_out(self, counts: Dict[DomainName, int],
                 names: Iterable[DomainName]) -> int:
        """Take ``names``' resolved rows out of per-host TCB ``counts``.

        ``counts`` must be this index's result set's
        ``server_names_controlled`` (a copy: it is edited in place); hosts
        whose count drops to zero are deleted, as a fresh fold would never
        list them.  Returns how many of the rows had resolved.
        """
        unresolved = self._unresolved
        removed = 0
        for name in names:
            if name in unresolved:
                continue
            removed += 1
            for host in self._tcbs[name]:
                left = counts[host] - 1
                if left:
                    counts[host] = left
                else:
                    del counts[host]
        return removed

    def advanced(self, leaving: Iterable[DomainName],
                 incoming: Sequence[NameRecord],
                 row_names: Optional[List[DomainName]] = None,
                 rows: Optional[Sequence[int]] = None,
                 leaving_records: Optional[Sequence[NameRecord]] = None
                 ) -> "DirtyIndex":
        """The index of the result set one delta epoch later.

        ``leaving`` are the indexed names whose rows go (re-surveyed or no
        longer surveyed); ``incoming`` are the records that come in.
        ``row_names`` is the new result set's record order, or None when
        it keeps this index's rows.

        The maps are handed over, not copied, and edited in place: a
        host's bucket changes only where a name joins or leaves it (a
        re-surveyed name that keeps the host stays where it is), so the
        cost follows the TCBs of the rows that moved.  This index is left
        advanced away from: it still answers for its own result set's
        rows, census and :meth:`moved_since`, but :meth:`of` rebuilds the
        index of that result set.

        The census is carried too when it was counted and the new result
        set keeps these rows: ``rows`` are the rows the ``incoming``
        records take, and ``leaving_records`` the records they replace,
        all three in step.
        """
        tcbs, unresolved, by_host = self._tcbs, self._unresolved, \
            self._by_host
        if tcbs is None:
            raise RuntimeError("this DirtyIndex was already advanced away "
                               "from; rebuild it with DirtyIndex.of()")
        self._tcbs = self._unresolved = self._by_host = None
        index = object.__new__(DirtyIndex)
        index._tcbs, index._unresolved, index._by_host = \
            tcbs, unresolved, by_host
        index._rows = self._rows if row_names is None else _Rows(row_names)
        index._census = None
        if self._census is not None and rows is not None and \
                leaving_records is not None:
            index._census = self._census.advanced(rows, leaving_records,
                                                  incoming)
        index._base = weakref.ref(self)
        moved: Set[DomainName] = set()
        # name -> (the index's own object for it, its TCB).  A re-surveyed
        # name keeps that object, so each name stays one object across the
        # index and _leave() finds it by identity.
        before: Dict[DomainName,
                     Tuple[DomainName, AbstractSet[DomainName]]] = {}
        for name in leaving:
            unresolved.discard(name)
            before[name] = (name, tcbs.pop(name))
        for record in incoming:
            after = record.tcb_servers
            moved.update(after)
            found = before.pop(record.name, None)
            if found is None:
                name = record.name
                joined: Iterable[DomainName] = after
            else:
                name, held = found
                moved.update(held)
                joined = after - held
                for host in held - after:
                    _leave(by_host, host, name)
            tcbs[name] = after
            if not record.resolved:
                unresolved.add(name)
            for host in joined:
                bucket = by_host.get(host)
                if bucket is None:
                    by_host[host] = [name]
                else:
                    bucket.append(name)
        for name, held in before.values():
            moved.update(held)
            for host in held:
                _leave(by_host, host, name)
        index._moved = frozenset(moved)
        return index

    def dirty_names(self, changes) -> Set[DomainName]:
        """The names whose records the given ChangeSet can invalidate."""
        if changes.dirty_all:
            return set(self._tcbs)
        dirty: Set[DomainName] = set()
        by_host = self._by_host
        # Host-scoped events (software, region, server lifecycle) dirty
        # every dependant of each host.  Journal-folded ChangeSets carry
        # them separately from zone-edit hosts; hand-built ones fall back
        # to the conservative union over the whole touched set.
        hosts = getattr(changes, "host_footprints", None)
        if hosts is None:
            hosts = changes.touched_hosts
        for host in hosts:
            dirty.update(by_host.get(host, ()))
        # Zone edits dirty by *intersection*: a name depends on the zone
        # iff its previous TCB holds every countable member of the zone's
        # previous NS set (the TCB is a closure), so intersecting the
        # members' dependant lists finds the zone's dependants without
        # dirtying every name that merely shares one co-hosted server.
        # Hosts with no dependants are skipped, not intersected: they are
        # either TCB-excluded (never indexed) or the zone has no
        # dependants at all — in which case the survivors only ever
        # over-approximate.  (The no-countable-member case never reaches
        # here: the journal folds it to dirty_all.)
        for footprint in getattr(changes, "zone_footprints", {}).values():
            dependants = [by_host.get(host) for host in footprint]
            dependants = [bucket for bucket in dependants if bucket]
            if not dependants:
                continue
            dependants.sort(key=len)
            candidates = set(dependants[0])
            for bucket in dependants[1:]:
                if not candidates:
                    break
                candidates.intersection_update(bucket)
            dirty.update(candidates)
        # Ancestry-scoped zones (new cuts, newly signed apexes) affect
        # the names below them — walk each name's ancestor chain against
        # the apex set rather than testing every (name, apex) pair.
        apexes = set(changes.created_zones) | set(changes.chain_zones)
        if apexes:
            for name in self._tcbs:
                if any(ancestor in apexes
                       for ancestor in name.ancestors(include_self=True,
                                                      include_root=False)):
                    dirty.add(name)
        if changes.created_zones:
            # A new cut also adds a delegation level to the resolution of
            # every *host* beneath it, so names elsewhere in the namespace
            # whose TCB holds such a host gain dependencies too — the
            # below-the-apex walk above cannot see them.
            created = tuple(changes.created_zones)
            for host, dependants in by_host.items():
                if any(host.is_subdomain_of(apex) for apex in created):
                    dirty.update(dependants)
        if changes.created_zones or changes.edited_zones:
            # Names that previously failed to resolve have empty TCBs and
            # therefore no footprint at all, so no host mapping can ever
            # reach them — yet any delegation change can be the one that
            # makes them resolvable (e.g. a zone whose NS set was all
            # ghosts getting live servers, which can cascade to names far
            # outside the edited subtree through ghost-host dependencies).
            # Re-survey them all whenever the delegation fabric changed.
            dirty.update(self._unresolved)
        return dirty


def _leave(by_host: Dict[DomainName, List[DomainName]], host: DomainName,
           name: DomainName) -> None:
    """Take ``name`` out of ``host``'s bucket, dropping an emptied one.

    The name is found by identity at C speed (buckets hold the very
    objects the index was built from); only an equal name that is not the
    same object falls back to ``list.remove``'s ``DomainName.__eq__``.
    """
    bucket = by_host[host]
    position = next(itertools.compress(
        itertools.count(), map(operator.is_, bucket,
                               itertools.repeat(name))), None)
    if position is None:
        bucket.remove(name)
    else:
        del bucket[position]
    if not bucket:
        del by_host[host]


@dataclasses.dataclass
class DeltaStats:
    """Bookkeeping for one :meth:`SurveyEngine.run_delta` call.

    Deliberately *not* part of the returned ``SurveyResults`` metadata: the
    delta contract is that results (and their snapshots) are byte-identical
    to a cold full survey of the mutated world, so anything describing how
    they were produced lives here instead.
    """

    total_names: int
    dirty_names: int
    patched_names: int
    events: int
    edited_zones: int
    created_zones: int
    touched_hosts: int
    dirty_fraction: float
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (CLI reporting, benchmarks)."""
        return {
            "total_names": self.total_names,
            "dirty_names": self.dirty_names,
            "patched_names": self.patched_names,
            "events": self.events,
            "edited_zones": self.edited_zones,
            "created_zones": self.created_zones,
            "touched_hosts": self.touched_hosts,
            "dirty_fraction": round(self.dirty_fraction, 6),
            "elapsed_s": round(self.elapsed_s, 4),
        }


@dataclasses.dataclass
class DeltaOutcome:
    """What an incremental re-survey produced."""

    results: SurveyResults
    stats: DeltaStats
    dirty: FrozenSet[DomainName]
