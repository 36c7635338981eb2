"""The staged survey engine: discovery, closure, fingerprinting, analysis.

:class:`SurveyEngine` is the scalable successor of the original per-name
``Survey`` loop.  It decomposes the measurement pipeline into four explicit
stages with shared, reusable state:

1. **discovery** — walk a name's delegation chains through the iterative
   resolver, growing the shared universe graph (chains are cached, hosts are
   expanded once survey-wide);
2. **closure** — read the name's trusted computing base from the builder's
   memoized :class:`~repro.core.delegation.ClosureIndex` as a zero-copy
   :class:`~repro.core.delegation.TCBView` (no ``nx.descendants``, no
   subgraph copies);
3. **fingerprinting** — ``version.bind`` every newly discovered TCB member
   exactly once, folding the verdicts into shared vulnerability maps;
4. **analysis** — TCB report, bottleneck (min-cut) with a cross-name shared
   memo, and hijack classification, plus any configured
   :class:`~repro.core.passes.AnalysisPass` (availability, DNSSEC impact,
   ...), emitted as a :class:`~repro.core.survey.NameRecord` whose
   ``extras`` carry the pass columns.

Records stream into a :class:`SurveyAggregator`, which folds per-name
results incrementally (no intermediate per-name graphs are retained) and
finally assembles a :class:`~repro.core.survey.SurveyResults`.

Execution backends
------------------

``serial``
    One worker context, names processed in directory order.  This is the
    reference backend: every other path must produce identical results.
``socket``
    The names are dealt round-robin over the ``repro-dns worker``
    processes at ``worker_addrs`` (:func:`stripes`), driven over TCP by
    :class:`~repro.distrib.coordinator.ShardCoordinator`; each worker
    regenerates the world from its seed and surveys its stripe on a warm
    serial engine, returning records by directory index, fingerprints and
    verdict maps (:meth:`SurveyEngine.survey_stripe`).

The socket backend, like the offline ``survey --shard`` and ``merge``,
folds shard outputs back through one fold (:meth:`SurveyEngine.fold_shard`)
in shard order, and records are reassembled in directory order, so **the
same seed yields byte-identical results on every backend**.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dns.name import DomainName, NameLike, name_key
from repro.core.delegation import (
    DelegationGraphBuilder,
    NodeKey,
    TCBView,
    name_node,
)
from repro.core.delta import DeltaOutcome, DeltaStats, DirtyIndex
from repro.core.mincut import BottleneckAnalyzer
from repro.core.passes import AnalysisPass, PassContext, build_passes
from repro.core.survey import BACKENDS, NameRecord, SurveyResults
from repro.core.tcb import compute_tcb_report
from repro.vulns.database import VulnerabilityDatabase, default_database
from repro.vulns.fingerprint import Fingerprinter, FingerprintResult
from repro.topology.webdirectory import DirectoryEntry

if TYPE_CHECKING:
    from repro.core.snapstore import ShardPayload

ProgressCallback = Callable[[int, int], None]


def stripes(indexed: Sequence, count: int) -> List[Sequence]:
    """Deal ``indexed`` round-robin into at most ``count`` stripes.

    Stripe ``k`` holds entries ``k, k + count, k + 2 * count, ...``, the
    partitioning every sharded survey uses.  There are never more stripes
    than entries, so no shard runs empty (an empty input still gives one
    empty stripe).
    """
    count = min(count, max(len(indexed), 1))
    return [indexed[offset::count] for offset in range(count)]


@dataclasses.dataclass
class EngineConfig:
    """Tuning knobs for a :class:`SurveyEngine` run."""

    backend: str = "serial"
    popular_count: int = 500
    include_bottleneck: bool = True
    #: Analysis passes: spec strings or AnalysisPass instances (resolved by
    #: the engine via :func:`repro.core.passes.build_passes`).
    passes: Sequence = ()
    #: Socket backend: ``host:port`` of each `repro-dns worker` to drive.
    worker_addrs: Tuple[str, ...] = ()
    #: Socket backend: per-worker TCP connect timeout (seconds).
    connect_timeout: float = 10.0
    #: Socket backend: per-frame response timeout (seconds).  Bounds every
    #: read, so a hung worker surfaces as a precise error, never a stall.
    response_timeout: float = 600.0
    #: Socket backend: separate timeout for BUILD exchanges (world
    #: regeneration is slow); None means use ``response_timeout``.
    build_timeout: Optional[float] = None
    #: Socket backend: per-incident retry budget.  0 (the default) is a
    #: zero budget, so a worker's first failure aborts the run; >0 spends
    #: it on reconnect-and-rebuild recovery and shard reassignment.
    retries: int = 0
    #: Socket backend: base backoff (seconds) between retries; doubles
    #: per attempt with seed-deterministic jitter.
    retry_backoff: float = 0.25
    #: Socket backend: abort once fewer than this many workers survive.
    min_workers: int = 1
    #: Socket backend: shared secret for the HELLO auth handshake (None
    #: disables auth; falls back to $REPRO_AUTH_TOKEN in the CLI layer).
    auth_token: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend: {self.backend!r} "
                             f"(expected one of {BACKENDS})")
        if self.backend == "socket" and not self.worker_addrs:
            raise ValueError("the socket backend needs worker_addrs "
                             "(host:port of each repro-dns worker)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.backend == "socket" and self.worker_addrs and \
                self.min_workers > len(self.worker_addrs):
            raise ValueError(
                f"min_workers ({self.min_workers}) exceeds the "
                f"{len(self.worker_addrs)} configured workers")


class WorkerContext:
    """An engine's execution state: resolver, builder, fingerprinter, memos.

    An engine surveys on a single context (a socket worker holds its own
    engine, so no mutable state crosses shard boundaries).  Every
    cross-name cache here (the per-chain analyses, the analyzers' prefix
    snapshots) is keyed on the builder's closure-index version, so
    universe growth retires them all at once.
    """

    def __init__(self, internet, database: VulnerabilityDatabase, resolver,
                 passes: Tuple[AnalysisPass, ...] = ()):
        self.internet = internet
        self.resolver = resolver
        self.builder = DelegationGraphBuilder(resolver)
        self.fingerprinter = Fingerprinter(internet.network, database)
        self.database = database
        self.vulnerability_map: Dict[DomainName, bool] = {}
        self.compromisable_map: Dict[DomainName, bool] = {}
        #: NS slots of the builder's universe whose hosts hold a verdict
        #: above, so a TCB inside it has nothing left to probe.
        self.fingerprinted_slots = 0
        # Nothing in the universe points back at a name node, so every
        # name-independent analysis output (TCB report counts, bailiwick,
        # bottleneck, classification) is a pure function of the name's
        # ordered direct-zone chain given a fixed universe: names sharing an
        # SLD chain share the whole analysis.  Keyed on the closure-index
        # version so any structural invalidation clears it.
        self.analysis_by_chain: Dict[Tuple[NodeKey, ...],
                                     Dict[str, object]] = {}
        self.analysis_by_chain_version = self.builder.closures.version
        # The analyzer reads the live (growing) compromisable map: every TCB
        # member is fingerprinted before its name is analysed, and a host's
        # flag never changes once set, so this matches per-name snapshots.
        self.analyzer = BottleneckAnalyzer(vulnerability_aware=True)
        self.analyzer.vulnerability_map = self.compromisable_map
        # Per-worker pass state (validators, analyzers).
        self.passes = tuple(passes)
        self.pass_states = {pass_.name: pass_.make_state(self)
                            for pass_ in self.passes}

    def chain_analysis_cache(self, version: int
                             ) -> Dict[Tuple[NodeKey, ...], Dict[str, object]]:
        """The per-chain analysis cache, cleared if the universe changed."""
        if self.analysis_by_chain_version != version:
            self.analysis_by_chain.clear()
            self.analysis_by_chain_version = version
        return self.analysis_by_chain

    def fingerprint(self, hostname: DomainName) -> None:
        """Fingerprint one server and keep the vulnerability maps current."""
        if hostname in self.vulnerability_map:
            return
        result = self.fingerprinter.fingerprint(hostname)
        self.vulnerability_map[hostname] = result.is_vulnerable
        self.compromisable_map[hostname] = self.database.is_compromisable(
            result.banner)


class SurveyAggregator:
    """Streams per-name records into aggregate survey state.

    Records are keyed by their directory index, so the final record list
    is in directory order whatever order the shards fold in.
    """

    def __init__(self, total: int,
                 progress: Optional[ProgressCallback] = None):
        self._records: Dict[int, NameRecord] = {}
        #: A delta's previous record list, whose rows stand wherever
        #: ``_records`` holds no record (see patch).
        self._base: Optional[Sequence[NameRecord]] = None
        self._counts: Dict[DomainName, int] = {}
        self._fingerprints: Dict[DomainName, FingerprintResult] = {}
        self._vulnerability_map: Dict[DomainName, bool] = {}
        self._compromisable_map: Dict[DomainName, bool] = {}
        self._total = total
        self._progress = progress
        self.completed = 0
        self.resolved_count = 0
        #: A delta's previous results, whose server maps restrict_hosts()
        #: patches instead of rebuilding (see carry_maps), and the maps it
        #: settles on.
        self._carried: Optional[SurveyResults] = None
        self._settled: Optional[Tuple[Dict[DomainName, FingerprintResult],
                                      Set[DomainName], Set[DomainName]]] = None

    def add_record(self, index: int, record: NameRecord) -> None:
        """Fold one name's record into the aggregate state."""
        self._records[index] = record
        if record.resolved:
            self.resolved_count += 1
            counts = self._counts
            for host in record.tcb_servers:
                counts[host] = counts.get(host, 0) + 1
        self.completed += 1
        if self._progress is not None:
            self._progress(self.completed, self._total)

    def patch(self, base: Sequence[NameRecord], clean: int,
              counts: Dict[DomainName, int], resolved: int) -> None:
        """Adopt ``base``'s records at every row no record is added at.

        The delta path's bulk form of :meth:`add_record`: ``base`` is the
        previous epoch's record list in directory order, ``clean`` how
        many of its rows stand (the rest are re-surveyed through
        :meth:`add_record`), and ``counts`` and ``resolved`` are the
        previous epoch's fold less the rows leaving it, so the clean
        records are placed without being re-counted or copied one by one.
        """
        self._base = base
        self._counts = counts
        self.resolved_count = resolved
        self.completed += clean
        if self._progress is not None and clean:
            self._progress(self.completed, self._total)

    # -- accessors for pass finalizers ---------------------------------------------

    def server_counts(self) -> Dict[DomainName, int]:
        """Per-server "appears in this many resolved TCBs" counts (the
        aggregator's own map: read it, do not edit it)."""
        return self._counts

    def record(self, index: int) -> NameRecord:
        """The record folded at directory index ``index``."""
        record = self._records.get(index)
        return self._base[index] if record is None else record

    def vulnerability_flags(self) -> Mapping[DomainName, bool]:
        """Per-host vulnerability flags merged from every shard: True for
        every vulnerable host, False or missing for the rest (read it, do
        not edit it)."""
        if self._carried is None:
            return self._vulnerability_map
        return dict.fromkeys(self._server_maps()[1], True)

    def merge_context(self, context: WorkerContext) -> None:
        """Adopt a worker context's fingerprints and vulnerability maps."""
        self.merge_maps(context.fingerprinter.results(),
                        context.vulnerability_map,
                        context.compromisable_map)

    def merge_maps(self, fingerprints: Dict[DomainName, FingerprintResult],
                   vulnerability_map: Dict[DomainName, bool],
                   compromisable_map: Dict[DomainName, bool]) -> None:
        """Adopt already-extracted shard maps (the partitioned backends')."""
        self._fingerprints.update(fingerprints)
        self._vulnerability_map.update(vulnerability_map)
        self._compromisable_map.update(compromisable_map)

    def fold_shard(self, shard: "ShardPayload") -> None:
        """Fold one shard's records and server maps into the aggregate.

        Records land at their directory indices, then the shard's maps
        overlay the aggregate's.  Folding shards in shard order keeps
        every backend's results, and ``repro-dns merge``'s, byte-identical
        to the serial backend's.
        """
        for index, record in zip(shard.rows, shard.records):
            self.add_record(index, record)
        self.merge_maps(shard.fingerprints, shard.vulnerability_map,
                        shard.compromisable_map)

    def tcb_host_union(self) -> Set[DomainName]:
        """Every host appearing in at least one aggregated record's TCB.

        This is exactly the set of hosts a cold survey fingerprints (stage
        3 probes TCB members and nothing else).  ``run_delta`` reads the
        same set off its carried :class:`~repro.core.delta.DirtyIndex`
        instead of walking every record.
        """
        union: Set[DomainName] = set()
        for record in self._ordered_records():
            union.update(record.tcb_servers)
        return union

    def carry_maps(self, previous: SurveyResults) -> None:
        """Start from ``previous``'s fingerprint and verdict maps.

        The delta path's form of merging them in first: they are not
        copied here, and the merges that follow only overlay.
        :meth:`restrict_hosts` then copies them once and re-decides just
        the hosts whose rows moved, from the overlays.
        """
        self._carried = previous

    def restrict_hosts(self, hosts: AbstractSet[DomainName],
                       moved: Iterable[DomainName] = ()) -> None:
        """Drop fingerprint / vulnerability entries outside ``hosts``.

        After :meth:`carry_maps`, ``moved`` must hold every host whose
        fingerprint, verdicts or membership of ``hosts`` can differ from
        the carried results' (the hosts in the TCBs of the rows that left
        or came in); only those are decided, as a full merge would: the
        latest overlay wins, and hosts outside ``hosts`` go.
        """
        if self._carried is None:
            for mapping in (self._fingerprints, self._vulnerability_map,
                            self._compromisable_map):
                for host in [h for h in mapping if h not in hosts]:
                    del mapping[host]
            return
        carried = self._carried
        fingerprints = dict(carried.fingerprints)
        vulnerable = set(carried.vulnerable_servers)
        compromisable = set(carried.compromisable_servers)
        for host in sorted(moved, key=name_key):
            if host not in hosts:
                fingerprints.pop(host, None)
                vulnerable.discard(host)
                compromisable.discard(host)
                continue
            result = self._fingerprints.get(host)
            if result is not None:
                fingerprints[host] = result
            for flags, flagged in (
                    (self._vulnerability_map, vulnerable),
                    (self._compromisable_map, compromisable)):
                flag = flags.get(host)
                if flag:
                    flagged.add(host)
                elif flag is not None:
                    flagged.discard(host)
        self._settled = (fingerprints, vulnerable, compromisable)

    def _server_maps(self) -> Tuple[Dict[DomainName, FingerprintResult],
                                    Set[DomainName], Set[DomainName]]:
        """(fingerprints, vulnerable hosts, compromisable hosts).

        The carried path's are the maps :meth:`restrict_hosts` settled
        on, not copies.
        """
        if self._carried is None:
            return (self._fingerprints,
                    {host for host, flag
                     in self._vulnerability_map.items() if flag},
                    {host for host, flag
                     in self._compromisable_map.items() if flag})
        if self._settled is None:
            raise RuntimeError("carried server maps need restrict_hosts() "
                               "before they are read")
        return self._settled

    def _ordered_records(self) -> List[NameRecord]:
        """Every folded record, in directory order."""
        if self._base is None:
            return [self._records[index] for index in sorted(self._records)]
        records = list(self._base)
        for index, record in self._records.items():
            records[index] = record
        return records

    def results(self, popular: Set[DomainName],
                metadata: Dict[str, object]) -> SurveyResults:
        """Assemble the final :class:`SurveyResults`.

        The results take the aggregator's maps over instead of copies, so
        this is the aggregator's last use.
        """
        records = self._ordered_records()
        fingerprints, vulnerable, compromisable = self._server_maps()
        return SurveyResults(
            records=records,
            server_names_controlled=self._counts,
            vulnerable_servers=vulnerable,
            compromisable_servers=compromisable,
            fingerprints=fingerprints,
            popular_names=popular,
            metadata=metadata)


class SurveyEngine:
    """Runs the staged measurement pipeline against a synthetic Internet.

    Parameters
    ----------
    internet:
        The :class:`~repro.topology.generator.SyntheticInternet` to survey.
    vulnerability_db:
        Catalogue used to interpret fingerprints; defaults to the standard
        BIND catalogue.
    config:
        Backend selection and survey options (:class:`EngineConfig`).
    """

    def __init__(self, internet,
                 vulnerability_db: Optional[VulnerabilityDatabase] = None,
                 config: Optional[EngineConfig] = None):
        self.internet = internet
        self.database = vulnerability_db or default_database()
        self.config = config or EngineConfig()
        self.config.validate()
        self.passes: Tuple[AnalysisPass, ...] = \
            build_passes(self.config.passes)
        # World setup (e.g. DNSSEC deployment) must precede the worker
        # context, so every backend sees the same universe.
        for pass_ in self.passes:
            pass_.prepare(internet)
        self._root = WorkerContext(
            internet, self.database,
            internet.make_resolver(),
            passes=self.passes)
        # Socket backend state: the coordinator connects lazily (first
        # dispatch) and the delta path parks each epoch's dirty set here
        # for the work orders.
        self._coordinator = None
        self._dispatch_dirty: Set[DomainName] = set()

    def _ensure_coordinator(self):
        """Connect to (and BUILD) the socket workers on first use."""
        if self._coordinator is None:
            from repro.distrib.coordinator import (RetryPolicy,
                                                   ShardCoordinator)
            generator_config = getattr(self.internet, "config", None)
            policy = RetryPolicy(
                retries=self.config.retries,
                backoff_base=self.config.retry_backoff,
                seed=int(getattr(generator_config, "seed", 0) or 0))
            self._coordinator = ShardCoordinator(
                self, self.config.worker_addrs,
                connect_timeout=self.config.connect_timeout,
                response_timeout=self.config.response_timeout,
                build_timeout=self.config.build_timeout,
                retry_policy=policy,
                min_workers=self.config.min_workers,
                auth_token=self.config.auth_token)
        return self._coordinator

    def close(self) -> None:
        """Release backend resources (shuts socket workers down politely)."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __enter__(self) -> "SurveyEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- facade-compatible accessors ----------------------------------------------

    @property
    def resolver(self):
        """The primary worker's resolver."""
        return self._root.resolver

    @property
    def builder(self) -> DelegationGraphBuilder:
        """The primary worker's delegation-graph builder."""
        return self._root.builder

    @property
    def fingerprinter(self) -> Fingerprinter:
        """The primary worker's fingerprinter."""
        return self._root.fingerprinter

    def vulnerability_maps(self) -> Tuple[Dict[DomainName, bool],
                                          Dict[DomainName, bool]]:
        """Copies of the (vulnerable, compromisable) per-hostname flags."""
        return (dict(self._root.vulnerability_map),
                dict(self._root.compromisable_map))

    # -- name selection -----------------------------------------------------------------

    def _select_entries(self, names: Optional[Iterable[NameLike]],
                        max_names: Optional[int]) -> List[DirectoryEntry]:
        directory = self.internet.directory
        if names is not None:
            selected: List[DirectoryEntry] = []
            for name in names:
                entry = directory.entry(name)
                if entry is None:
                    entry = DirectoryEntry(name=DomainName(name),
                                           tld=DomainName(name).tld or "",
                                           category="adhoc", popularity=1.0)
                selected.append(entry)
            return selected
        entries = directory.entries()
        if max_names is not None and max_names < len(entries):
            entries = entries[:max_names]
        return entries

    # -- main pipeline --------------------------------------------------------------------

    def run(self, names: Optional[Iterable[NameLike]] = None,
            max_names: Optional[int] = None,
            progress: Optional[ProgressCallback] = None) -> SurveyResults:
        """Survey the given names (default: the whole directory)."""
        entries = self._select_entries(names, max_names)
        popular = {entry.name for entry in
                   self.internet.directory.alexa_top(self.config.popular_count)}
        aggregator = SurveyAggregator(total=len(entries), progress=progress)

        self._dispatch(list(enumerate(entries)), popular, aggregator)
        return aggregator.results(
            popular, self._final_metadata(len(entries), aggregator))

    def _dispatch(self, indexed: List[Tuple[int, DirectoryEntry]],
                  popular: Set[DomainName],
                  aggregator: SurveyAggregator) -> None:
        """Survey the indexed entries on the configured backend.

        Shared by :meth:`run` (the whole directory) and :meth:`run_delta`
        (just the dirty subset) so backend selection can never diverge
        between the cold and incremental paths.

        The world and the warm universe outlive the survey, so the
        collector's full passes would rescan them over and over: every
        object alive at the start is frozen out of collection for the
        call and thawed after it.  A caller that froze objects itself
        keeps its freeze, and this call does not add one.
        """
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            backend = self.config.backend
            if backend == "serial":
                context = self._root
                for index, entry in indexed:
                    aggregator.add_record(index, self._survey_entry(
                        context, entry, entry.name in popular))
                aggregator.merge_context(context)
            else:
                # Even a single socket worker goes over the wire: the
                # point of the backend is *where* the survey runs, not
                # parallelism.
                self._ensure_coordinator().run_shards(
                    indexed, popular, aggregator, dirty=self._dispatch_dirty)
        finally:
            if freeze:
                gc.unfreeze()

    def _final_metadata(self, requested: int,
                        aggregator: SurveyAggregator) -> Dict[str, object]:
        """Survey metadata plus pass metadata and finalize() reduces.

        Cross-record reduces run here: every record (and every shard's
        maps) has been folded by now, and the aggregator state is identical
        on all backends — and identical between a cold run and a delta run
        that patched the same records — so finalizer output is too.
        """
        backend = self.config.backend
        workers = len(self.config.worker_addrs) if backend == "socket" else 1
        metadata = {
            "popular_count": self.config.popular_count,
            "include_bottleneck": self.config.include_bottleneck,
            "names_requested": requested,
            "backend": backend,
            "workers": workers,
            "shards": workers,
            "passes": [pass_.name for pass_ in self.passes],
        }
        for pass_ in self.passes:
            metadata.update(pass_.metadata())
        for pass_ in self.passes:
            metadata.update(pass_.finalize(aggregator))
        if backend == "socket" and self._coordinator is not None and \
                self._coordinator.fault_report.any():
            # Only on faulted runs: clean runs keep metadata byte-stable
            # across backends and epochs.
            metadata["fault_report"] = \
                self._coordinator.fault_report.to_dict()
        return metadata

    # -- incremental re-survey ------------------------------------------------------------

    def run_delta(self, previous: SurveyResults, journal,
                  names: Optional[Iterable[NameLike]] = None,
                  max_names: Optional[int] = None,
                  progress: Optional[ProgressCallback] = None,
                  since: int = 0) -> DeltaOutcome:
        """Re-survey only what a journalled world change invalidated.

        ``previous`` is the last full (or delta) result set over this
        engine's Internet — fresh from :meth:`run` or loaded from a JSON
        snapshot; ``journal`` is the :class:`~repro.topology.changes.ChangeJournal`
        whose mutations were applied since (a pre-folded ``ChangeSet`` is
        accepted too).  The journal's footprint is mapped to dirty names
        through the previous TCBs (:class:`~repro.core.delta.DirtyIndex`),
        only those are re-surveyed — on the configured backend, with the
        primary context's closures, splits, chains, and resolver walk
        state surgically invalidated and otherwise carried — and every
        clean record is patched straight from ``previous``.  Pass
        ``finalize`` reduces re-run over the merged aggregate, so
        cross-record metadata (value ranking, dnssec fraction) stays
        exact.

        The contract: the returned results (and their snapshot) are
        byte-identical to a cold ``SurveyEngine(...).run()`` over the
        mutated world with the same configuration.  Delta bookkeeping
        therefore lives in the returned :class:`DeltaStats`, never in the
        results metadata.  A builder whose walk stopped at its
        ``max_depth`` cannot keep it, so such an engine raises
        :class:`ValueError`.
        """
        if self.builder.depth_truncated:
            raise ValueError(
                f"run_delta needs a cold survey: a walk stopped at "
                f"max_depth={self.builder.max_depth}, so rows depend on the "
                f"depth each host was first reached at, which a delta "
                f"cannot replay")
        started = time.perf_counter()
        changes = journal.changes(since=since) \
            if hasattr(journal, "changes") else journal
        entries = self._select_entries(names, max_names)
        if self.config.backend == "socket":
            # Workers replay the journal as mutation specs; the
            # coordinator needs the journal itself (sync_journal raises a
            # precise error on a pre-folded ChangeSet).
            self._ensure_coordinator().sync_journal(journal)

        index = DirtyIndex.of(previous)
        carried = index is getattr(previous, "_dirty_index", None)
        dirty = set(index.dirty_names(changes))
        entry_names = [entry.name for entry in entries]
        dirty_rows = index.dirty_rows(entry_names, dirty) if carried \
            else None
        if dirty_rows is not None:
            # The carried index holds these very rows: every row not
            # dirty is patched clean, and exactly the dirty rows leave.
            dirty_indexed = [(row, entries[row]) for row in dirty_rows]
            clean_count = len(entries) - len(dirty_rows)
            leaving: AbstractSet[DomainName] = dirty
        else:
            dirty_indexed = []
            clean_records: Dict[int, NameRecord] = {}
            # Per-entry record_for instead of a records scan: on a lazy
            # (mmap-backed) previous this hydrates exactly the clean
            # records being patched into the output — dirty rows are
            # re-surveyed, so their previous records are never
            # materialised at all.
            for position, entry in enumerate(entries):
                previous_record = None if entry.name in dirty else \
                    previous.record_for(entry.name)
                if previous_record is None:
                    dirty.add(entry.name)
                    dirty_indexed.append((position, entry))
                else:
                    clean_records[position] = previous_record
            # Rows leaving the index: every previous name not patched
            # clean.
            leaving = index.names() - {record.name for record
                                       in clean_records.values()}
            clean_count = len(clean_records)

        self.apply_changes(changes, dirty)

        popular = {entry.name for entry in
                   self.internet.directory.alexa_top(self.config.popular_count)}
        aggregator = SurveyAggregator(total=len(entries), progress=progress)
        if carried:
            # The previous server maps stand; restrict_hosts() re-decides
            # the hosts whose rows moved.
            aggregator.carry_maps(previous)
            counts = dict(previous.server_names_controlled)
            resolved = index.resolved_count() - \
                index.fold_out(counts, leaving)
            if dirty_rows is None:
                # Other rows than the index's: lay the clean records out
                # at their new rows.
                base: List[Optional[NameRecord]] = [None] * len(entries)
                for position, record in clean_records.items():
                    base[position] = record
            else:
                base = previous.records
            aggregator.patch(base, clean_count, counts, resolved)
        else:
            # Previous-world server maps go in first; shard merges from
            # the re-survey overlay fresher verdicts (dict update, last
            # wins).
            aggregator.merge_maps(
                dict(previous.fingerprints),
                {host: host in previous.vulnerable_servers
                 for host in previous.fingerprints},
                {host: host in previous.compromisable_servers
                 for host in previous.fingerprints})
            for position, record in clean_records.items():
                aggregator.add_record(position, record)

        if dirty_indexed:
            # Work orders must carry the epoch's *complete* dirty set: a
            # worker invalidates warm state for every dirty name, not just
            # the ones striped onto it this epoch.
            self._dispatch_dirty = dirty
            try:
                self._dispatch(dirty_indexed, popular, aggregator)
            finally:
                self._dispatch_dirty = set()

        # The next epoch's index: this one less the leaving rows, plus the
        # re-surveyed ones.
        resurveyed = [aggregator.record(position)
                      for position, _ in dirty_indexed]
        if dirty_rows is not None:
            index = index.advanced(
                leaving, resurveyed, rows=dirty_rows,
                leaving_records=[previous.records[row]
                                 for row in dirty_rows])
        else:
            index = index.advanced(leaving, resurveyed,
                                   row_names=entry_names)

        # A cold run fingerprints exactly the TCB members of its records;
        # prune carried entries for hosts nothing depends on any more.
        aggregator.restrict_hosts(
            index.hosts(), index.moved_since(previous._dirty_index)
            if carried else ())

        results = aggregator.results(
            popular, self._final_metadata(len(entries), aggregator))
        results._dirty_index = index
        if dirty_rows is None:
            # Count the new rows' census now, so the next epoch carries it
            # instead of recounting both sides of its diff.
            index.census(results.columns())
        if dirty_rows is not None and previous._record_index is not None \
                and len(previous._record_index) == len(entries):
            record_index = results._record_index = \
                dict(previous._record_index)
            for record in resurveyed:
                record_index[record.name] = record
        stats = DeltaStats(
            total_names=len(entries), dirty_names=len(dirty_indexed),
            patched_names=clean_count, events=len(journal)
            if hasattr(journal, "__len__") else 0,
            edited_zones=len(changes.edited_zones),
            created_zones=len(changes.created_zones),
            touched_hosts=len(changes.touched_hosts),
            dirty_fraction=(len(dirty_indexed) / len(entries))
            if entries else 0.0,
            elapsed_s=time.perf_counter() - started)
        return DeltaOutcome(results=results, stats=stats,
                            dirty=frozenset(dirty))

    def apply_changes(self, changes, dirty: Set[DomainName]) -> None:
        """Bring the primary context up to a journalled world change.

        A journalled DNSSEC deployment extends the signed world, so
        deployment-tracking passes adopt it first: their metadata then
        matches a cold engine configured for the extended deployment.
        The warm state is then surgically invalidated: the builder
        rewires the warm universe (see
        :meth:`~repro.core.delegation.DelegationGraphBuilder.apply_changes`);
        banner changes additionally retire the affected fingerprint and
        vulnerability verdicts, and any verdict-sensitive cache (per-chain
        analyses, analyzer prefix snapshots, validator zone caches) when
        verdicts or signatures may have changed.  ``run_delta``, a socket
        worker replaying the coordinator's mutation specs, and a resumed
        churn run all call this.
        """
        for deployment in changes.dnssec_deployments:
            for pass_ in self.passes:
                adopt = getattr(pass_, "adopt_deployment", None)
                if adopt is not None:
                    adopt(deployment)
        context = self._root
        context.builder.apply_changes(changes, dirty)
        for host in changes.refingerprint_hosts:
            context.vulnerability_map.pop(host, None)
            context.compromisable_map.pop(host, None)
            context.fingerprinter.forget(host)
            context.fingerprinted_slots = 0
        if changes.analyses_stale:
            context.builder.closures.retire_analyses()
            context.pass_states = {
                pass_.name: pass_.make_state(context)
                for pass_ in context.passes}

    # -- backends -----------------------------------------------------------------------

    def survey_stripe(self, context: WorkerContext,
                      indexed: Sequence[Tuple[int, DirectoryEntry]],
                      popular: Container[DomainName],
                      progress: Optional[ProgressCallback] = None
                      ) -> "ShardPayload":
        """Survey one stripe of indexed entries on ``context``.

        Returns the shard's output as a
        :class:`~repro.core.snapstore.ShardPayload`: the records with
        their directory indices, and copies of the context's fingerprint
        and verdict maps.  ``popular`` and ``meta`` are left empty for a
        shard file's writer to fill.  ``progress`` is called after every
        name.  Socket workers and ``survey --shard`` survey through here;
        :meth:`fold_shard` folds the result back.
        """
        from repro.core.snapstore import ShardPayload

        records = []
        for done, (_index, entry) in enumerate(indexed, 1):
            records.append(self._survey_entry(context, entry,
                                              entry.name in popular))
            if progress is not None:
                progress(done, len(indexed))
        return ShardPayload(
            rows=[index for index, _entry in indexed], records=records,
            fingerprints=context.fingerprinter.results(),
            vulnerability_map=dict(context.vulnerability_map),
            compromisable_map=dict(context.compromisable_map),
            popular=set(), meta={})

    def fold_shard(self, aggregator: SurveyAggregator,
                   shard: "ShardPayload") -> None:
        """Fold one shard's output into ``aggregator`` and the primary context.

        :meth:`SurveyAggregator.fold_shard` places the records and
        overlays the server maps; the maps then overlay the primary
        context's too, so a later delta epoch starts from every verdict
        the shards reached.  Callers fold shards in shard order.
        """
        aggregator.fold_shard(shard)
        root = self._root
        root.fingerprinter.adopt(shard.fingerprints)
        root.vulnerability_map.update(shard.vulnerability_map)
        root.compromisable_map.update(shard.compromisable_map)

    # -- stages -------------------------------------------------------------------------

    def _survey_entry(self, context: WorkerContext, entry: DirectoryEntry,
                      is_popular: bool) -> NameRecord:
        """Run one name through discovery, closure, fingerprint, analysis."""
        # Stages 1+2: discovery (chain walking) and memoized closure.
        view = context.builder.tcb_view(entry.name)

        # Names sharing a direct-zone chain share everything but identity:
        # reuse the analysis computed for the first such name.
        cache = context.chain_analysis_cache(context.builder.closures.version)
        key = tuple(view.zones_of(name_node(view.target)))
        analysis = cache.get(key)
        if analysis is None:
            analysis = self._analyze_view(context, view, key)
            cache[key] = analysis

        extras = analysis["extras"]
        uncached = [pass_ for pass_ in context.passes
                    if not pass_.chain_cacheable]
        if uncached:
            extras = dict(extras)
            ctx = PassContext(view=view, chain_key=key, builtin=analysis,
                              worker=context)
            for pass_ in uncached:
                extras.update(
                    pass_.analyze(ctx, context.pass_states[pass_.name]))

        return NameRecord(
            name=entry.name, tld=entry.tld, category=entry.category,
            is_popular=is_popular, resolved=analysis["resolved"],
            tcb_size=analysis["tcb_size"],
            in_bailiwick=analysis["in_bailiwick"],
            vulnerable_in_tcb=analysis["vulnerable_in_tcb"],
            compromisable_in_tcb=analysis["compromisable_in_tcb"],
            safety_percentage=analysis["safety_percentage"],
            mincut_size=analysis["mincut_size"],
            mincut_safe=analysis["mincut_safe"],
            mincut_vulnerable=analysis["mincut_vulnerable"],
            classification=analysis["classification"],
            tcb_servers=analysis["tcb_servers"],
            mincut_servers=analysis["mincut_servers"],
            extras=dict(extras))

    def _analyze_view(self, context: WorkerContext, view: TCBView,
                      chain_key: Tuple[NodeKey, ...]) -> Dict[str, object]:
        """Stages 3+4: fingerprinting and analysis for one delegation chain."""
        tcb = view.tcb_frozen()
        resolved = bool(tcb)

        # Stage 3: fingerprint newly discovered TCB members.  Only a TCB
        # holding a slot no earlier one held can have one.
        mask = view.tcb_mask()
        if mask & ~context.fingerprinted_slots:
            for hostname in tcb:
                context.fingerprint(hostname)
            context.fingerprinted_slots |= mask

        # Stage 4: TCB report, bottleneck, classification.
        report = compute_tcb_report(view, context.vulnerability_map,
                                    context.compromisable_map)
        mincut_size = 0
        mincut_safe = 0
        mincut_vulnerable = 0
        mincut_servers: FrozenSet[DomainName] = frozenset()
        classification = "safe"
        if resolved and self.config.include_bottleneck:
            bottleneck = context.analyzer.analyze(view)
            if bottleneck.feasible:
                mincut_size = bottleneck.size
                mincut_safe = bottleneck.safe_in_cut
                mincut_vulnerable = bottleneck.vulnerable_in_cut
                mincut_servers = bottleneck.cut_servers
                if bottleneck.fully_vulnerable:
                    classification = "complete"
                elif bottleneck.one_safe_server and mincut_vulnerable > 0:
                    classification = "dos-assisted"
                elif report.vulnerable_count > 0:
                    classification = "partial"
        elif report.vulnerable_count > 0:
            classification = "partial"

        analysis: Dict[str, object] = {
            "resolved": resolved,
            "tcb_size": report.size,
            "in_bailiwick": report.in_bailiwick_count,
            "vulnerable_in_tcb": report.vulnerable_count,
            "compromisable_in_tcb": report.compromisable_count,
            # Canonicalised at birth to the codecs' three decimals:
            # records must survive a snapshot round trip *equal*, or a
            # resumed run comparing fresh records against store-loaded
            # ones sees phantom changes.
            "safety_percentage": round(report.safety_percentage, 3),
            "mincut_size": mincut_size,
            "mincut_safe": mincut_safe,
            "mincut_vulnerable": mincut_vulnerable,
            "classification": classification,
            "tcb_servers": tcb,
            "mincut_servers": mincut_servers,
        }

        # Chain-cacheable passes ride the same per-chain memo as the
        # built-in columns above (their output is a pure function of the
        # chain, which is what chain_cacheable promises).
        extras: Dict[str, object] = {}
        cacheable = [pass_ for pass_ in context.passes
                     if pass_.chain_cacheable]
        if cacheable:
            ctx = PassContext(view=view, chain_key=chain_key,
                              builtin=analysis, worker=context)
            for pass_ in cacheable:
                extras.update(
                    pass_.analyze(ctx, context.pass_states[pass_.name]))
        analysis["extras"] = extras
        return analysis

