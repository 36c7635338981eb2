"""Longitudinal churn timelines: epoch loops over the delta engine.

The one-shot survey answers "whose servers does this name trust *today*?".
The paper's larger point is that the answer drifts: zones change hands,
boxes die, deployment creeps.  This module runs that movie.  Each epoch a
:class:`~repro.topology.churn.ChurnModel` mutates the world through a fresh
:class:`~repro.topology.changes.ChangeJournal`, the engine re-surveys just
the invalidated names (:meth:`~repro.core.engine.SurveyEngine.run_delta`),
and the results are reduced into a :class:`TimelineSnapshot` — the
machine-readable per-epoch row a longitudinal analysis consumes.

Invariants a :class:`Timeline` promises (and :meth:`Timeline.validate`
enforces on load, so a corrupted or hand-edited ``timeline.json`` fails
loudly instead of producing silent nonsense):

* epoch indices are contiguous from 0 (the cold baseline) to ``epochs``;
* the DNSSEC target fraction is monotone non-decreasing — signing is
  additive, deployment never regresses;
* every epoch surveys the same directory (``total_names`` constant).

``cold_check=True`` additionally runs a cold full survey of the mutated
world after every epoch and records whether the incremental snapshot is
byte-identical to it (``cold_identical``) plus the cold wall-clock — the
delta-correctness audit the tests and the churn benchmark assert on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
from typing import (TYPE_CHECKING, AbstractSet, Callable, Dict, List,
                    Optional, Sequence, Tuple, Union)

from repro.dns.name import DomainName
from repro.core.atomic import atomic_write_text
from repro.core.delta import DeltaStats, DirtyIndex
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.export import _is_zlib_header
from repro.core.passes import build_passes
from repro.core.snapshot import diff_results, results_to_dict
from repro.core.snapstore import MAGIC, EpochStore, SnapshotFormatError
from repro.core.survey import SurveyColumns, SurveyResults

# The topology layer imports core.delegation at module load (the shared
# exclusion-suffix constant), so the loop back into topology must stay
# call-time-lazy here or package initialisation becomes order-dependent.
# ``ChurnModel`` is annotation-only (PEP 563 strings via the __future__
# import above); ``ChangeJournal`` is imported inside the epoch loop.
if TYPE_CHECKING:
    from repro.topology.churn import ChurnModel

#: Format version written into every timeline for forwards compatibility.
TIMELINE_FORMAT_VERSION = 1

#: How many most-changed names each epoch snapshot records.  This is the
#: upper bound on what `repro-dns timeline --movers` can render — movers
#: beyond it are not persisted.
TOP_MOVER_COUNT = 10

PathLike = Union[str, pathlib.Path]


@dataclasses.dataclass
class TimelineSnapshot:
    """One epoch's machine-readable reduction of the survey results.

    ``epoch`` 0 is the cold baseline (everything "dirty", no drift); every
    later epoch reflects one churn step re-surveyed incrementally.
    """

    epoch: int
    #: Journalled events this epoch, total and per event kind.
    events: int
    event_kinds: Dict[str, int]
    #: Delta bookkeeping (epoch 0: dirty == total, patched == 0).
    total_names: int
    dirty_names: int
    patched_names: int
    dirty_fraction: float
    delta_elapsed_s: float
    #: Survey aggregates — the drift series.
    names_resolved: int
    hijackable_fraction: float
    mean_tcb: float
    median_tcb: float
    p95_tcb: float
    mean_mincut: float
    vulnerable_dependency_fraction: float
    #: Pass aggregates, present when the corresponding pass ran.
    availability_mean: Optional[float]
    dnssec_secure_fraction: Optional[float]
    #: The churn model's target signed fraction (monotone by construction).
    dnssec_fraction: float
    #: Drift vs the previous epoch (empty on the baseline).
    changed_names: int
    added_names: int
    removed_names: int
    tcb_mean_abs_delta: float
    top_movers: List[Dict[str, str]]
    #: Cold-audit fields, populated only when ``cold_check`` ran.
    cold_elapsed_s: Optional[float] = None
    cold_identical: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (field names are the schema)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TimelineSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        fields = dataclasses.fields(cls)
        known = {field.name for field in fields}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown timeline snapshot field(s) "
                             f"{sorted(unknown)}")
        required = {field.name for field in fields
                    if field.default is dataclasses.MISSING}
        missing = required - set(payload)
        if missing:
            raise ValueError(f"timeline snapshot missing field(s) "
                             f"{sorted(missing)}")
        return cls(**payload)  # type: ignore[arg-type]


@dataclasses.dataclass
class Timeline:
    """A complete longitudinal run: configuration plus per-epoch snapshots."""

    #: Run provenance: churn seed/rates, engine backend, pass specs, the
    #: generator description the caller chose to record.
    config: Dict[str, object]
    snapshots: List[TimelineSnapshot]

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def epochs(self) -> int:
        """Number of churn epochs (the baseline does not count)."""
        return max(0, len(self.snapshots) - 1)

    @property
    def interrupted_at(self) -> Optional[int]:
        """The last committed epoch of an interrupted run, else None.

        Set by the graceful-shutdown path: the run stopped early, every
        epoch up to (and including) this one is durable, and
        ``churn --resume`` is the documented next step.
        """
        return self.config.get("interrupted_at_epoch")

    def drift_series(self, field: str) -> List[object]:
        """One snapshot field across every epoch, baseline first."""
        return [getattr(snapshot, field) for snapshot in self.snapshots]

    def validate(self) -> None:
        """Enforce the timeline invariants; raises ``ValueError``."""
        if not self.snapshots:
            raise ValueError("timeline has no snapshots")
        for position, snapshot in enumerate(self.snapshots):
            if snapshot.epoch != position:
                raise ValueError(
                    f"epoch indices must be contiguous from 0: found "
                    f"epoch {snapshot.epoch} at position {position}")
        fractions = self.drift_series("dnssec_fraction")
        for previous, current in zip(fractions, fractions[1:]):
            if current < previous:
                raise ValueError(
                    f"DNSSEC fraction must be monotone non-decreasing "
                    f"(signing is additive): {previous} -> {current}")
        totals = {snapshot.total_names for snapshot in self.snapshots}
        if len(totals) > 1:
            raise ValueError(f"every epoch must survey the same directory; "
                             f"saw name counts {sorted(totals)}")
        interrupted = self.interrupted_at
        if interrupted is not None:
            last = self.snapshots[-1].epoch
            if not isinstance(interrupted, int) or interrupted != last:
                raise ValueError(
                    f"interrupted_at_epoch must name the last committed "
                    f"epoch ({last}), got {interrupted!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": TIMELINE_FORMAT_VERSION,
            "config": dict(self.config),
            "snapshots": [snapshot.to_dict() for snapshot in self.snapshots],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Timeline":
        version = payload.get("format_version")
        if version != TIMELINE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported timeline format version: {version!r}")
        snapshots = [TimelineSnapshot.from_dict(raw)
                     for raw in payload.get("snapshots", [])]
        return cls(config=dict(payload.get("config", {})),
                   snapshots=snapshots)


def save_timeline(timeline: Timeline, path: PathLike) -> pathlib.Path:
    """Atomically write a timeline to ``path`` as JSON; returns the path.

    The write goes through :mod:`repro.core.atomic`, so an interrupted
    save (including the graceful-shutdown partial save) can never leave a
    torn ``timeline.json`` — the previous contents, if any, survive.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(timeline.to_dict(), indent=1,
                                       sort_keys=True) + "\n")
    return path


def timeline_fingerprint(timeline: Timeline) -> str:
    """A sha256 over the timeline's *deterministic* content.

    Two runs of the same seeded world produce identical drift series but
    can never produce identical wall-clocks, and socket runs record the
    ephemeral worker addresses (and the store its path) in the config —
    so literal byte-equality of ``timeline.json`` is unachievable even
    between two uninterrupted runs.  The fingerprint canonicalises
    exactly that: elapsed fields are zeroed and the ``store`` /
    ``worker_addrs`` config entries dropped before hashing.  Everything
    else — every snapshot field, the churn seed, rates, pass specs, an
    ``interrupted_at_epoch`` marker — is covered, which is what makes
    ``fingerprint(resumed run) == fingerprint(uninterrupted run)`` the
    resume-determinism acceptance check.
    """
    payload = timeline.to_dict()
    config = payload["config"]
    config.pop("store", None)
    config.pop("worker_addrs", None)
    for snapshot in payload["snapshots"]:
        snapshot["delta_elapsed_s"] = 0.0
        if snapshot.get("cold_elapsed_s") is not None:
            snapshot["cold_elapsed_s"] = 0.0
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def load_timeline(path: PathLike) -> Timeline:
    """Read (and validate) a timeline written by :func:`save_timeline`.

    Sniffs the leading bytes before parsing: a REPRO-SNAP results file or
    a zlib-compressed document handed to ``timeline report`` by mistake
    gets a precise :class:`SnapshotFormatError` instead of a raw
    ``json.JSONDecodeError``.
    """
    import zlib

    path = pathlib.Path(path)
    raw = path.read_bytes()
    if raw.startswith(MAGIC):
        raise SnapshotFormatError(
            f"{path}: this is a REPRO-SNAP survey snapshot, not a timeline "
            f"JSON (use 'repro-dns report' for survey snapshots)")
    if _is_zlib_header(raw[:2]):
        try:
            raw = zlib.decompress(raw)
        except zlib.error as error:
            raise SnapshotFormatError(
                f"{path}: truncated or corrupt zlib stream: {error}"
            ) from error
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SnapshotFormatError(
            f"{path}: not a timeline (expected JSON, got malformed input: "
            f"{error})") from error
    timeline = Timeline.from_dict(payload)
    timeline.validate()
    return timeline


# -- pass-spec plumbing ----------------------------------------------------------------


def dnssec_spec_options(passes: Union[str, Sequence[str], None]
                        ) -> Tuple[float, str, bool]:
    """(fraction, seed, sign_tlds) of the ``dnssec`` pass configuration.

    Accepts the same forms as :func:`run_churn_timeline` (a comma-joined
    CLI string, a sequence of spec strings, or ``None``).  The churn
    model's adoption state must start exactly where the engine's
    deployment starts — fraction, seed, *and* the sign-TLDs policy — or
    the first journalled extension would deploy a mismatched superset and
    be rejected.  The specs are resolved through
    :func:`repro.core.passes.build_passes` and the built pass's own
    attributes are read, so this can never drift from the grammar (or the
    defaults) the engine itself applies.  Returns
    (0.0, "repro-dnssec", True) — an unsigned world — when no dnssec
    pass is configured.
    """
    for pass_ in build_passes(list(_normalise_pass_specs(passes))):
        if pass_.name == "dnssec":
            return pass_.fraction, pass_.seed, pass_.sign_tlds
    return 0.0, "repro-dnssec", True


def _with_dnssec_fraction(pass_specs: Sequence[str],
                          fraction: float) -> List[str]:
    """Pass specs with the dnssec fraction rewritten to ``fraction``.

    Used by the cold audit: a cold engine over the epoch-``e`` world must
    be *configured* for the deployment the journal has grown to, exactly
    as the warm engine adopted it.
    """
    rewritten: List[str] = []
    for spec in pass_specs:
        kind, _, option_text = spec.partition(":")
        if kind.strip() != "dnssec":
            rewritten.append(spec)
            continue
        options = [item.strip() for item in option_text.split(";")
                   if item.strip() and
                   not item.strip().startswith("fraction")]
        options.insert(0, f"fraction={fraction}")
        rewritten.append("dnssec:" + ";".join(options))
    return rewritten


# -- the epoch loop --------------------------------------------------------------------


def _normalise_pass_specs(passes: Union[str, Sequence[str], None]
                          ) -> Tuple[str, ...]:
    if passes is None:
        return ()
    if isinstance(passes, str):
        return tuple(item.strip() for item in passes.split(",")
                     if item.strip())
    for spec in passes:
        if not isinstance(spec, str):
            raise TypeError(
                "run_churn_timeline needs pass *spec strings* (it rebuilds "
                "fresh pass instances for the cold audit); got "
                f"{type(spec).__name__}")
    return tuple(passes)


def drift_aggregates(columns: SurveyColumns) -> Dict[str, object]:
    """The survey and pass aggregates of a timeline row, by field name.

    All of them come off the results' census (carried from epoch to epoch
    on a delta's :class:`~repro.core.delta.DirtyIndex`, else counted in
    one pass), so a row costs what the epoch changed.
    """
    extras = columns.extras_summary()
    dnssec_secure = extras.get("dnssec_status=secure")
    if dnssec_secure is None and "dnssec_status" in \
            columns.extras_columns():
        dnssec_secure = 0.0  # the pass ran but nothing validated secure
    return {
        "names_resolved": columns.names_resolved(),
        "hijackable_fraction": columns.fraction_completely_hijackable(),
        "mean_tcb": columns.mean_tcb_size(),
        "median_tcb": columns.tcb_percentile(50.0),
        "p95_tcb": columns.tcb_percentile(95.0),
        "mean_mincut": columns.mean_mincut_size(),
        "vulnerable_dependency_fraction":
            columns.fraction_with_vulnerable_dependency(),
        "availability_mean": extras.get("availability"),
        "dnssec_secure_fraction": dnssec_secure,
    }


def _reduce_epoch(epoch: int, results: SurveyResults,
                  previous: Optional[SurveyResults],
                  events: Sequence, stats,
                  elapsed_s: float,
                  dnssec_fraction: float,
                  dirty: Optional[AbstractSet[DomainName]] = None
                  ) -> TimelineSnapshot:
    """Fold one epoch's results (and drift vs ``previous``) into a row.

    ``dirty`` is the epoch's re-surveyed name set: every other record was
    copied from ``previous``, so the drift diff compares only these.
    """
    event_kinds: Dict[str, int] = {}
    for event in events:
        event_kinds[event.kind] = event_kinds.get(event.kind, 0) + 1

    changed = added = removed = 0
    tcb_drift = 0.0
    movers: List[Dict[str, str]] = []
    if previous is not None:
        diff = diff_results(previous, results, dirty=dirty)
        changed = diff.changed
        added = len(diff.only_in_b)
        removed = len(diff.only_in_a)
        tcb_drift = diff.numeric.get("tcb_size", {}).get("mean_abs_delta",
                                                         0.0)
        movers = [
            {"name": str(change.name),
             "changes": "; ".join(
                 f"{field}: {before} -> {after}"
                 for field, (before, after) in sorted(change.fields.items()))}
            for change in diff.top_movers(TOP_MOVER_COUNT)]

    return TimelineSnapshot(
        epoch=epoch,
        events=len(events),
        event_kinds=event_kinds,
        total_names=stats.total_names,
        dirty_names=stats.dirty_names,
        patched_names=stats.patched_names,
        dirty_fraction=stats.dirty_fraction,
        delta_elapsed_s=round(elapsed_s, 6),
        **drift_aggregates(results.columns()),
        dnssec_fraction=dnssec_fraction,
        changed_names=changed,
        added_names=added,
        removed_names=removed,
        tcb_mean_abs_delta=tcb_drift,
        top_movers=movers)


@dataclasses.dataclass
class _BaselineStats:
    """Delta-shaped bookkeeping for the cold epoch-0 survey."""

    total_names: int
    dirty_names: int
    patched_names: int = 0
    dirty_fraction: float = 1.0


def run_churn_timeline(internet, model: ChurnModel, epochs: int,
                       backend: str = "serial",
                       include_bottleneck: bool = True,
                       passes: Union[str, Sequence[str], None] = None,
                       popular_count: int = 500,
                       max_names: Optional[int] = None,
                       cold_check: bool = False,
                       store: Union[EpochStore, PathLike, None] = None,
                       keyframe_every: Optional[int] = None,
                       worker_addrs: Sequence[str] = (),
                       socket_options: Optional[Dict[str, object]] = None,
                       progress=None,
                       resume: bool = False,
                       should_stop: Optional[Callable[[], bool]] = None
                       ) -> Timeline:
    """Run ``epochs`` churn steps over ``internet`` and reduce each epoch.

    The loop alternates ``model.advance`` (world mutation through a fresh
    journal) with ``engine.run_delta`` (dirty-only re-survey), starting
    from a cold epoch-0 baseline.  ``passes`` must be spec strings (see
    :func:`repro.core.passes.build_passes`) — the runner builds the warm
    engine itself and, under ``cold_check``, fresh cold engines whose
    dnssec fraction tracks the journal's deployment progress.

    ``store``, when given (an :class:`~repro.core.snapstore.EpochStore` or
    a directory path), persists every epoch's full results: epoch 0 as a
    complete binary snapshot, later epochs as column deltas bounded by the
    engine's dirty sets — so disk usage grows with churn, not with
    ``epochs × universe``.

    ``keyframe_every=K`` makes the store write a complete snapshot every
    K epochs (instead of a delta), bounding ``load_epoch`` overlay chains.

    ``worker_addrs`` (with ``backend="socket"``) runs every epoch's
    re-survey over a pool of `repro-dns worker` processes; the workers
    stay warm across epochs, each receiving only the shard of dirty
    names striped onto it plus the epoch's mutation specs.  The cold
    audit (``cold_check``) always runs serially: it exists to check the
    warm distributed state against an independent reference, and the
    busy workers cannot serve a second coordinator mid-epoch.
    ``socket_options`` passes extra :class:`EngineConfig` fields (e.g.
    ``retries``, ``min_workers``, ``auth_token``, ``response_timeout``)
    through to the socket backend only — the serial cold audit never
    sees them.

    ``progress``, when given, is called as ``progress(epoch, snapshot)``
    after each epoch is reduced.

    ``resume=True`` continues an interrupted run from a non-empty
    ``store``: the committed epochs are *replayed* — ``model.advance``
    re-derives the world and the engine's warm state epoch by epoch (the
    churn model is seeded, so the event sequence reproduces exactly),
    while the results come straight off the store's durable epochs with
    no re-survey — and the loop then continues from the first
    uncommitted epoch.  The finished timeline is deterministic: its
    :func:`timeline_fingerprint` equals an uninterrupted run's.
    ``internet`` and ``model`` must be freshly built with the run's
    original seeds and configuration.

    ``should_stop``, when given, is polled between epochs (the graceful-
    shutdown hook): returning True finishes the in-flight epoch's commit,
    marks the timeline ``interrupted_at_epoch``, and returns it early.
    """
    from repro.topology.changes import ChangeJournal

    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    pass_specs = _normalise_pass_specs(passes)
    epoch_store = (store if isinstance(store, EpochStore) or store is None
                   else EpochStore(store, keyframe_every=keyframe_every))
    if resume:
        if epoch_store is None:
            raise ValueError("resume needs an epoch store (the committed "
                             "epochs are the only durable state)")
        _check_resumable_store(epoch_store, epochs)
    elif epoch_store is not None and epoch_store.epochs:
        raise ValueError(f"epoch store {epoch_store.root} is not empty "
                         f"(holds {epoch_store.epochs} epochs; pass "
                         f"resume=True / --resume to continue it)")

    def engine_config(specs: Sequence[str],
                      run_backend: Optional[str] = None) -> EngineConfig:
        run_backend = run_backend or backend
        extra = dict(socket_options or {}) if run_backend == "socket" else {}
        return EngineConfig(backend=run_backend,
                            include_bottleneck=include_bottleneck,
                            popular_count=popular_count,
                            passes=build_passes(list(specs)),
                            worker_addrs=(tuple(worker_addrs)
                                          if run_backend == "socket"
                                          else ()),
                            **extra)

    # The engine is created on the *pristine* world with the original
    # pass specs — on resume too: replay then advances world and engine
    # together, so the coordinator's frozen BUILD frame and the replayed
    # spec history match what the interrupted run's workers saw.
    engine = SurveyEngine(internet, config=engine_config(pass_specs))

    try:
        return _run_epoch_loop(internet, model, epochs, engine,
                               engine_config, pass_specs, backend,
                               include_bottleneck, popular_count, max_names,
                               cold_check, epoch_store, keyframe_every,
                               worker_addrs, progress, resume, should_stop)
    finally:
        engine.close()


def _check_resumable_store(epoch_store: EpochStore, epochs: int) -> None:
    """Refuse to resume from a store that is empty, damaged, or oversized."""
    report = epoch_store.verify()
    if report.problems:
        details = "; ".join(str(problem) for problem in report.problems)
        raise SnapshotFormatError(
            f"{epoch_store.root}: cannot resume from a damaged epoch "
            f"store ({details}) — run `repro-dns fsck --salvage "
            f"{epoch_store.root}` first")
    if report.valid_epochs == 0:
        raise ValueError(
            f"epoch store {epoch_store.root} is empty — nothing to "
            f"resume (run without --resume)")
    if report.valid_epochs > epochs + 1:
        raise ValueError(
            f"epoch store {epoch_store.root} already holds "
            f"{report.valid_epochs - 1} churn epochs, more than the "
            f"{epochs} requested")


def _cold_audit(snapshot: TimelineSnapshot, results, internet,
                engine_config, pass_specs, model, max_names) -> None:
    """Run the serial cold reference survey and record the comparison.

    The metadata keys saying where the survey ran (backend, workers,
    shards) are left out of the comparison: a socket epoch is audited
    against a serial survey.
    """
    cold_specs = _with_dnssec_fraction(pass_specs, model.dnssec_fraction)
    # The audit reference is always serial: an independent cold
    # engine must not contend for (or rebuild) the busy workers.
    cold_engine = SurveyEngine(
        internet, config=engine_config(cold_specs, run_backend="serial"))
    cold_started = time.perf_counter()
    cold = cold_engine.run(max_names=max_names)
    snapshot.cold_elapsed_s = round(time.perf_counter() - cold_started, 6)
    snapshot.cold_identical = _audited_bytes(results) == _audited_bytes(cold)


def _audited_bytes(results) -> str:
    payload = results_to_dict(results)
    payload["metadata"] = {key: value for key, value
                           in payload["metadata"].items()
                           if key not in ("backend", "workers", "shards")}
    return json.dumps(payload, sort_keys=True)


def _check_resume_compatibility(engine, baseline_results,
                                max_names) -> None:
    """The resumed run must be configured exactly like the original."""
    metadata = baseline_results.metadata
    expected_passes = [pass_.name for pass_ in engine.passes]
    if metadata.get("passes") != expected_passes:
        raise ValueError(
            f"cannot resume: the store was written with passes "
            f"{metadata.get('passes')}, this run configures "
            f"{expected_passes}")
    for key, value in (
            ("popular_count", engine.config.popular_count),
            ("include_bottleneck", engine.config.include_bottleneck),
            ("names_requested",
             len(engine._select_entries(None, max_names)))):
        if metadata.get(key) != value:
            raise ValueError(
                f"cannot resume: the store was written with "
                f"{key}={metadata.get(key)!r}, this run has {key}={value!r}")


def _replay_committed_epochs(internet, model, engine, engine_config,
                             pass_specs, backend, max_names, cold_check,
                             epoch_store, progress):
    """Re-derive world + engine state for a store's committed epochs.

    No name is re-surveyed: ``model.advance`` replays the seeded event
    sequence (mutating the world and the engine's warm context exactly
    as the interrupted run did), and every epoch's results are opened
    lazily from the store.  Returns the rebuilt snapshot rows and the
    last durable epoch's results — the delta baseline the continuing
    loop picks up from.
    """
    from repro.topology.changes import ChangeJournal

    committed = epoch_store.epochs
    replay_started = time.perf_counter()
    results = epoch_store.load_epoch(0)
    _check_resume_compatibility(engine, results, max_names)
    baseline = _reduce_epoch(
        0, results, None, events=(),
        stats=_BaselineStats(total_names=len(results.records),
                             dirty_names=len(results.records)),
        elapsed_s=time.perf_counter() - replay_started,
        dnssec_fraction=model.dnssec_fraction)
    snapshots = [baseline]
    if progress is not None:
        progress(0, baseline)

    for epoch in range(1, committed):
        epoch_started = time.perf_counter()
        journal = ChangeJournal(internet)
        events = model.advance(journal)
        changes = journal.changes()
        if backend == "socket":
            # The coordinator's spec history must replay completely: a
            # (re)built worker receives every mutation since epoch 0.
            engine._ensure_coordinator().sync_journal(journal)
        previous = results
        entries = engine._select_entries(None, max_names)
        # Mirror run_delta's dirty bookkeeping so the replayed stats row
        # equals the one the interrupted run reduced.
        dirty = set(DirtyIndex(previous).dirty_names(changes))
        dirty_count = clean_count = 0
        for entry in entries:
            if entry.name not in dirty and \
                    previous.record_for(entry.name) is not None:
                clean_count += 1
            else:
                dirty.add(entry.name)
                dirty_count += 1
        engine.apply_changes(changes, dirty)
        results = epoch_store.load_epoch(epoch)
        elapsed = time.perf_counter() - epoch_started
        stats = DeltaStats(
            total_names=len(entries), dirty_names=dirty_count,
            patched_names=clean_count,
            events=len(journal) if hasattr(journal, "__len__") else 0,
            edited_zones=len(changes.edited_zones),
            created_zones=len(changes.created_zones),
            touched_hosts=len(changes.touched_hosts),
            dirty_fraction=(dirty_count / len(entries)) if entries else 0.0,
            elapsed_s=elapsed)
        snapshot = _reduce_epoch(epoch, results, previous, events, stats,
                                 elapsed, model.dnssec_fraction, dirty)
        if cold_check:
            _cold_audit(snapshot, results, internet, engine_config,
                        pass_specs, model, max_names)
        snapshots.append(snapshot)
        if progress is not None:
            progress(epoch, snapshot)
    return snapshots, results


def _run_epoch_loop(internet, model, epochs, engine, engine_config,
                    pass_specs, backend, include_bottleneck,
                    popular_count, max_names, cold_check, epoch_store,
                    keyframe_every, worker_addrs, progress, resume,
                    should_stop) -> Timeline:
    from repro.topology.changes import ChangeJournal

    if resume:
        snapshots, results = _replay_committed_epochs(
            internet, model, engine, engine_config, pass_specs, backend,
            max_names, cold_check, epoch_store, progress)
    else:
        started = time.perf_counter()
        results = engine.run(max_names=max_names)
        baseline_elapsed = time.perf_counter() - started
        baseline = _reduce_epoch(
            0, results, None, events=(),
            stats=_BaselineStats(total_names=len(results.records),
                                 dirty_names=len(results.records)),
            elapsed_s=baseline_elapsed,
            dnssec_fraction=model.dnssec_fraction)
        snapshots = [baseline]
        if epoch_store is not None:
            epoch_store.append(results)
        if progress is not None:
            progress(0, baseline)

    interrupted: Optional[int] = None
    for epoch in range(len(snapshots), epochs + 1):
        if should_stop is not None and should_stop():
            # The previous epoch's commit is complete and durable; stop
            # here and mark the timeline resumable at it.
            interrupted = epoch - 1
            break
        journal = ChangeJournal(internet)
        events = model.advance(journal)
        epoch_started = time.perf_counter()
        outcome = engine.run_delta(results, journal, max_names=max_names)
        elapsed = time.perf_counter() - epoch_started
        snapshot = _reduce_epoch(epoch, outcome.results, results, events,
                                 outcome.stats, elapsed,
                                 model.dnssec_fraction, outcome.dirty)
        if cold_check:
            _cold_audit(snapshot, outcome.results, internet, engine_config,
                        pass_specs, model, max_names)
        if epoch_store is not None:
            # The dirty set bounds the changed-row scan: clean rows are
            # unchanged by the delta contract and are never compared.
            epoch_store.append(outcome.results, previous=results,
                               dirty=outcome.dirty)
        results = outcome.results
        snapshots.append(snapshot)
        if progress is not None:
            progress(epoch, snapshot)

    timeline = Timeline(
        config={
            "epochs": epochs,
            "backend": backend,
            "workers": len(worker_addrs) if backend == "socket" else 1,
            "include_bottleneck": include_bottleneck,
            "passes": list(pass_specs),
            "popular_count": popular_count,
            "max_names": max_names,
            "churn_seed": model.seed,
            "rates": model.rates.to_dict(),
            "cold_check": cold_check,
            "store": (str(epoch_store.root)
                      if epoch_store is not None else None),
            "keyframe_every": keyframe_every,
            "worker_addrs": list(worker_addrs),
        },
        snapshots=snapshots)
    if interrupted is not None:
        timeline.config["interrupted_at_epoch"] = interrupted
    timeline.validate()
    return timeline
