"""The benchmark's two workloads, each driven through the public API.

``cold_survey``
    A serial :meth:`SurveyEngine.run` over a freshly generated world,
    repeated.  The first survey is saved as a binary snapshot, as
    ``survey --output --format binary`` does, and after every survey
    ``repro-dns report`` reads it back.
``churn_store``
    Two identical :func:`run_churn_timeline` runs with a durable
    :class:`EpochStore`.  While the second one writes its epochs, every
    epoch is followed by a read pass over the first one's finished store.

``report`` runs in a process of its own, as a user runs it.  A traced
``cold_survey`` run also surveys the world once on the socket
backend, over a two-worker :class:`LocalWorkerFleet`, so the ``distrib``
layer is measured there.  A workload returns an :class:`Outcome`: the
samples, the operations attempted and failed, and (traced runs) the
tracer.

Times are critical-path CPU seconds (:class:`Stopwatch`), with the
wall-clock kept beside them.  On a shared virtual machine the hypervisor
withholds the CPUs for 20-50% of a survey's wall-clock; CPU time does
not include it.  Other tenants still slow execution itself, by up to
half, in bursts of a few seconds.  So a run repeats identical work
spread over its whole length, and each piece of that work counts at its
fastest repetition: a burst slows one repetition of a piece, seldom
every one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig, SurveyEngine
from repro.core import snapshot as snapshot_module
from repro.core.snapshot import load_results, results_to_dict, save_results
from repro.core.snapstore import EpochStore
from repro.core.timeline import run_churn_timeline, timeline_fingerprint
from repro.distrib.coordinator import LocalWorkerFleet
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

import readpass
from tracer import Tracer

#: The one world every workload surveys (7,286 names).  It does not vary
#: with ``--seed``: across generator seeds the per-name cost alone moves
#: names/s by ~10% and the snapshot size by ~4%, wider than any useful
#: bound.  The churn events are fixed too: over four event seeds the
#: median of a run's epochs spread 16% and the store size 3%.  ``--seed``
#: picks the survey order and the records the read passes look up.
WORLD = dict(seed=20040722, sld_count=4000, directory_name_count=7000,
             university_count=110, hosting_provider_count=32, isp_count=24,
             alexa_count=300)
POPULAR_COUNT = 300
#: ``dnssec`` is left out: its prepare() signs zones for ~18 s at this size.
PASSES = ("availability", "value")
CHURN_RATES = "transfer=1,death=0.5,upgrade=2,downgrade=0.5,region=1,dnssec=0"
CHURN_SEED = WORLD["seed"]
SOCKET_WORKERS = 2
#: record_for lookups in one churn read pass, spread evenly over the epochs.
READ_LOOKUPS = 4000
#: ``report`` runs after every survey.
REPORTS_PER_SURVEY = 3
#: ``--seconds`` per survey repetition and per churn epoch (one epoch in
#: each timeline plus a read pass).  Repetition and epoch counts are pure
#: functions of the arguments, so a seed's work, its timeline and the
#: timeline's fingerprint are fixed for a given run length.
SECONDS_PER_SURVEY = 6
SECONDS_PER_EPOCH = 3
MIN_SURVEYS = 3
MIN_EPOCHS = 4
#: A serial survey is timed in stretches of this many names.
CHUNK_NAMES = 250

TICKS_PER_S = os.sysconf("SC_CLK_TCK")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
READPASS = pathlib.Path(readpass.__file__).resolve()


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    names: int = 0
    servers: int = 0
    #: CPU seconds per sample; ``wall`` holds the same samples' wall-clock.
    setup_s: List[float] = dataclasses.field(default_factory=list)
    #: One full result set: a survey, or a churn epoch.
    op_s: List[float] = dataclasses.field(default_factory=list)
    #: Per repetition, the time of each piece of it: a survey's stretches
    #: of :data:`CHUNK_NAMES` names, or a timeline's epochs.
    pieces: List[List[float]] = dataclasses.field(default_factory=list)
    #: A report run (survey) or a read pass (churn).
    read_s: List[float] = dataclasses.field(default_factory=list)
    wall: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    store_bytes: List[int] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    epochs: int = 0
    #: Traced runs only: the tracer, the measured window's wall-clock
    #: (traced), and its CPU time traced and untraced.
    tracer: Optional[Tracer] = None
    window_wall_s: float = 0.0
    socket_window_wall_s: float = 0.0
    window_cpu_s: float = 0.0
    untraced_window_cpu_s: float = 0.0
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)

    def sample(self, name: str, cpu_s: float, wall_s: float) -> None:
        getattr(self, name).append(cpu_s)
        self.wall.setdefault(name, []).append(wall_s)

    def op_time_s(self) -> float:
        """Time of one full result set, each piece at its fastest.

        A survey is the sum of its stretches; churn takes the median
        epoch, since epochs differ from each other.
        """
        best = [min(piece) for piece in zip(*self.pieces)]
        return statistics.median(best) if self.epochs else sum(best)


# -- time -----------------------------------------------------------------------------


def worker_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live child process."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS_PER_S


@dataclasses.dataclass
class Stopwatch:
    """Critical-path CPU seconds, and wall-clock, since :meth:`start`.

    The critical path is this process's CPU time plus the busiest
    worker's: on an idle machine a sharded survey ends when its slowest
    worker and the coordinator's own work are done.  Workers started
    after :meth:`start` count from zero.  I/O waits (fsync) are not CPU
    time; the trace's ``core.atomic.commit_s`` shows them.
    """

    cpu: float
    wall: float
    workers: Dict[int, float]

    @classmethod
    def start(cls, pids: Sequence[int] = ()) -> "Stopwatch":
        return cls(time.process_time(), time.perf_counter(),
                   {pid: worker_cpu_s(pid) for pid in pids})

    def read(self, pids: Sequence[int] = ()) -> Tuple[float, float]:
        busiest = max((worker_cpu_s(pid) - self.workers.get(pid, 0.0)
                       for pid in pids), default=0.0)
        return (time.process_time() - self.cpu + busiest,
                time.perf_counter() - self.wall)


class ChunkClock:
    """A survey's critical-path CPU seconds, per :data:`CHUNK_NAMES` names.

    Passed as the serial engine's progress callback, it marks the end of
    every stretch; the last stretch runs to :meth:`stop`, so it takes in
    the aggregate's ``results()`` and the pass finalizers.  The socket
    backend reports progress per shard, once the workers are done, so a
    socket survey is a single stretch.
    """

    def __init__(self, pids: Sequence[int] = ()):
        self.pids = pids
        self.watch = Stopwatch.start(pids)
        self.marks = [0.0]

    def __call__(self, done: int, total: int) -> None:
        if done % CHUNK_NAMES == 0 and done != total:
            self.marks.append(self.watch.read()[0])

    def stop(self) -> Tuple[List[float], float, float]:
        """(stretch times, total CPU, total wall-clock)."""
        cpu, wall = self.watch.read(self.pids)
        marks = self.marks + [cpu]
        return [end - start for start, end in zip(marks, marks[1:])], cpu, wall


def settle() -> None:
    """Collect garbage before a timed window.

    A full collection walks the whole world (~0.4 s here), and where one
    lands depends on everything allocated before the window.  Starting
    every window from a collected heap makes the collections inside it a
    function of the window's own work, so identical work times alike.
    """
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_phase(tracer: Optional[Tracer], phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


# -- inputs ---------------------------------------------------------------------------


def generate_world():
    return InternetGenerator(GeneratorConfig(**WORLD)).generate()


def directory_names(world) -> list:
    return [entry.name for entry in world.directory.entries()]


def survey_order(world, seed: int) -> list:
    """The directory rotated to a seeded starting name.

    A rotation keeps neighbouring names (which share delegation chains)
    together, so every seed costs about the same as directory order.
    """
    names = directory_names(world)
    start = random.Random(f"order-{seed}").randrange(len(names))
    return names[start:] + names[:start]


def read_plan(names: Sequence, epochs: int, seed: int) -> List[List[str]]:
    """The names one read pass looks up, per epoch."""
    rng = random.Random(f"read-{seed}")
    per_epoch = max(1, READ_LOOKUPS // epochs)
    names = [str(name) for name in names]
    return [rng.sample(names, per_epoch) for _ in range(epochs)]


def survey_count(seconds: int) -> int:
    return max(MIN_SURVEYS, seconds // SECONDS_PER_SURVEY)


def churn_epochs(seconds: int) -> int:
    return max(MIN_EPOCHS, seconds // SECONDS_PER_EPOCH)


# -- correctness ----------------------------------------------------------------------


def canonical(results) -> tuple:
    """(sha256, per-record digests) of the results without metadata."""
    payload = results_to_dict(results)
    payload.pop("metadata")
    digest = hashlib.sha256()
    records = []
    for record in payload.pop("records"):
        text = json.dumps(record, sort_keys=True).encode("utf-8")
        digest.update(text)
        records.append(hashlib.blake2b(text, digest_size=8).digest())
    digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest(), records


def mismatched(candidate: tuple, reference: tuple) -> int:
    """Names whose records differ; every name if only aggregates differ."""
    if candidate[0] == reference[0]:
        return 0
    differing = sum(a != b for a, b in zip(candidate[1], reference[1]))
    differing += abs(len(candidate[1]) - len(reference[1]))
    return differing or len(candidate[1])


class Ledger:
    """Digests of earlier runs in this checkout, keyed by seed and shape.

    The first run of a key records its digest; every later run of the
    same key, in any process and on either survey backend, must match.
    """

    def __init__(self, path: pathlib.Path):
        self.path = path

    def _entries(self) -> dict:
        if self.path.exists():
            return json.loads(self.path.read_text())
        return {}

    def recorded(self, key: str, value):
        """The value first recorded under ``key`` (``value`` if new)."""
        entries = self._entries()
        if key in entries:
            return entries[key]
        entries[key] = value
        staged = self.path.with_name(f".{self.path.name}.{os.getpid()}")
        staged.write_text(json.dumps(entries, sort_keys=True))
        os.replace(staged, self.path)
        return value


# -- surveys --------------------------------------------------------------------------


@dataclasses.dataclass
class SurveyRep:
    """One set-up and survey: its results and its (CPU, wall) times."""

    world: object
    results: object
    canonical: tuple
    setup_s: Tuple[float, float]
    survey_s: Tuple[float, float]
    chunks: List[float]
    #: Queries the local network answered during the survey.
    queries: int
    wire: Dict[str, int]


def survey_rep(seed: int, socket: bool = False,
               tracer: Optional[Tracer] = None, phase: str = "") -> SurveyRep:
    """Set up and survey once; a socket fleet lives for one survey.

    Traced spans land in the phases ``{phase}setup`` and
    ``{phase}measure``.
    """
    _set_phase(tracer, phase + "setup")
    wire: Dict[str, int] = {}
    pids: List[int] = []
    with contextlib.ExitStack() as stack:
        watch = Stopwatch.start()
        world = generate_world()
        order = survey_order(world, seed)
        config = EngineConfig(popular_count=POPULAR_COUNT, passes=PASSES)
        if socket:
            fleet = stack.enter_context(LocalWorkerFleet(SOCKET_WORKERS))
            config.backend = "socket"
            config.worker_addrs = tuple(fleet.addresses)
            pids = [process.pid for process in fleet._processes]
        engine = stack.enter_context(SurveyEngine(world, config=config))
        if socket:
            # Connect and BUILD now: like the spawn, this is set-up.
            engine._ensure_coordinator()
            before = engine._coordinator.wire_stats()
        setup = watch.read(pids)

        _set_phase(tracer, phase + "measure")
        settle()
        queries = _network_queries(world)
        clock = ChunkClock(pids)
        results = engine.run(names=order,
                             progress=None if socket else clock)
        chunks, survey_cpu_s, survey_wall_s = clock.stop()
        queries = _network_queries(world) - queries
        if socket:
            after = engine._coordinator.wire_stats()
            wire = {key: after[key] - before[key]
                    for key in ("bytes_sent", "bytes_received")}
    _set_phase(tracer, "check")
    return SurveyRep(world=world, results=results,
                     canonical=canonical(results), setup_s=setup,
                     survey_s=(survey_cpu_s, survey_wall_s), chunks=chunks,
                     queries=queries, wire=wire)


def save_snapshot(rep: SurveyRep, work: pathlib.Path,
                  outcome: Outcome) -> pathlib.Path:
    """Save the results as ``survey --output --format binary`` does.

    Loading the file back must give the surveyed results, or every name
    fails.
    """
    path = work / "survey.rsnap"
    save_results(rep.results, path, format="binary")
    outcome.store_bytes.append(path.stat().st_size)
    outcome.fail(mismatched(canonical(load_results(path)), rep.canonical),
                 "the saved snapshot differs from the surveyed results")
    return path


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reports(path: pathlib.Path, outcome: Outcome, printed: list) -> None:
    """:data:`REPORTS_PER_SURVEY` timed runs of ``repro-dns report``.

    Each runs in a process of its own, as a user runs it, so it starts
    from the same state whatever the benchmark process did before; in
    this process the time of a report moved by up to 45% with the heap left by
    the survey before it.  The time is the child's CPU time, interpreter
    start included.  What each run printed goes to ``printed``.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    for _ in range(REPORTS_PER_SURVEY):
        before, started = children_cpu_s(), time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-m", "repro.cli", "report", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        outcome.sample("read_s", children_cpu_s() - before,
                       time.perf_counter() - started)
        printed.append((child.returncode, child.stdout))


def cold_workload(seed: int, seconds: int, trace: bool, work: pathlib.Path,
                  ledger: Ledger) -> Outcome:
    """Survey :func:`survey_count` times, reporting after each survey.

    A traced run surveys twice, untraced (the overhead baseline) and
    traced, then once traced on the socket backend.  The trace does not
    see the report processes, so its window is the survey.
    """
    outcome = Outcome()
    count = 2 if trace else survey_count(seconds)
    printed: list = []
    reference = snapshot = None
    for index in range(count):
        tracer = Tracer() if trace and index == count - 1 else None
        with tracer or contextlib.nullcontext():
            rep = survey_rep(seed, tracer=tracer)
            outcome.sample("setup_s", *rep.setup_s)
            outcome.sample("op_s", *rep.survey_s)
            outcome.pieces.append(rep.chunks)
            if reference is None:
                reference = rep.canonical
                snapshot = save_snapshot(rep, work, outcome)
            outcome.fail(mismatched(rep.canonical, reference),
                         "survey results differ from the first survey")
            outcome.attempted += len(rep.canonical[1])
            outcome.names = len(rep.results.records)
            outcome.servers = rep.world.server_count()
            rep.world = rep.results = None  # one world alive at a time
        reports(snapshot, outcome, printed)
        if tracer is not None:
            outcome.tracer = tracer
            outcome.untraced_window_cpu_s = outcome.op_s[0]
            outcome.window_cpu_s, outcome.window_wall_s = rep.survey_s
    outcome.attempted += len(printed)
    outcome.fail(sum(result != (0, printed[0][1]) for result in printed),
                 "report exited non-zero or printed differently")
    if trace:
        socket_layer(seed, outcome, reference, rep.queries)
    outcome.peak_rss_mb = peak_rss_mb()

    key = f"survey/{seed}/{outcome.names}"
    if ledger.recorded(key, reference[0]) != reference[0]:
        outcome.fail(outcome.names * count,
                     "survey digest differs from an earlier run of this "
                     "seed")
    return outcome


def _network_queries(world) -> int:
    stats = world.network.stats
    return stats.queries_delivered + stats.queries_failed


def socket_layer(seed: int, outcome: Outcome, reference: tuple,
                 serial_queries: int) -> None:
    """Survey once, traced, on the socket backend; then measure how much
    discovery the workers duplicate.

    The socket results must equal the serial ones, record for record.
    ``distrib.rediscovery_ratio`` is the query count of surveying each
    worker's stripe on its own fresh serial engine, over the count for
    one serial survey of the whole directory.
    """
    with outcome.tracer:
        rep = survey_rep(seed, socket=True, tracer=outcome.tracer,
                         phase="socket.")
    outcome.fail(mismatched(rep.canonical, reference),
                 "socket survey results differ from the serial survey")
    outcome.attempted += len(rep.canonical[1])
    outcome.socket_window_wall_s = rep.survey_s[1]
    for key in ("bytes_sent", "bytes_received"):
        outcome.layer[f"distrib.{key}"] = rep.wire.get(key, 0)
    rep = None

    world = generate_world()
    order = survey_order(world, seed)
    config = EngineConfig(popular_count=POPULAR_COUNT, passes=PASSES)
    before = _network_queries(world)
    for offset in range(SOCKET_WORKERS):
        SurveyEngine(world, config=config).run(
            names=order[offset::SOCKET_WORKERS])
    outcome.layer["distrib.rediscovery_ratio"] = (
        (_network_queries(world) - before) / serial_queries)


# -- churn ----------------------------------------------------------------------------


class RecordingStore(EpochStore):
    """An epoch store that keeps in hand what the read passes check.

    That is each epoch's records for the names the read plan looks up,
    plus the first and last epochs' results until :meth:`seal`, and
    nothing else, so the benchmark's own bookkeeping barely moves peak
    RSS.  Sealing writes the plan to ``plan_path`` for :mod:`readpass`.
    """

    def __init__(self, root: pathlib.Path, plan: List[List[str]]):
        super().__init__(root)
        self.plan = plan
        self.plan_path = root.with_name(f"{root.name}-plan.json")
        self.expected: List[list] = []
        self.first = self.last = None
        self.changed = None

    def append(self, results, previous=None, dirty=None):
        names = self.plan[len(self.expected)]
        self.expected.append([results.record_for(name) for name in names])
        if self.first is None:
            self.first = results
        self.last = results
        return super().append(results, previous=previous, dirty=dirty)

    def seal(self, outcome: Outcome) -> None:
        """Check the finished store, then keep digests of what it held.

        The last epoch loaded from the store must equal the in-memory
        results, and :meth:`EpochStore.verify` must be clean.
        """
        epochs = len(self.expected) - 1
        outcome.attempted += epochs + 1
        loaded = json.dumps(results_to_dict(self.load_epoch(epochs)),
                            sort_keys=True)
        held = json.dumps(results_to_dict(self.last), sort_keys=True)
        outcome.fail(int(loaded != held),
                     "the last stored epoch differs from the in-memory "
                     "results")
        report = self.verify()
        outcome.fail(len({problem.epoch for problem in report.problems}),
                     f"EpochStore.verify: {report.classification}")
        self.changed = snapshot_module.diff_results(self.first,
                                                    self.last).changed
        self.expected = [readpass.digests(records)
                         for records in self.expected]
        self.first = self.last = None
        self.plan_path.write_text(json.dumps(self.plan))


def timed_read_pass(store: RecordingStore, outcome: Outcome,
                    traced: bool) -> None:
    """One read pass (:mod:`readpass`) over a sealed store, then its
    checks.

    Untraced, the pass runs in a process of its own, which times it: in
    this process the passes of one run spread from 0.55 to 0.82 s.
    Traced, it runs here, where the tracer sees it.  Each lookup, and the diff, is one operation; it fails
    if it raises or differs from the in-memory results.
    """
    if traced:
        settle()
        watch = Stopwatch.start()
        found, changed = readpass.read_pass(store, store.plan)
        outcome.sample("read_s", *watch.read())
        records = readpass.digests(found)
    else:
        child = subprocess.run(
            [sys.executable, str(READPASS), str(store.root),
             str(store.plan_path)],
            capture_output=True, text=True, timeout=120)
        if child.returncode:
            raise RuntimeError(f"read pass exited {child.returncode}: "
                               f"{child.stderr[-2000:]}")
        result = json.loads(child.stdout.splitlines()[-1])
        outcome.sample("read_s", result["cpu_s"], result["wall_s"])
        records, changed = result["records"], result["changed"]

    expected = [digest for epoch in store.expected for digest in epoch]
    outcome.attempted += len(expected) + 1
    outcome.fail(sum(a != b for a, b in zip(records, expected))
                 + abs(len(records) - len(expected)),
                 "record_for returned a record that differs from the "
                 "in-memory results")
    outcome.fail(int(changed != store.changed),
                 "diff over the lazy views differs from the in-memory diff")


def _row_hashes(timeline) -> List[str]:
    """One digest per epoch row, wall-clock fields zeroed."""
    hashes = []
    for snapshot in timeline.snapshots:
        row = snapshot.to_dict()
        row["delta_elapsed_s"] = 0.0
        row["cold_elapsed_s"] = None
        hashes.append(hashlib.sha256(json.dumps(
            row, sort_keys=True).encode("utf-8")).hexdigest())
    return hashes


def churn_timeline(seed: int, epochs: int, work: pathlib.Path,
                   outcome: Outcome, reads: Optional[RecordingStore] = None,
                   tracer: Optional[Tracer] = None) -> tuple:
    """One timeline: set-up and epoch 0, then ``epochs`` epochs.

    Epoch e is timed from the end of epoch e-1's ``progress`` call to its
    own: advance, ``run_delta``, reduce, durable append.  With ``reads``,
    every ``progress`` call also runs a read pass over that store, outside
    the epoch times.  Returns (timeline, sealed store, epoch walls).
    """
    _set_phase(tracer, "setup")
    pieces: List[float] = []
    walls: List[float] = []
    watches = [Stopwatch.start()]

    def progress(epoch, snapshot):
        cpu, wall = watches[-1].read()
        if epoch:
            outcome.sample("op_s", cpu, wall)
            pieces.append(cpu)
            walls.append(wall)
        else:
            outcome.sample("setup_s", cpu, wall)
        _set_phase(tracer, "measure")
        if reads is not None:
            timed_read_pass(reads, outcome, traced=tracer is not None)
        settle()
        watches.append(Stopwatch.start())

    world = generate_world()
    store = RecordingStore(work / f"churn-{len(outcome.pieces)}",
                           read_plan(directory_names(world), epochs + 1,
                                     seed))
    model = ChurnModel(world, ChurnRates.parse(CHURN_RATES), seed=CHURN_SEED)
    timeline = run_churn_timeline(world, model, epochs=epochs,
                                  passes=list(PASSES),
                                  popular_count=POPULAR_COUNT, store=store,
                                  progress=progress)
    _set_phase(tracer, "check")
    outcome.pieces.append(pieces)
    outcome.store_bytes.append(store.total_bytes())
    outcome.names = len(store.last.records)
    outcome.servers = world.server_count()
    store.seal(outcome)
    return timeline, store, walls


def churn_workload(seed: int, seconds: int, trace: bool, work: pathlib.Path,
                   ledger: Ledger) -> Outcome:
    """Two timelines of :func:`churn_epochs` epochs; while the second
    writes, read passes run over the first one's store.

    A traced run traces the second timeline; the first is the overhead
    baseline.
    """
    outcome = Outcome()
    epochs = outcome.epochs = churn_epochs(seconds)
    first, store, _ = churn_timeline(seed, epochs, work, outcome)
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        second, _, walls = churn_timeline(seed, epochs, work, outcome,
                                          reads=store, tracer=tracer)
    if trace:
        outcome.tracer = tracer
        outcome.untraced_window_cpu_s = sum(outcome.pieces[0])
        outcome.window_cpu_s = sum(outcome.pieces[1])
        outcome.window_wall_s = sum(walls) + sum(outcome.wall["read_s"])
    outcome.peak_rss_mb = peak_rss_mb()

    # A seed's timeline must not change between runs: in this process and
    # in every earlier run of this seed and length in the checkout.
    recorded = ledger.recorded(
        f"churn/{seed}/{outcome.names}/{epochs}",
        {"fingerprint": timeline_fingerprint(first),
         "rows": _row_hashes(first)})
    for timeline in (first, second):
        rows = _row_hashes(timeline)
        differing = sum(a != b for a, b in zip(rows, recorded["rows"]))
        if not differing and \
                timeline_fingerprint(timeline) != recorded["fingerprint"]:
            differing = 1
        outcome.fail(differing, "timeline differs from an earlier run of "
                                "this seed")
    return outcome


def run(workload: str, seed: int, seconds: int, trace: bool,
        work: pathlib.Path, ledger: Ledger) -> Outcome:
    if workload == "churn_store":
        return churn_workload(seed, seconds, trace, work, ledger)
    return cold_workload(seed, seconds, trace, work, ledger)
