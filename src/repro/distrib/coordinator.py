"""The shard coordinator: drives N socket workers and folds their columns.

:class:`ShardCoordinator` owns one TCP connection per worker.  On
creation it ships a BUILD frame describing the world (the seeded
``GeneratorConfig``) and the engine options, so each worker regenerates
the identical synthetic Internet and holds a warm serial engine.  Each
:meth:`run_shards` call stripes the indexed entries with
:func:`~repro.core.engine.stripes`, ships one ``KIND_ORDER`` frame per
shard in parallel, then folds the returned ``KIND_SHARD`` columns **in
shard order** through the engine's fold
(:meth:`~repro.core.engine.SurveyEngine.fold_shard`), so the merged
:class:`~repro.core.survey.SurveyResults` is byte-identical to the
serial backend's.

Delta runs compose through :meth:`sync_journal`: the coordinator keeps
the full mutation-spec history (one spec per journal event, via
``ChangeEvent.to_spec()``) and every work order carries it; workers
apply only the tail they have not seen.  The epoch's complete dirty-name
set rides along so every worker invalidates its warm state for *all*
dirty names, not just the ones striped onto it this epoch.

**Failure handling is one path with a retry budget.**  Startup
(connect, auth, BUILD, PING) and every survey share one parallel
fan-out that aborts everything on the first error, closing every
connection so no thread stays blocked on a slower worker; no partial
results are ever folded into the caller's aggregator.  With the default
``RetryPolicy()`` (``retries=0``, a zero budget) a worker's first
failure — connect refusal, timeout, truncated or corrupt frame, an
ERROR frame carrying the worker's exception — is raised as it is,
naming the worker and cause.  With ``retries > 0`` it *recovers*:

* A transient failure (wire error, connection loss, or a worker ERROR
  flagged ``retryable``) drops the connection and retries the exchange
  after an exponential backoff with seed-deterministic jitter.  Every
  reconnect re-ships BUILD — a worker restart is indistinguishable from
  a dropped connection, and re-building is always safe because the next
  work order carries the full spec history the fresh worker replays.
* A worker that exhausts its retry budget is marked **dead** and its
  shard is *reassigned* to a surviving worker.  Striping is computed
  from the configured worker count and never changes, and the fold
  stays in shard order, so reassignment preserves byte-identity with
  the serial backend.
* The run degrades down to a ``min_workers`` floor; below it, the run
  aborts with a precise error naming each dead worker and its last
  failure.
* Everything the recovery machinery did is tallied in a structured
  :class:`FaultReport` (retries, rebuilds, reassignments, dead workers,
  recovery seconds) surfaced through :meth:`wire_stats` and the survey
  metadata.

Non-retryable worker errors (a deterministic handler failure, an auth
rejection) abort immediately whatever the budget — retrying would only
repeat them.  When an ``auth_token`` is set, every connection starts
with an HMAC HELLO handshake before any other frame (see
:mod:`repro.distrib.wire`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
import random
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import stripes
from repro.core.snapstore import SnapshotFormatError, unpack_shard_result
from repro.distrib.wire import (ENV_AUTH_TOKEN, FRAME_BUILD, FRAME_ERROR,
                                FRAME_HEADER_SIZE, FRAME_HELLO, FRAME_NAMES,
                                FRAME_OK, FRAME_PING, FRAME_RESULT,
                                FRAME_SHUTDOWN, FRAME_SURVEY, DistribError,
                                WireError, decode_error, hello_payload,
                                pack_work_order, parse_address, recv_frame,
                                send_frame)


class WorkerUnreachable(DistribError):
    """A worker connection could not be established."""


class WorkerReportedError(DistribError):
    """The worker answered with an ERROR frame (message + retryable flag)."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class WorkerLostError(DistribError):
    """A worker exhausted its retry budget and was declared dead."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How the coordinator responds to transient worker failures.

    ``retries`` is the per-incident budget: how many times one exchange
    may be re-attempted (reconnecting and re-building as needed) before
    the worker is declared dead and its shard reassigned.  ``retries=0``
    is a zero budget: a worker's first failure aborts the whole run.

    Backoff before the k-th retry is ``min(backoff_max, backoff_base *
    2**k)`` scaled by a jitter factor in [0.5, 1.0) drawn from a RNG
    seeded with ``(seed, worker label, k)`` — deterministic per plan, so
    chaos tests replay identically, but decorrelated across workers.
    """

    retries: int = 0
    backoff_base: float = 0.25
    backoff_max: float = 8.0
    seed: int = 0

    def backoff(self, label: str, attempt: int) -> float:
        cap = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        jitter = random.Random(f"{self.seed}:{label}:{attempt}").random()
        return cap * (0.5 + 0.5 * jitter)


@dataclasses.dataclass
class FaultReport:
    """What the recovery machinery did during one coordinator lifetime."""

    retries: int = 0
    rebuilds: int = 0
    reassignments: int = 0
    dead_workers: List[str] = dataclasses.field(default_factory=list)
    recovery_seconds: float = 0.0
    #: Each dead worker's last failure, for the floor errors only; kept
    #: out of :meth:`to_dict`, whose keys the snapshot metadata carries.
    causes: Dict[str, str] = dataclasses.field(default_factory=dict)

    def any(self) -> bool:
        return bool(self.retries or self.rebuilds or self.reassignments
                    or self.dead_workers)

    def to_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "reassignments": self.reassignments,
            "dead_workers": list(self.dead_workers),
            "recovery_seconds": round(self.recovery_seconds, 3),
        }

    def dead_summary(self) -> str:
        """Each dead worker beside the failure that killed it."""
        return ", ".join(f"{label} ({self.causes[label]})"
                         for label in self.dead_workers)


class ShardCoordinator:
    """Connect to workers, build their worlds, and run sharded surveys."""

    def __init__(self, engine, worker_addrs: Sequence[str],
                 connect_timeout: float = 10.0,
                 response_timeout: float = 600.0,
                 build_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 min_workers: int = 1,
                 auth_token: Optional[str] = None):
        if not worker_addrs:
            raise DistribError("socket backend needs at least one worker "
                               "address (host:port)")
        generator_config = getattr(engine.internet, "config", None)
        if generator_config is None:
            raise DistribError(
                "socket backend needs a generator-built internet: workers "
                "reproduce the world from internet.config, which this "
                "internet does not carry")
        self._engine = engine
        self._labels = [str(address) for address in worker_addrs]
        self._connect_timeout = connect_timeout
        self._response_timeout = response_timeout
        #: BUILD (world regeneration) can take far longer than a survey
        #: reply; None means "same as response_timeout".
        self._build_timeout = (response_timeout if build_timeout is None
                               else build_timeout)
        self.policy = retry_policy or RetryPolicy()
        if min_workers < 1:
            min_workers = 1
        if min_workers > len(self._labels):
            raise DistribError(
                f"--min-workers {min_workers} exceeds the "
                f"{len(self._labels)} configured workers")
        self._min_workers = min_workers
        self._auth_token = auth_token
        self._sockets: List[Optional[socket.socket]] = \
            [None] * len(self._labels)
        self._alive = [True] * len(self._labels)
        self._built_once = [False] * len(self._labels)
        self._worker_locks = [threading.Lock() for _ in self._labels]
        self._state_lock = threading.Lock()
        self.fault_report = FaultReport()
        self.shutdown_report: List[Dict[str, str]] = []
        self.bytes_sent = [0] * len(self._labels)
        self.bytes_received = [0] * len(self._labels)
        #: Full mutation-spec history; every work order carries it all.
        self._specs: List[str] = []
        #: (journal, events-consumed) pairs, keyed by journal identity.
        self._journals: List[Tuple[object, int]] = []
        self._closed = False

        self._build = json.dumps({
            "generator": dataclasses.asdict(generator_config),
            "engine": {
                "popular_count": engine.config.popular_count,
                "include_bottleneck": engine.config.include_bottleneck,
                "passes": self._pass_specs(engine),
            },
        }, sort_keys=True).encode("utf-8")
        self._prepare_workers()

    @staticmethod
    def _pass_specs(engine) -> List[str]:
        """Spec strings reconstructing this engine's passes on a worker."""
        specs = []
        for pass_ in engine.passes:
            try:
                specs.append(pass_.spec())
            except NotImplementedError as error:
                raise DistribError(
                    f"pass {pass_.name!r} cannot run on the socket backend: "
                    f"{error}") from error
        return specs

    # -- connections & readiness ---------------------------------------------------------

    def _connect(self, position: int) -> None:
        """Establish (and, with a token, authenticate) one connection."""
        label = self._labels[position]
        host, port = parse_address(label)
        try:
            connection = socket.create_connection(
                (host, port), timeout=self._connect_timeout)
        except OSError as error:
            raise WorkerUnreachable(
                f"cannot connect to worker {label}: {error}") from error
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sockets[position] = connection
        if self._auth_token is not None:
            try:
                self._exchange(position, FRAME_HELLO,
                               hello_payload(self._auth_token), FRAME_OK,
                               self._connect_timeout + 10.0)
            except BaseException:
                self._drop(position)
                raise

    def _drop(self, position: int) -> None:
        """Close one connection (it will be re-established on demand)."""
        connection = self._sockets[position]
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
            self._sockets[position] = None

    def _ensure_ready(self, position: int) -> None:
        """Reconnect-and-rebuild a worker whose connection is down.

        A fresh connection always gets a fresh BUILD: a restarted worker
        is indistinguishable from a dropped connection, and re-building
        a live one is safe — the next work order carries the full spec
        history, which the rebuilt worker replays from scratch.  A closed
        coordinator never reconnects.
        """
        if self._closed:
            raise DistribError("coordinator already closed")
        if self._sockets[position] is not None:
            return
        self._connect(position)
        try:
            self._exchange(position, FRAME_BUILD, self._build, FRAME_OK,
                           self._build_timeout)
        except BaseException:
            self._drop(position)
            raise
        with self._state_lock:
            if self._built_once[position]:
                self.fault_report.rebuilds += 1
            else:
                self._built_once[position] = True

    def _mark_dead(self, position: int, reason: str) -> None:
        self._drop(position)
        with self._state_lock:
            if self._alive[position]:
                self._alive[position] = False
                self.fault_report.dead_workers.append(self._labels[position])
                self.fault_report.causes[self._labels[position]] = reason

    def _alive_positions(self) -> List[int]:
        with self._state_lock:
            return [position for position, alive in enumerate(self._alive)
                    if alive]

    # -- request plumbing ----------------------------------------------------------------

    def _exchange(self, position: int, frame_type: int, payload: bytes,
                  expect: int, timeout: float) -> bytes:
        """One raw frame exchange with worker ``position``."""
        connection = self._sockets[position]
        label = self._labels[position]
        if connection is None:
            raise DistribError(f"worker {label}: connection already closed")
        self.bytes_sent[position] += send_frame(connection, frame_type,
                                                payload)
        reply_type, reply = recv_frame(connection, timeout=timeout,
                                       peer=f"worker {label}")
        self.bytes_received[position] += FRAME_HEADER_SIZE + len(reply)
        if reply_type == FRAME_ERROR:
            info = decode_error(reply, label)
            raise WorkerReportedError(
                f"worker {label} failed: {info.message}",
                retryable=info.retryable)
        if reply_type != expect:
            raise WireError(
                f"worker {label}: expected {FRAME_NAMES[expect]} frame, "
                f"got {FRAME_NAMES[reply_type]}")
        return reply

    def _exchange_with_retry(self, position: int, frame_type: int,
                             payload: bytes, expect: int,
                             timeout: float) -> bytes:
        """Exchange with reconnect/rebuild retries per the policy.

        With a zero budget the first failure propagates as it is.
        Otherwise :class:`WorkerLostError` is raised (after marking the
        worker dead) once the budget is exhausted.  Non-retryable worker
        errors and auth rejections always propagate immediately.
        """
        label = self._labels[position]
        attempt = 0
        recovery_start: Optional[float] = None
        while True:
            try:
                with self._worker_locks[position]:
                    self._ensure_ready(position)
                    reply = self._exchange(position, frame_type, payload,
                                           expect, timeout)
                if recovery_start is not None:
                    with self._state_lock:
                        self.fault_report.recovery_seconds += \
                            time.monotonic() - recovery_start
                return reply
            except WorkerReportedError as error:
                if not error.retryable:
                    raise
                failure: Exception = error
                self._drop(position)
            except (WireError, WorkerUnreachable, OSError) as error:
                failure = error
                self._drop(position)
            if not self.policy.retries:
                raise failure
            if recovery_start is None:
                recovery_start = time.monotonic()
            if attempt >= self.policy.retries:
                self._mark_dead(position, str(failure))
                with self._state_lock:
                    self.fault_report.recovery_seconds += \
                        time.monotonic() - recovery_start
                raise WorkerLostError(
                    f"worker {label} lost after {attempt} retries: "
                    f"{failure}") from failure
            with self._state_lock:
                self.fault_report.retries += 1
            time.sleep(self.policy.backoff(label, attempt))
            attempt += 1

    def _fan_out(self, task: Callable[[int], object],
                 labels: Sequence[str]) -> List:
        """Run ``task(k)`` for every ``labels[k]`` in parallel.

        The first error aborts everything: closing every socket unblocks
        threads still waiting on slower workers.  A task that returns
        None without raising aborts too — compacting the replies would
        fold shard k's columns at position j.
        """
        results: List[object] = [None] * len(labels)
        first_error: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=len(labels)) as pool:
            futures = {pool.submit(task, index): index
                       for index in range(len(labels))}
            for future in as_completed(futures):
                try:
                    results[futures[future]] = future.result()
                except BaseException as error:
                    if first_error is None:
                        first_error = error
                        self._abort()
        if first_error is not None:
            if isinstance(first_error, DistribError):
                raise first_error
            raise DistribError(f"worker exchange failed: "
                               f"{first_error}") from first_error
        for index, result in enumerate(results):
            if result is None:
                self._abort()
                raise DistribError(
                    f"{labels[index]} produced neither a reply nor an "
                    f"error; aborting before the shard fold can misalign")
        return results

    def _prepare_workers(self) -> None:
        """Connect, authenticate, BUILD and PING every worker.

        The PING after BUILD doubles as the first heartbeat.  With a
        retry budget, a worker that stays unreachable is marked dead
        here and its shards are reassigned from the first epoch; the
        run only aborts if the floor is broken.
        """
        self._fan_out(self._prepare_worker,
                      [f"worker {label}" for label in self._labels])
        alive = self._alive_positions()
        if len(alive) < self._min_workers:
            self._abort()
            raise DistribError(
                f"only {len(alive)} of {len(self._labels)} workers "
                f"reachable, below the min-workers floor "
                f"{self._min_workers} "
                f"(dead: {self.fault_report.dead_summary()})")

    def _prepare_worker(self, position: int) -> bool:
        """Ready one worker; False if it was lost (the caller checks)."""
        try:
            self._exchange_with_retry(position, FRAME_PING, b"", FRAME_OK,
                                      self._response_timeout)
        except WorkerLostError:
            return False
        return True

    # -- delta composition ---------------------------------------------------------------

    def sync_journal(self, journal) -> None:
        """Extend the spec history with a journal's unseen events."""
        events = getattr(journal, "events", None)
        if events is None:
            raise DistribError(
                "the socket backend needs the ChangeJournal itself (its "
                "events become wire specs); a pre-folded ChangeSet cannot "
                "be shipped to workers")
        for position, (seen, consumed) in enumerate(self._journals):
            if seen is journal:
                fresh = events[consumed:]
                self._journals[position] = (journal, len(events))
                break
        else:
            fresh = list(events)
            self._journals.append((journal, len(events)))
        self._specs.extend(event.to_spec() for event in fresh)

    # -- the sharded survey --------------------------------------------------------------

    def _assign(self, shard_index: int) -> int:
        """The worker a shard runs on, honouring deaths and the floor.

        Striping itself never changes — a dead worker's shard keeps its
        shard index (and thus its fold position) and is merely *served*
        by a surviving worker, so the merged columns stay byte-identical
        to the serial backend's.
        """
        alive = self._alive_positions()
        if len(alive) < self._min_workers or not alive:
            raise DistribError(
                f"only {len(alive)} of {len(self._labels)} workers still "
                f"alive, below the min-workers floor {self._min_workers} "
                f"(dead: {self.fault_report.dead_summary()})")
        if self._alive[shard_index]:
            return shard_index
        return alive[shard_index % len(alive)]

    def _run_order(self, shard_index: int, order: bytes) -> bytes:
        """Run one shard to completion, reassigning across dead workers."""
        while True:
            position = self._assign(shard_index)
            try:
                return self._exchange_with_retry(
                    position, FRAME_SURVEY, order, FRAME_RESULT,
                    self._response_timeout)
            except WorkerLostError:
                with self._state_lock:
                    self.fault_report.reassignments += 1
                # Loop: _assign picks a survivor (or raises at the floor).

    def _broadcast(self, orders: Sequence[bytes]) -> List[bytes]:
        """Run every shard's order in parallel; block until each reply."""
        return self._fan_out(
            lambda shard_index: self._run_order(shard_index,
                                                orders[shard_index]),
            [f"shard {index}" for index in range(len(orders))])

    def run_shards(self, indexed, popular, aggregator,
                   dirty: Sequence = ()) -> None:
        """Survey ``indexed`` entries across the workers and fold results.

        Stripes as ``survey --shard`` does and folds as ``merge`` does, so
        results are byte-identical to the serial engine over the same
        (possibly delta-invalidated) world.
        """
        if self._closed:
            raise DistribError("coordinator already closed")
        shards = stripes(indexed, len(self._labels))
        dirty_names = sorted(str(name) for name in dirty)
        orders = []
        for shard in shards:
            orders.append(pack_work_order(
                [index for index, _entry in shard],
                [str(entry.name) for _index, entry in shard],
                [entry.name in popular for _index, entry in shard],
                self._specs, dirty_names))
        for position, payload in enumerate(self._broadcast(orders)):
            label = self._labels[position]
            try:
                shard = unpack_shard_result(
                    payload, label=f"worker {label} result")
            except SnapshotFormatError as error:
                self._abort()
                raise DistribError(
                    f"worker {label} returned an undecodable shard: "
                    f"{error}") from error
            self._engine.fold_shard(aggregator, shard)

    # -- wire accounting / lifecycle -----------------------------------------------------

    def wire_stats(self) -> Dict[str, object]:
        """Bytes on the wire, total and per worker (for benchmarks)."""
        stats: Dict[str, object] = {
            "workers": len(self._labels),
            "bytes_sent": sum(self.bytes_sent),
            "bytes_received": sum(self.bytes_received),
            "per_worker": [
                {"worker": label, "sent": sent, "received": received}
                for label, sent, received in zip(
                    self._labels, self.bytes_sent, self.bytes_received)],
        }
        if self.fault_report.any():
            stats["fault_report"] = self.fault_report.to_dict()
        return stats

    def _abort(self) -> None:
        """Hard-close every connection (failure path)."""
        self._closed = True
        for position in range(len(self._sockets)):
            self._drop(position)

    def close(self) -> None:
        """Politely shut workers down, then close the connections.

        Per-worker outcomes land in :attr:`shutdown_report` (a polite
        shutdown never raises): ``clean`` for an acked SHUTDOWN,
        ``dead`` for a worker already declared dead, ``unreachable``
        when the connection was already gone, and ``error`` with the
        failure detail when the SHUTDOWN exchange itself failed.
        """
        if self._closed:
            return
        self._closed = True
        report: List[Dict[str, str]] = []
        for position, connection in enumerate(self._sockets):
            label = self._labels[position]
            if not self._alive[position]:
                report.append({"worker": label, "status": "dead"})
                self._drop(position)
                continue
            if connection is None:
                report.append({"worker": label, "status": "unreachable"})
                continue
            try:
                send_frame(connection, FRAME_SHUTDOWN)
                recv_frame(connection, timeout=2.0, peer=f"worker {label}")
                report.append({"worker": label, "status": "clean"})
            except (WireError, OSError) as error:
                report.append({"worker": label, "status": "error",
                               "detail": str(error)})
            self._drop(position)
        self.shutdown_report = report

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalWorkerFleet:
    """Spawn N ``repro-dns worker`` subprocesses on loopback ports.

    The CLI's ``--backend socket --workers N`` convenience (and the tests
    and benchmarks) use this to simulate multi-host locally: each worker
    is a separate OS process with its own interpreter, world copy, and
    socket — exactly what a remote host would run, minus the network.

    Chaos support: ``fault_plans`` maps a worker index to a
    :class:`~repro.distrib.faults.FaultPlan` spec string, exported to
    that one subprocess via ``REPRO_FAULT_PLAN`` so injected failures
    are real multi-process failures.  :meth:`kill` hard-kills a worker
    (keeping its address) and :meth:`respawn` restarts one on the same
    port, which is how rejoin tests exercise the coordinator's
    reconnect-and-rebuild path.
    """

    def __init__(self, count: int, auth_token: Optional[str] = None,
                 fault_plans: Optional[Dict[int, str]] = None,
                 startup_timeout: float = 30.0):
        if count < 1:
            raise DistribError("worker fleet needs at least one worker")
        self.count = count
        self.auth_token = auth_token
        self.fault_plans = dict(fault_plans or {})
        self.startup_timeout = startup_timeout
        self.addresses: List[str] = []
        self._processes: List[Optional[subprocess.Popen]] = []

    def _environment(self, index: int) -> Dict[str, str]:
        import repro
        source_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        environment = dict(os.environ)
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = source_root + (
            os.pathsep + existing if existing else "")
        if self.auth_token is not None:
            environment[ENV_AUTH_TOKEN] = self.auth_token
        plan = self.fault_plans.get(index)
        if plan:
            environment["REPRO_FAULT_PLAN"] = str(plan)
        else:
            environment.pop("REPRO_FAULT_PLAN", None)
        return environment

    def _spawn(self, index: int, address: str) -> subprocess.Popen:
        # --parent-pid: if this coordinator dies without stop() (SIGKILL,
        # crash-matrix fault injection), the workers notice the reparent
        # and exit instead of leaking as orphan listeners.
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", address, "--parent-pid", str(os.getpid())],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self._environment(index))

    def _await_ready(self, process: subprocess.Popen, index: int) -> str:
        """Read the ``listening on host:port`` handshake with a timeout."""
        deadline = time.monotonic() + self.startup_timeout
        line = ""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise DistribError(
                    f"worker {index} did not report a listen address "
                    f"within {self.startup_timeout:g}s of starting "
                    f"(no startup line on stdout)")
            ready, _, _ = select.select([process.stdout], [], [],
                                        min(remaining, 0.25))
            if ready:
                line = process.stdout.readline().decode(
                    "utf-8", "replace").strip()
                break
            if process.poll() is not None:
                break  # died before printing; fall through for stderr
        prefix = "listening on "
        if not line.startswith(prefix):
            # stdout EOF can beat the exit status by a beat; wait so the
            # error below can carry the dying worker's stderr.
            try:
                process.wait(timeout=2)
            except subprocess.TimeoutExpired:
                pass
            stderr = b""
            if process.poll() is not None and process.stderr:
                stderr = process.stderr.read() or b""
            self.stop()
            detail = stderr.decode("utf-8", "replace").strip()
            raise DistribError(
                f"worker {index} process failed to start "
                f"(got {line!r}){': ' + detail if detail else ''}")
        return line[len(prefix):]

    def start(self) -> List[str]:
        for index in range(self.count):
            self._processes.append(self._spawn(index, "127.0.0.1:0"))
        for index, process in enumerate(self._processes):
            self.addresses.append(self._await_ready(process, index))
        return list(self.addresses)

    def kill(self, index: int) -> None:
        """Hard-kill one worker (its address stays claimable by respawn)."""
        process = self._processes[index]
        if process is None:
            return
        if process.poll() is None:
            process.kill()
            process.wait()
        self._reap(process)
        self._processes[index] = None

    def respawn(self, index: int,
                fault_plan: Optional[str] = None) -> str:
        """Restart worker ``index`` on its original port.

        The worker binds with SO_REUSEADDR, so the freed port can be
        reclaimed immediately; the coordinator's reconnect path then
        finds a fresh (empty) worker at the same address and re-BUILDs
        it.  A new ``fault_plan`` (or None to clear the old one) arms
        the replacement process.
        """
        self.kill(index)
        self.fault_plans[index] = fault_plan
        if not fault_plan:
            self.fault_plans.pop(index, None)
        process = self._spawn(index, self.addresses[index])
        self._processes[index] = process
        self.addresses[index] = self._await_ready(process, index)
        return self.addresses[index]

    @staticmethod
    def _reap(process: subprocess.Popen) -> None:
        for stream in (process.stdout, process.stderr):
            if stream is not None:
                stream.close()

    def stop(self) -> None:
        for process in self._processes:
            if process is not None and process.poll() is None:
                process.terminate()
        for process in self._processes:
            if process is None:
                continue
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            self._reap(process)
        self._processes = []
        self.addresses = []

    def __enter__(self) -> "LocalWorkerFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
