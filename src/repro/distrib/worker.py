"""The survey worker: one warm serial engine behind a TCP socket.

``repro-dns worker --listen host:port`` runs a :class:`WorkerServer`.  A
coordinator connects and drives it with frames (:mod:`repro.distrib.wire`):

* **BUILD** — a JSON description of the world (the ``GeneratorConfig``)
  and the engine options (popular count, glue, pass spec strings).  The
  worker regenerates the synthetic Internet locally — world generation is
  seeded and deterministic, so shipping the config *is* shipping the
  world — and builds a serial :class:`~repro.core.engine.SurveyEngine`
  plus a :class:`~repro.topology.changes.ChangeJournal` it will replay
  mutation specs into.
* **SURVEY** — a ``KIND_ORDER`` work order: the shard's directory
  indices + names + popular flags, the full mutation-spec history, and
  the epoch's global dirty-name set.  The worker applies only the spec
  tail it has not seen (keeping its warm universe exactly as stale as a
  serial delta engine's), brings its engine up to them with
  :meth:`SurveyEngine.apply_changes`, surveys its names with
  :meth:`SurveyEngine.survey_stripe`, and replies with a **RESULT** frame
  whose payload is a ``KIND_SHARD`` column container (records by global
  index, fingerprints, verdict maps).
* **PING** — liveness heartbeat, acked with OK (no payload, no state).
* **HELLO** — shared-secret auth handshake.  A worker started with an
  auth token (``--auth-token`` / ``REPRO_AUTH_TOKEN``) rejects every
  frame until a HELLO carrying a valid HMAC arrives on the connection;
  a worker without a token rejects HELLO with a precise ERROR so a
  token mismatch is never silent in either direction.
* **SHUTDOWN** — ack and exit.

Handler failures are reported to the coordinator as **ERROR** frames
(exception text plus a ``retryable`` flag); wire-level failures and idle
timeouts drop the connection and the worker goes back to accepting, so a
crashed coordinator never strands a worker.  Errors are isolated per
request — one bad order never kills the process — with one deliberate
exception: a failure while *replaying mutation specs* leaves the warm
world half-mutated, so the worker discards its engine and reports a
retryable ERROR, forcing the coordinator down the rebuild path instead
of surveying a corrupt world.
"""

from __future__ import annotations

import json
import socket
from typing import Optional

from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.snapstore import pack_shard_result
from repro.dns.name import DomainName
from repro.distrib.wire import (FRAME_BUILD, FRAME_ERROR, FRAME_HELLO,
                                FRAME_NAMES, FRAME_OK, FRAME_PING,
                                FRAME_RESULT, FRAME_SHUTDOWN, FRAME_SURVEY,
                                DistribError, WireError, error_payload,
                                fault_injector, recv_frame, send_frame,
                                unpack_work_order, verify_hello)
from repro.topology.changes import ChangeJournal, apply_mutation_spec
from repro.topology.generator import GeneratorConfig, InternetGenerator


def _engine_from_build(payload: bytes) -> SurveyEngine:
    """Regenerate the world and engine a BUILD frame describes."""
    try:
        build = json.loads(payload.decode("utf-8"))
        generator = build["generator"]
        engine_options = build["engine"]
    except (ValueError, KeyError, UnicodeDecodeError) as error:
        raise DistribError(f"malformed BUILD payload: {error}") from error
    # JSON round-trips dataclass tuples as lists; the generator only
    # iterates them, but normalise so reconstructed configs compare equal.
    config = GeneratorConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in generator.items()})
    internet = InternetGenerator(config).generate()
    return SurveyEngine(internet, config=EngineConfig(
        backend="serial",
        popular_count=int(engine_options["popular_count"]),
        include_bottleneck=bool(engine_options["include_bottleneck"]),
        passes=list(engine_options.get("passes", ()))))


class WorkerStateError(DistribError):
    """The worker's warm state is unusable; a re-BUILD will cure it."""


class WorkerServer:
    """Serve one coordinator at a time until a SHUTDOWN frame arrives."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 auth_token: Optional[str] = None,
                 idle_timeout: Optional[float] = None):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.host, self.port = self._listener.getsockname()[:2]
        self._auth_token = auth_token
        self._idle_timeout = idle_timeout
        self._engine: Optional[SurveyEngine] = None
        self._journal: Optional[ChangeJournal] = None
        self._applied_specs = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept coordinators until one sends SHUTDOWN."""
        try:
            while True:
                connection, _peer = self._listener.accept()
                injector = fault_injector()
                if injector is not None and injector.refuse_accept():
                    connection.close()
                    continue
                try:
                    if not self._serve_connection(connection):
                        return
                finally:
                    connection.close()
        finally:
            self._listener.close()

    def _reply_error(self, connection: socket.socket, message: str,
                     retryable: bool = False) -> bool:
        """Send an ERROR frame; False means the connection is gone."""
        try:
            send_frame(connection, FRAME_ERROR,
                       error_payload(message, retryable=retryable))
            return True
        except WireError:
            return False

    def _serve_connection(self, connection: socket.socket) -> bool:
        """Handle frames on one connection; False means shut down."""
        authenticated = self._auth_token is None
        while True:
            try:
                frame_type, payload = recv_frame(
                    connection, timeout=self._idle_timeout,
                    peer="coordinator")
            except WireError:
                # Coordinator gone, stream corrupt, or idle past the
                # timeout: drop the connection and await a fresh
                # coordinator (warm state is kept).
                return True
            if frame_type == FRAME_HELLO:
                if self._auth_token is None:
                    self._reply_error(
                        connection,
                        "worker has no auth token configured; restart it "
                        "with --auth-token (or REPRO_AUTH_TOKEN) matching "
                        "the coordinator's")
                    return True
                try:
                    verify_hello(payload, self._auth_token, "coordinator")
                except WireError as error:
                    self._reply_error(connection, str(error))
                    return True
                authenticated = True
                try:
                    send_frame(connection, FRAME_OK)
                except WireError:
                    return True
                continue
            if not authenticated:
                # Auth gates everything, SHUTDOWN included: an open port
                # must not let an unauthenticated peer stop the worker.
                self._reply_error(
                    connection,
                    f"authentication required: this worker was started "
                    f"with an auth token but received "
                    f"{FRAME_NAMES[frame_type]} before HELLO")
                return True
            if frame_type == FRAME_SHUTDOWN:
                try:
                    send_frame(connection, FRAME_OK)
                except WireError:
                    pass
                return False
            if frame_type == FRAME_PING:
                try:
                    send_frame(connection, FRAME_OK)
                except WireError:
                    return True
                continue
            try:
                if frame_type == FRAME_BUILD:
                    self._handle_build(payload)
                    reply_type, reply = FRAME_OK, b""
                elif frame_type == FRAME_SURVEY:
                    reply_type, reply = FRAME_RESULT, \
                        self._handle_survey(payload)
                else:
                    raise DistribError(
                        f"unexpected {FRAME_NAMES[frame_type]} frame "
                        f"(worker accepts HELLO/PING/BUILD/SURVEY/"
                        f"SHUTDOWN)")
            except Exception as error:  # surfaced to the coordinator
                # Per-request isolation: report and keep serving.  A
                # poisoned-state or I/O failure is marked retryable —
                # reconnect-and-rebuild cures it; a deterministic
                # failure (bad order, bad build) is not.
                retryable = isinstance(error, (WorkerStateError, OSError,
                                               MemoryError))
                if not self._reply_error(
                        connection, f"{type(error).__name__}: {error}",
                        retryable=retryable):
                    return True
                continue
            try:
                send_frame(connection, reply_type, reply)
            except WireError:
                return True

    def _handle_build(self, payload: bytes) -> None:
        self._engine = _engine_from_build(payload)
        self._journal = ChangeJournal(self._engine.internet)
        self._applied_specs = 0

    def _handle_survey(self, payload: bytes) -> bytes:
        engine, journal = self._engine, self._journal
        if engine is None or journal is None:
            raise DistribError("SURVEY before BUILD: worker has no engine")
        indices, names, popular_flags, specs, dirty_names = \
            unpack_work_order(payload, label="work order")

        if len(specs) < self._applied_specs:
            raise DistribError(
                f"work order carries {len(specs)} mutation specs but "
                f"{self._applied_specs} were already applied "
                f"(coordinator restarted without a new BUILD?)")
        tail = specs[self._applied_specs:]
        if tail:
            try:
                events_before = len(journal)
                for spec in tail:
                    apply_mutation_spec(journal, spec)
                self._applied_specs = len(specs)
                engine.apply_changes(
                    journal.changes(since=events_before),
                    {DomainName(name) for name in dirty_names})
            except Exception as error:
                # A failure mid-replay leaves the warm world half-mutated.
                # Surveying it would produce silently wrong records, so
                # discard the engine and force the rebuild path.
                self._engine = None
                self._journal = None
                self._applied_specs = 0
                raise WorkerStateError(
                    f"mutation replay failed ({type(error).__name__}: "
                    f"{error}); worker state discarded, re-BUILD "
                    f"required") from error

        entries = engine._select_entries(names, None)
        popular = {entry.name for entry, is_popular
                   in zip(entries, popular_flags) if is_popular}
        shard = engine.survey_stripe(engine._root,
                                     list(zip(indices, entries)), popular)
        return pack_shard_result(*shard._replace(meta={
            "worker": self.address, "names": len(indices),
            "specs_applied": self._applied_specs}))
