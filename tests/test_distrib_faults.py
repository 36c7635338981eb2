"""Fault tolerance for the distributed survey: chaos, recovery, auth.

Exercises the robustness layer end to end:

* the deterministic fault-injection harness (:mod:`repro.distrib.faults`)
  — plan grammar, wire hooks, env activation;
* worker hardening — HELLO auth, PING, idle timeout, retryable ERROR
  flags, replay-poisoning isolation;
* the coordinator recovery machinery — a chaos matrix of real
  multi-process failures (kill mid-order, truncated RESULT, corrupt CRC,
  stalled worker, refused reconnect), each recovered via
  reconnect-and-rebuild or shard reassignment with the merged results
  **byte-identical to the serial backend**, cold and delta, and the
  :class:`FaultReport` counters matching the injected plan;
* the satellites — silent-broadcast misalignment guard, fleet startup
  timeout with captured stderr, and the per-worker shutdown report.
"""

import dataclasses
import json
import socket
import subprocess
import sys
import threading

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, SurveyAggregator, SurveyEngine
from repro.core.snapshot import results_to_dict
from repro.distrib import (DistribError, FaultPlan, RetryPolicy, WireError,
                           WorkerLostError)
from repro.distrib.coordinator import LocalWorkerFleet, ShardCoordinator
from repro.distrib.faults import (ENV_FAULT_PLAN, FaultAction, FaultInjector,
                                  activate_from_env, injected)
from repro.distrib.wire import (FRAME_BUILD, FRAME_ERROR, FRAME_HELLO,
                                FRAME_OK, FRAME_PING, FRAME_SHUTDOWN,
                                FRAME_SURVEY, decode_error, fault_injector,
                                hello_payload, pack_work_order, parse_address,
                                recv_frame, send_frame, verify_hello)
from repro.distrib.worker import WorkerServer
from repro.topology.changes import ChangeJournal
from repro.topology.generator import GeneratorConfig, InternetGenerator

CHAOS_CONFIG = GeneratorConfig(seed=4242, sld_count=60,
                               directory_name_count=90,
                               university_count=12, alexa_count=30,
                               hosting_provider_count=8, isp_count=6)

TINY = ["--sld-count", "60", "--directory-names", "90",
        "--universities", "12", "--seed", "4242"]


def _strip_metadata(results):
    payload = results_to_dict(results)
    payload.pop("metadata")
    return json.dumps(payload, sort_keys=True)


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _shutdown_worker(address, token=None):
    connection = socket.create_connection(parse_address(address),
                                          timeout=5.0)
    try:
        if token is not None:
            send_frame(connection, FRAME_HELLO, hello_payload(token))
            assert recv_frame(connection, timeout=5.0)[0] == FRAME_OK
        send_frame(connection, FRAME_SHUTDOWN)
        recv_frame(connection, timeout=5.0)
    finally:
        connection.close()


@pytest.fixture(scope="module")
def tiny_world():
    return InternetGenerator(CHAOS_CONFIG).generate()


# -- fault plan grammar -------------------------------------------------------------------


def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse("seed=7,kill:recv:2,corrupt:send:3,"
                           "delay:send:1:0.5")
    assert plan.seed == 7
    assert [action.to_spec() for action in plan.actions] == \
        ["kill:recv:2", "corrupt:send:3", "delay:send:1:0.5"]
    assert FaultPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()


@pytest.mark.parametrize("bad, message", [
    ("explode:send:1", "invalid fault explode:send"),
    ("kill:accept:1", "invalid fault kill:accept"),
    ("kill:recv:0", "nth >= 1"),
    ("kill:recv", "expected"),
    ("kill:recv:x", "nth must be an integer"),
    ("seed=banana", "invalid fault-plan seed"),
    ("delay:send:1:nan", "finite, non-negative arg"),
    ("delay:send:1:inf", "finite, non-negative arg"),
    ("delay:send:1:-1", "finite, non-negative arg"),
])
def test_fault_plan_rejects_bad_specs(bad, message):
    with pytest.raises(DistribError, match=message):
        FaultPlan.parse(bad)


def test_fault_plan_rejects_duplicate_slots():
    with pytest.raises(DistribError, match="two faults at send event 3"):
        FaultPlan([FaultAction("corrupt", "send", 3),
                   FaultAction("truncate", "send", 3)])


def test_activate_from_env_installs_injector():
    try:
        assert activate_from_env({}) is None
        injector = activate_from_env({ENV_FAULT_PLAN: "kill:recv:9"})
        assert injector is fault_injector()
        assert injector.plan.actions[0].to_spec() == "kill:recv:9"
    finally:
        from repro.distrib.wire import install_fault_injector
        install_fault_injector(None)


# -- wire-level injection (in-process; kill ops stay subprocess-only) ---------------------


def test_injected_corrupt_send_surfaces_as_checksum_mismatch():
    left, right = socket.socketpair()
    try:
        with injected(FaultPlan.parse("seed=3,corrupt:send:1")) as injector:
            send_frame(left, FRAME_SURVEY, b"payload-bytes")
            assert injector.fired == {"corrupt:send:1": 1}
        with pytest.raises(WireError, match="checksum mismatch"):
            recv_frame(right, timeout=5.0, peer="worker w1")
    finally:
        left.close()
        right.close()


def test_injected_truncate_send_closes_mid_frame():
    left, right = socket.socketpair()
    try:
        with injected(FaultPlan.parse("truncate:send:1")):
            with pytest.raises(WireError, match="fault injection: frame "
                                                "truncated at send event 1"):
                send_frame(left, FRAME_SURVEY, b"x" * 64)
        with pytest.raises(WireError, match="connection closed"):
            recv_frame(right, timeout=5.0)
    finally:
        left.close()
        right.close()


def test_injected_delay_send_still_delivers():
    left, right = socket.socketpair()
    try:
        with injected(FaultPlan.parse("delay:send:1:0.05")):
            send_frame(left, FRAME_SURVEY, b"slow")
            assert recv_frame(right, timeout=5.0) == (FRAME_SURVEY, b"slow")
    finally:
        left.close()
        right.close()


def test_injector_counts_events_across_frames():
    left, right = socket.socketpair()
    try:
        with injected(FaultPlan.parse("corrupt:send:2")) as injector:
            send_frame(left, FRAME_OK)
            send_frame(left, FRAME_OK)  # corrupted (header byte flipped)
            assert injector.counters["send"] == 2
        assert recv_frame(right, timeout=5.0) == (FRAME_OK, b"")
        with pytest.raises(WireError):
            recv_frame(right, timeout=5.0)
    finally:
        left.close()
        right.close()


# -- auth handshake -----------------------------------------------------------------------


def test_verify_hello_accepts_and_rejects():
    verify_hello(hello_payload("s3cret"), "s3cret", "peer")
    with pytest.raises(WireError, match="authentication failed"):
        verify_hello(hello_payload("wrong"), "s3cret", "peer")
    with pytest.raises(WireError, match="malformed HELLO payload"):
        verify_hello(b"not json", "s3cret", "peer")


def test_authenticated_coordinator_round_trip(tiny_world):
    server = WorkerServer(auth_token="s3cret")
    thread = _serve(server)
    engine = SurveyEngine(tiny_world,
                          config=EngineConfig(popular_count=10))
    coordinator = ShardCoordinator(engine, [server.address],
                                   auth_token="s3cret")
    entries = engine._select_entries(None, 8)
    aggregator = SurveyAggregator(total=len(entries))
    coordinator.run_shards(list(enumerate(entries)), set(), aggregator)
    coordinator.close()
    assert coordinator.shutdown_report == [
        {"worker": server.address, "status": "clean"}]
    thread.join(timeout=5)


def test_worker_rejects_wrong_token_precisely(tiny_world):
    server = WorkerServer(auth_token="right")
    thread = _serve(server)
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    with pytest.raises(DistribError, match="authentication failed"):
        ShardCoordinator(engine, [server.address], auth_token="wrong")
    _shutdown_worker(server.address, token="right")
    thread.join(timeout=5)


def test_worker_rejects_unauthenticated_frames(tiny_world):
    server = WorkerServer(auth_token="s3cret")
    thread = _serve(server)
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    with pytest.raises(DistribError,
                       match="authentication required.*BUILD before HELLO"):
        ShardCoordinator(engine, [server.address])
    _shutdown_worker(server.address, token="s3cret")
    thread.join(timeout=5)


def test_tokenless_worker_rejects_hello(tiny_world):
    server = WorkerServer()
    thread = _serve(server)
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    with pytest.raises(DistribError,
                       match="no auth token configured"):
        ShardCoordinator(engine, [server.address], auth_token="s3cret")
    _shutdown_worker(server.address)
    thread.join(timeout=5)


# -- worker hardening ---------------------------------------------------------------------


def test_worker_answers_ping():
    server = WorkerServer()
    thread = _serve(server)
    connection = socket.create_connection(parse_address(server.address),
                                          timeout=5.0)
    try:
        send_frame(connection, FRAME_PING)
        assert recv_frame(connection, timeout=5.0) == (FRAME_OK, b"")
        send_frame(connection, FRAME_SHUTDOWN)
        assert recv_frame(connection, timeout=5.0)[0] == FRAME_OK
    finally:
        connection.close()
    thread.join(timeout=5)


def test_worker_idle_timeout_drops_connection_but_keeps_serving():
    server = WorkerServer(idle_timeout=0.3)
    thread = _serve(server)
    connection = socket.create_connection(parse_address(server.address),
                                          timeout=5.0)
    try:
        with pytest.raises(WireError, match="connection closed"):
            recv_frame(connection, timeout=5.0)
    finally:
        connection.close()
    _shutdown_worker(server.address)
    thread.join(timeout=5)


def test_worker_discards_state_on_poisoned_replay():
    """A failed mutation replay must not leave a half-mutated world: the
    worker reports a *retryable* ERROR and demands a re-BUILD."""
    server = WorkerServer()
    thread = _serve(server)
    build = json.dumps({
        "generator": dataclasses.asdict(CHAOS_CONFIG),
        "engine": {"popular_count": 5, "include_bottleneck": True,
                   "passes": []},
    }).encode("utf-8")
    connection = socket.create_connection(parse_address(server.address),
                                          timeout=5.0)
    try:
        send_frame(connection, FRAME_BUILD, build)
        assert recv_frame(connection, timeout=60.0)[0] == FRAME_OK
        send_frame(connection, FRAME_SURVEY, pack_work_order(
            [0], ["site1.com"], [False], ["definitely-not-a-spec"], []))
        frame_type, payload = recv_frame(connection, timeout=10.0)
        assert frame_type == FRAME_ERROR
        info = decode_error(payload, "worker")
        assert info.retryable
        assert "mutation replay failed" in info.message
        assert "re-BUILD required" in info.message
        # The engine was discarded: surveying now needs a fresh BUILD.
        send_frame(connection, FRAME_SURVEY, pack_work_order(
            [0], ["site1.com"], [False], [], []))
        frame_type, payload = recv_frame(connection, timeout=10.0)
        assert frame_type == FRAME_ERROR
        assert "SURVEY before BUILD" in \
            decode_error(payload, "worker").message
        send_frame(connection, FRAME_SHUTDOWN)
        assert recv_frame(connection, timeout=5.0)[0] == FRAME_OK
    finally:
        connection.close()
    thread.join(timeout=5)


# -- satellites: silent broadcast, fleet startup, shutdown report -------------------------


class _OkWorker:
    """Accepts one connection and OKs every frame (no real engine)."""

    def __init__(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        host, port = self._listener.getsockname()[:2]
        self.address = f"{host}:{port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        connection, _peer = self._listener.accept()
        try:
            while True:
                recv_frame(connection, timeout=10.0)
                send_frame(connection, FRAME_OK)
        except (WireError, OSError):
            pass
        finally:
            connection.close()
            self._listener.close()

    def join(self):
        self._thread.join(timeout=5)


def test_broadcast_raises_on_silent_worker(tiny_world):
    """A missing reply without an exception must abort, never compact
    the reply list (which would fold shard k at position j)."""
    worker = _OkWorker()
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    coordinator = ShardCoordinator(engine, [worker.address])
    coordinator._run_order = lambda *args, **kwargs: None
    with pytest.raises(DistribError,
                       match=r"shard 0 produced neither a reply nor an "
                             r"error"):
        coordinator._broadcast([b""])
    assert coordinator._closed
    worker.join()


def _spawn_stub(script):
    def spawn(self, index, address):
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    return spawn


def test_fleet_startup_times_out_on_silent_worker(monkeypatch):
    monkeypatch.setattr(LocalWorkerFleet, "_spawn",
                        _spawn_stub("import time; time.sleep(30)"))
    fleet = LocalWorkerFleet(1, startup_timeout=0.5)
    with pytest.raises(DistribError,
                       match="did not report a listen address"):
        fleet.start()
    assert fleet.addresses == [] and fleet._processes == []


def test_fleet_startup_reports_stderr_of_dead_worker(monkeypatch):
    monkeypatch.setattr(LocalWorkerFleet, "_spawn", _spawn_stub(
        "import sys; sys.stderr.write('bad flag value'); sys.exit(3)"))
    fleet = LocalWorkerFleet(1, startup_timeout=10.0)
    with pytest.raises(DistribError,
                       match="failed to start.*bad flag value"):
        fleet.start()


def test_shutdown_report_records_unreachable_worker(tiny_world):
    server = WorkerServer()
    thread = _serve(server)
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    coordinator = ShardCoordinator(engine, [server.address])
    coordinator._drop(0)  # the connection died before close()
    coordinator.close()
    assert coordinator.shutdown_report == [
        {"worker": server.address, "status": "unreachable"}]
    _shutdown_worker(server.address)
    thread.join(timeout=5)


# -- retry policy -------------------------------------------------------------------------


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(retries=3, backoff_base=0.25, backoff_max=2.0,
                         seed=11)
    series = [policy.backoff("w1", attempt) for attempt in range(6)]
    assert series == [policy.backoff("w1", attempt)
                      for attempt in range(6)]
    assert all(delay <= 2.0 for delay in series)
    assert all(delay >= 0.125 for delay in series)  # >= cap/2 jitter floor
    assert policy.backoff("w1", 0) != policy.backoff("w2", 0)


def test_min_workers_cannot_exceed_fleet(tiny_world):
    engine = SurveyEngine(tiny_world, config=EngineConfig(popular_count=10))
    with pytest.raises(DistribError, match="min-workers 5 exceeds"):
        ShardCoordinator(engine, ["127.0.0.1:1"], min_workers=5,
                         retry_policy=RetryPolicy(retries=1))


# -- the chaos matrix: real multi-process failures, byte-identical recovery ---------------


@pytest.fixture(scope="module")
def chaos_reference():
    """Serial cold + delta results every chaos case must match exactly."""
    world = InternetGenerator(CHAOS_CONFIG).generate()
    engine = SurveyEngine(world, config=EngineConfig(backend="serial",
                                                     popular_count=20))
    cold = engine.run()
    victim = next(host for record in cold.resolved_records()
                  for host in sorted(record.tcb_servers, key=str))
    journal = ChangeJournal(world)
    journal.set_server_software(victim, "BIND 8.2.2")
    outcome = engine.run_delta(cold, journal)
    return {"cold": _strip_metadata(cold),
            "delta": _strip_metadata(outcome.results),
            "dirty": outcome.dirty, "victim": victim}


def _check_kill(report, fleet):
    # Budget exhausted against a dead process: every retry was a refused
    # reconnect, then the shard moved to a survivor.
    assert report.dead_workers == [fleet.addresses[1]]
    assert report.retries == 2
    assert report.reassignments == 1
    assert report.rebuilds == 0


def _check_truncate(report, fleet):
    assert report.dead_workers == []
    assert report.retries == 1
    assert report.rebuilds == 1
    assert report.reassignments == 0


def _check_stall(report, fleet):
    assert report.dead_workers == []
    assert report.retries >= 1
    assert report.rebuilds >= 1
    assert report.reassignments == 0


def _check_refuse(report, fleet):
    # Retry 1 hits the refused accept; retry 2 rebuilds and completes.
    assert report.dead_workers == []
    assert report.retries == 2
    assert report.rebuilds == 1
    assert report.reassignments == 0


# Worker 1's process-global wire counters in a tokenless recovery run:
# recv 1=BUILD, 2=PING, 3=first SURVEY; send 1=OK, 2=OK, 3=first RESULT.
CHAOS_CASES = {
    "kill-mid-order": ("kill:recv:3", 60.0, _check_kill),
    "truncated-result": ("truncate:send:3", 60.0, _check_truncate),
    "corrupt-result-crc": ("seed=9,corrupt:send:3", 60.0, _check_truncate),
    "stalled-worker": ("delay:send:3:2.5", 0.75, _check_stall),
    "refused-reconnect": ("truncate:send:3,refuse:accept:2", 60.0,
                          _check_refuse),
}


@pytest.mark.parametrize("case", sorted(CHAOS_CASES))
def test_chaos_recovery_is_byte_identical(case, chaos_reference):
    plan, response_timeout, check = CHAOS_CASES[case]
    world = InternetGenerator(CHAOS_CONFIG).generate()
    with LocalWorkerFleet(3, fault_plans={1: plan}) as fleet:
        engine = SurveyEngine(world, config=EngineConfig(
            backend="socket", popular_count=20,
            worker_addrs=tuple(fleet.addresses),
            retries=2, retry_backoff=0.05,
            response_timeout=response_timeout, build_timeout=120.0))
        try:
            cold = engine.run()
            report = engine._coordinator.fault_report
            assert _strip_metadata(cold) == chaos_reference["cold"]
            check(report, fleet)
            assert cold.metadata["fault_report"]["retries"] >= 1
            # Delta on the recovered warm state: the plan is exhausted,
            # yet results must still match the serial delta engine.
            journal = ChangeJournal(world)
            journal.set_server_software(chaos_reference["victim"],
                                        "BIND 8.2.2")
            outcome = engine.run_delta(cold, journal)
            assert outcome.dirty == chaos_reference["dirty"]
            assert _strip_metadata(outcome.results) == \
                chaos_reference["delta"]
        finally:
            engine.close()


def test_worker_rejoin_after_kill_and_respawn(chaos_reference):
    """kill + respawn on the same port: the coordinator's next exchange
    reconnects, re-BUILDs, and the rerun stays byte-identical."""
    world = InternetGenerator(CHAOS_CONFIG).generate()
    with LocalWorkerFleet(2) as fleet:
        engine = SurveyEngine(world, config=EngineConfig(
            backend="socket", popular_count=20,
            worker_addrs=tuple(fleet.addresses),
            retries=3, retry_backoff=0.05))
        try:
            first = engine.run()
            assert _strip_metadata(first) == chaos_reference["cold"]
            address = fleet.addresses[1]
            fleet.kill(1)
            assert fleet.respawn(1) == address
            second = engine.run()
            assert _strip_metadata(second) == chaos_reference["cold"]
            report = engine._coordinator.fault_report
            assert report.dead_workers == []
            assert report.rebuilds >= 1
            assert "fault_report" not in first.metadata
        finally:
            engine.close()


def test_min_workers_floor_aborts_precisely():
    world = InternetGenerator(CHAOS_CONFIG).generate()
    with LocalWorkerFleet(2, fault_plans={1: "kill:recv:3"}) as fleet:
        engine = SurveyEngine(world, config=EngineConfig(
            backend="socket", popular_count=20,
            worker_addrs=tuple(fleet.addresses),
            retries=1, retry_backoff=0.05, min_workers=2))
        try:
            # The floor error names the dead worker beside its last
            # failure: the retry finds the killed process gone.
            with pytest.raises(DistribError,
                               match=r"below the min-workers floor 2 "
                                     r"\(dead: 127\.0\.0\.1:\d+ \((cannot "
                                     r"connect|worker 127\.0\.0\.1:\d+: "
                                     r"connection closed)"):
                engine.run()
        finally:
            engine.close()


# -- CLI end to end: spawned fleet + auth + fault plan + recovery line --------------------


def test_cli_chaos_survey_recovers_and_matches_serial(tmp_path, capsys):
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, "--output", str(serial_path),
                 "--format", "binary"]) == 0
    capsys.readouterr()
    chaos_path = tmp_path / "chaos.rsnap"
    # With auth, worker 1's sends are OK(HELLO)=1, OK(BUILD)=2,
    # OK(PING)=3, first RESULT=4 — truncate the RESULT.
    assert main(["survey", *TINY, "--backend", "socket", "--workers", "3",
                 "--retries", "2", "--auth-token", "s3cret",
                 "--fault-plan", "1=truncate:send:4",
                 "--output", str(chaos_path), "--format", "binary"]) == 0
    out = capsys.readouterr().out
    assert "fault recovery:" in out
    assert main(["diff", str(serial_path), str(chaos_path)]) == 0
    assert " 0 changed" in capsys.readouterr().out


def test_cli_rejects_bad_fault_plan_flags(capsys):
    assert main(["survey", *TINY, "--backend", "socket", "--workers", "2",
                 "--fault-plan", "nonsense"]) == 2
    assert "expected I=SPEC" in capsys.readouterr().err
    assert main(["survey", *TINY, "--backend", "socket", "--workers", "2",
                 "--fault-plan", "7=kill:recv:1"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["survey", *TINY, "--fault-plan", "0=kill:recv:1"]) == 2
    assert "--fault-plan only applies" in capsys.readouterr().err
    assert main(["survey", *TINY, "--backend", "socket", "--workers", "2",
                 "--min-workers", "3"]) == 2
    assert "--min-workers 3 exceeds" in capsys.readouterr().err
