"""Tests for the distributed survey subsystem (``repro.distrib``).

Covers the wire protocol (framing, checksums, precise failure text), the
coordinator/worker identity guarantee (socket-sharded results byte-identical
to the serial engine, cold and delta), the offline shard merge tool, and
every coordinator failure path the issue names: worker crash mid-shard,
truncated and corrupt frames, connect refusal, response timeout — each
surfacing a :class:`DistribError` (CLI exit 2), never a hang or a partial
result.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, SurveyAggregator, SurveyEngine
from repro.core.snapshot import load_results, results_to_dict
from repro.core.snapstore import save_results_snapshot
from repro.core.survey import Survey, SurveyResults
from repro.distrib import DistribError, WireError
from repro.distrib.coordinator import LocalWorkerFleet, ShardCoordinator
from repro.distrib.merge import merge_shard_snapshots
from repro.distrib.wire import (FRAME_BUILD, FRAME_ERROR, FRAME_HEADER_SIZE,
                                FRAME_OK, FRAME_PING, FRAME_RESULT,
                                FRAME_SHUTDOWN, FRAME_SURVEY, WIRE_MAGIC,
                                _FRAME_HEADER, pack_work_order,
                                parse_address, recv_frame, send_frame,
                                unpack_work_order)
from repro.topology.changes import ChangeJournal
from repro.topology.generator import GeneratorConfig, InternetGenerator


def _strip_metadata(results):
    payload = results_to_dict(results)
    payload.pop("metadata")
    return json.dumps(payload, sort_keys=True)


# -- wire protocol ------------------------------------------------------------------------


def test_parse_address():
    assert parse_address("127.0.0.1:8053") == ("127.0.0.1", 8053)
    assert parse_address("survey-03.example.net:9000") == \
        ("survey-03.example.net", 9000)


@pytest.mark.parametrize("bad", ["8053", "host:", ":8053", "host:abc", ""])
def test_parse_address_rejects_malformed(bad):
    with pytest.raises(DistribError, match="expected host:port"):
        parse_address(bad)


def test_frame_round_trip():
    left, right = socket.socketpair()
    try:
        payload = b"x" * 70000  # larger than one recv() chunk
        sent = send_frame(left, FRAME_SURVEY, payload)
        assert sent == FRAME_HEADER_SIZE + len(payload)
        frame_type, received = recv_frame(right, timeout=5.0)
        assert frame_type == FRAME_SURVEY
        assert received == payload
        send_frame(right, FRAME_OK)
        assert recv_frame(left, timeout=5.0) == (FRAME_OK, b"")
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_bad_magic():
    left, right = socket.socketpair()
    try:
        left.sendall(b"HTTP" + b"\x00" * (FRAME_HEADER_SIZE - 4))
        with pytest.raises(WireError, match="bad frame magic"):
            recv_frame(right, timeout=5.0)
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_checksum_mismatch():
    left, right = socket.socketpair()
    try:
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0,
                                    0xDEADBEEF, 4)
        left.sendall(header + b"ruin")
        with pytest.raises(WireError,
                           match="RESULT payload checksum mismatch"):
            recv_frame(right, timeout=5.0, peer="worker w1")
    finally:
        left.close()
        right.close()


def test_recv_frame_names_truncation_point():
    left, right = socket.socketpair()
    try:
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0, 0, 100)
        left.sendall(header + b"only-sixteen-byt")
        left.close()
        with pytest.raises(
                WireError,
                match=r"connection closed mid-RESULT payload "
                      r"\(16/100 bytes received\)"):
            recv_frame(right, timeout=5.0)
    finally:
        right.close()


def test_recv_frame_timeout_names_missing_part():
    left, right = socket.socketpair()
    try:
        with pytest.raises(WireError,
                           match=r"timed out waiting for frame header"):
            recv_frame(right, timeout=0.2)
    finally:
        left.close()
        right.close()


def test_work_order_round_trip():
    payload = pack_work_order(
        indices=[4, 19, 37], names=["a.com", "b.org", "c.de"],
        popular_flags=[True, False, True],
        specs=["remove:ns1.dead.net", "software:ns2.x.com=BIND 8.2.2"],
        dirty_names=["b.org", "q.net"])
    indices, names, flags, specs, dirty = unpack_work_order(payload)
    assert indices == [4, 19, 37]
    assert names == ["a.com", "b.org", "c.de"]
    assert flags == [True, False, True]
    assert specs == ["remove:ns1.dead.net", "software:ns2.x.com=BIND 8.2.2"]
    assert dirty == ["b.org", "q.net"]


# -- in-process worker fleet --------------------------------------------------------------


def test_socket_cold_survey_identical_to_serial(small_internet, worker_trio):
    serial = Survey(small_internet, popular_count=20,
                    backend="serial").run(max_names=90)
    survey = Survey(small_internet, popular_count=20, backend="socket",
                    worker_addrs=worker_trio)
    try:
        sharded = survey.run(max_names=90)
    finally:
        survey.close()
    assert _strip_metadata(sharded) == _strip_metadata(serial)
    assert sharded.headline() == serial.headline()
    assert sharded.metadata["backend"] == "socket"
    assert sharded.metadata["workers"] == 3
    assert sharded.metadata["shards"] == 3


def test_socket_survey_reports_wire_stats(small_internet, worker_trio):
    survey = Survey(small_internet, popular_count=20, backend="socket",
                    worker_addrs=worker_trio)
    try:
        survey.run(max_names=60)
        stats = survey.engine._coordinator.wire_stats()
    finally:
        survey.close()
    assert stats["workers"] == 3
    assert stats["bytes_sent"] > 0
    assert stats["bytes_received"] > stats["bytes_sent"]
    assert len(stats["per_worker"]) == 3
    for per_worker in stats["per_worker"]:
        assert per_worker["sent"] > 0
        assert per_worker["received"] > 0


def test_socket_delta_survey_identical_to_serial(small_internet,
                                                 worker_trio):
    """Two churn epochs through the socket pool match the serial delta
    engine record-for-record (the warm-worker invalidation contract)."""
    config = small_internet.config
    worlds = {"serial": InternetGenerator(config).generate(),
              "socket": InternetGenerator(config).generate()}
    engines = {
        "serial": SurveyEngine(worlds["serial"],
                               config=EngineConfig(backend="serial",
                                                   popular_count=20)),
        "socket": SurveyEngine(worlds["socket"],
                               config=EngineConfig(
                                   backend="socket", popular_count=20,
                                   worker_addrs=tuple(worker_trio))),
    }
    try:
        cold = {key: engine.run(max_names=90)
                for key, engine in engines.items()}
        assert _strip_metadata(cold["socket"]) == _strip_metadata(
            cold["serial"])

        victim = next(host for record in cold["serial"].resolved_records()
                      for host in sorted(record.tcb_servers, key=str))
        journals = {key: ChangeJournal(world)
                    for key, world in worlds.items()}
        for journal in journals.values():
            journal.set_server_software(victim, "BIND 8.2.2")
        first = {key: engines[key].run_delta(cold[key], journals[key])
                 for key in engines}
        assert first["socket"].dirty == first["serial"].dirty
        assert _strip_metadata(first["socket"].results) == \
            _strip_metadata(first["serial"].results)

        # Second epoch on the SAME journals: workers must apply only the
        # unseen spec tail, and must invalidate names the first epoch
        # surveyed on a different worker.
        marks = {key: len(journal) for key, journal in journals.items()}
        for journal in journals.values():
            journal.remove_server(victim)
        second = {key: engines[key].run_delta(first[key].results,
                                              journals[key],
                                              since=marks[key])
                  for key in engines}
        assert second["socket"].dirty == second["serial"].dirty
        assert _strip_metadata(second["socket"].results) == \
            _strip_metadata(second["serial"].results)
    finally:
        engines["socket"].close()


def test_socket_backend_rejects_prefolded_changeset(small_internet,
                                                    worker_trio):
    engine = SurveyEngine(small_internet, config=EngineConfig(
        backend="socket", popular_count=20,
        worker_addrs=tuple(worker_trio)))
    try:
        cold = engine.run(max_names=40)
        journal = ChangeJournal(InternetGenerator(
            small_internet.config).generate())
        with pytest.raises(DistribError, match="pre-folded ChangeSet"):
            engine.run_delta(cold, journal.changes())
    finally:
        engine.close()


def test_worker_rejects_survey_before_build(worker_trio):
    connection = socket.create_connection(parse_address(worker_trio[0]),
                                          timeout=5.0)
    try:
        send_frame(connection, FRAME_SURVEY,
                   pack_work_order([0], ["a.com"], [False], [], []))
        frame_type, payload = recv_frame(connection, timeout=5.0)
        assert frame_type == FRAME_ERROR
        assert "SURVEY before BUILD" in payload.decode("utf-8")
        # The worker survives the error and still answers SHUTDOWN.
        send_frame(connection, FRAME_SHUTDOWN)
        assert recv_frame(connection, timeout=5.0)[0] == FRAME_OK
    finally:
        connection.close()


# -- acceptance scale: 8000 SLDs, two seeds, cold + delta ---------------------------------


@pytest.mark.parametrize("seed", [11, 77])
def test_full_scale_socket_identity(seed):
    """The issue's acceptance bar: at ``sld_count=8000`` the merged
    socket-sharded results are byte-identical to the serial backend,
    cold and after a delta re-survey, with real worker processes."""
    config = GeneratorConfig(seed=seed, sld_count=8000,
                             directory_name_count=800,
                             university_count=40, alexa_count=60,
                             hosting_provider_count=12, isp_count=10)
    # One shared world: cold surveys never mutate it (the backend-parity
    # tests rely on the same invariant), so serial and socket engines can
    # audit each other without paying a second 8000-SLD generation.
    world = InternetGenerator(config).generate()
    with LocalWorkerFleet(2) as fleet:
        engines = {
            "serial": SurveyEngine(world,
                                   config=EngineConfig(backend="serial",
                                                       popular_count=60)),
            "socket": SurveyEngine(world,
                                   config=EngineConfig(
                                       backend="socket", popular_count=60,
                                       worker_addrs=tuple(
                                           fleet.addresses))),
        }
        try:
            cold = {key: engine.run()
                    for key, engine in engines.items()}
            assert _strip_metadata(cold["socket"]) == \
                _strip_metadata(cold["serial"])

            journal = ChangeJournal(world)
            victims = sorted({host
                              for record in
                              cold["serial"].resolved_records()[:40]
                              for host in record.tcb_servers},
                             key=str)[:3]
            journal.set_server_software(victims[0], "BIND 8.2.2")
            journal.remove_server(victims[1])
            journal.move_server_region(victims[2], "eu")
            delta = {key: engines[key].run_delta(cold[key], journal)
                     for key in engines}
            assert delta["socket"].dirty == delta["serial"].dirty
            assert _strip_metadata(delta["socket"].results) == \
                _strip_metadata(delta["serial"].results)
        finally:
            engines["socket"].close()


# -- coordinator failure paths ------------------------------------------------------------


class ScriptedWorker:
    """A fake worker that answers BUILD and PING, then fails SURVEY on cue.

    ``failure(connection)`` runs instead of a RESULT reply — crash the
    connection, send garbage, stall — so the coordinator's error paths
    can be pinned down without real engines.
    """

    def __init__(self, failure):
        self._failure = failure
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
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_BUILD
            send_frame(connection, FRAME_OK)
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_PING
            send_frame(connection, FRAME_OK)
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_SURVEY
            self._failure(connection)
        except (WireError, OSError):
            pass
        finally:
            connection.close()
            self._listener.close()

    def join(self):
        self._thread.join(timeout=5)


def _run_one_shard(engine, addresses, **coordinator_options):
    coordinator = ShardCoordinator(engine, addresses,
                                   **coordinator_options)
    entries = engine._select_entries(None, 12)
    indexed = list(enumerate(entries))
    aggregator = SurveyAggregator(total=len(indexed))
    try:
        coordinator.run_shards(indexed, set(), aggregator)
    finally:
        coordinator._abort()
    return aggregator


def test_coordinator_reports_worker_crash_mid_shard(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    worker = ScriptedWorker(lambda connection: connection.close())
    with pytest.raises(DistribError,
                       match=r"worker 127\.0\.0\.1:\d+: connection closed "
                             r"mid-frame header"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_reports_truncated_result_frame(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())

    def truncate(connection):
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0, 0, 4096)
        connection.sendall(header + b"\x00" * 64)
        connection.close()

    worker = ScriptedWorker(truncate)
    with pytest.raises(DistribError,
                       match=r"connection closed mid-RESULT payload "
                             r"\(64/4096 bytes received\)"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_reports_corrupt_result_frame(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())

    def corrupt(connection):
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0,
                                    0xBAD0CAFE, 8)
        connection.sendall(header + b"\x00" * 8)

    worker = ScriptedWorker(corrupt)
    with pytest.raises(DistribError, match="checksum mismatch"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_times_out_on_stalled_worker(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    release = threading.Event()

    def stall(connection):
        release.wait(timeout=10.0)

    worker = ScriptedWorker(stall)
    started = time.monotonic()
    with pytest.raises(DistribError, match="timed out waiting for"):
        _run_one_shard(engine, [worker.address], response_timeout=0.5)
    assert time.monotonic() - started < 5.0
    release.set()
    worker.join()


def test_coordinator_reports_connect_refusal(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(DistribError,
                       match=rf"cannot connect to worker "
                             rf"127\.0\.0\.1:{dead_port}"):
        ShardCoordinator(engine, [f"127.0.0.1:{dead_port}"],
                         connect_timeout=2.0)


def test_coordinator_requires_worker_addresses(small_internet):
    with pytest.raises(ValueError, match="worker_addrs"):
        EngineConfig(backend="socket").validate()


def test_cli_socket_failure_exits_two(capsys):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    exit_code = main(["survey", "--sld-count", "40", "--directory-names",
                      "60", "--universities", "10", "--max-names", "10",
                      "--backend", "socket", "--worker-addrs",
                      f"127.0.0.1:{dead_port}"])
    assert exit_code == 2
    error_line = capsys.readouterr().err
    assert "error: cannot connect to worker" in error_line


# -- the offline shard merge tool ---------------------------------------------------------


TINY = ["--sld-count", "60", "--directory-names", "90",
        "--universities", "12", "--seed", "4242"]


def _write_shards(tmp_path, count, capsys, options=()):
    paths = []
    for index in range(count):
        path = tmp_path / f"shard{index}.rsnap"
        assert main(["survey", *TINY, *options, "--shard", f"{index}/{count}",
                     "--output", str(path)]) == 0
        paths.append(path)
    capsys.readouterr()
    return paths


def test_merge_matches_serial_snapshot(tmp_path, capsys):
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, "--output", str(serial_path)]) == 0
    shard_paths = _write_shards(tmp_path, 3, capsys)

    merged_path = tmp_path / "merged.rsnap"
    report = merge_shard_snapshots(shard_paths, merged_path)
    assert report.shards == 3
    assert report.bytes_written == merged_path.stat().st_size

    serial = results_to_dict(load_results(serial_path))
    merged = results_to_dict(load_results(merged_path))
    assert report.names == len(serial["records"])
    metadata = merged.pop("metadata")
    serial.pop("metadata")
    assert merged == serial
    assert metadata["backend"] == "merged"
    assert metadata["shards"] == 3
    assert metadata["merged_from"] == [path.name for path in shard_paths]


@pytest.mark.parametrize("options", [
    ["--passes", "availability,dnssec"],
    ["--max-names", "2"],  # leaves one of the three shard files empty
])
def test_merged_bytes_equal_serial_snapshot(tmp_path, capsys, options):
    """A merge writes exactly the serial snapshot, merge metadata aside."""
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, *options, "--output",
                 str(serial_path)]) == 0
    shard_paths = _write_shards(tmp_path, 3, capsys, options)
    merged_path = tmp_path / "merged.rsnap"
    merge_shard_snapshots(shard_paths, merged_path)

    serial = load_results(serial_path)
    expected = SurveyResults(
        records=list(serial.records),
        server_names_controlled=serial.server_names_controlled,
        vulnerable_servers=serial.vulnerable_servers,
        compromisable_servers=serial.compromisable_servers,
        fingerprints=serial.fingerprints,
        popular_names=serial.popular_names,
        metadata=load_results(merged_path).metadata)
    expected_path = save_results_snapshot(expected,
                                          tmp_path / "expected.rsnap")
    assert merged_path.read_bytes() == expected_path.read_bytes()


def test_merge_rejects_overlapping_shards(tmp_path, capsys):
    shard_paths = _write_shards(tmp_path, 2, capsys)
    with pytest.raises(DistribError, match="overlapping shard inputs"):
        merge_shard_snapshots([shard_paths[0], shard_paths[0]],
                              tmp_path / "merged.rsnap")


def test_merge_rejects_incomplete_partition(tmp_path, capsys):
    shard_paths = _write_shards(tmp_path, 2, capsys)
    with pytest.raises(DistribError,
                       match="do not form a complete partition"):
        merge_shard_snapshots([shard_paths[1]], tmp_path / "merged.rsnap")


def test_merge_cli_round_trip(tmp_path, capsys):
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, "--output", str(serial_path)]) == 0
    shard_paths = _write_shards(tmp_path, 2, capsys)
    merged_path = tmp_path / "merged.rsnap"
    assert main(["merge", *[str(path) for path in shard_paths],
                 "--output", str(merged_path)]) == 0
    assert "merged 2 shard file(s)" in capsys.readouterr().out
    assert main(["diff", str(serial_path), str(merged_path)]) == 0
    assert " 0 changed" in capsys.readouterr().out
