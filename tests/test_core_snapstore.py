"""Tests for :mod:`repro.core.snapstore` (the binary columnar store).

The contract under test: the REPRO-SNAP codec is a *lossless peer* of the
JSON snapshot — byte-identical ``results_to_dict`` output on every backend
and every seed — while opening in O(1) (no record is hydrated until
touched), serving diffs and delta re-surveys straight off the columns, and
storing an epoch timeline as shared deltas whose total size grows with
churn rather than with ``epochs × universe``.
"""

import json

import pytest

from repro.core.delta import DirtyIndex
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.snapshot import (
    diff_results,
    load_results,
    results_to_dict,
    save_results,
    sniff_format,
)
from repro.core.snapstore import (
    KIND_DELTA,
    KIND_RESULTS,
    MAGIC,
    EpochStore,
    LazySurveyResults,
    SnapshotFormatError,
    open_results,
    save_results_snapshot,
    sniff_kind,
)
from repro.topology.changes import ChangeJournal
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

#: Two seeds so the codec matrix never passes by topological accident.
SEEDS = (20040722, 1977)

#: The serial reference and the partitioned socket backend must both
#: produce snapshots the two codecs round-trip.
BACKENDS = ("serial", "socket")

#: Passes chosen for column coverage: float extras (availability), string
#: extras (dnssec_status), and a finalize() cross-record reduce (value).
PASSES = ("availability:samples=4", "dnssec:fraction=0.4", "value")


def _make_internet(seed):
    config = GeneratorConfig(seed=seed, sld_count=90,
                             directory_name_count=140, university_count=18,
                             hosting_provider_count=8, isp_count=6,
                             alexa_count=25)
    return InternetGenerator(config).generate()


def _snapshot_bytes(results):
    return json.dumps(results_to_dict(results), sort_keys=True)


# -- codec identity matrix -------------------------------------------------------------

@pytest.fixture(scope="module", params=SEEDS)
def codec_world(request):
    return _make_internet(request.param)


@pytest.mark.parametrize("backend", BACKENDS)
def test_binary_and_json_roundtrip_identically(codec_world, backend,
                                               tmp_path, request):
    addrs = tuple(request.getfixturevalue("worker_trio")) \
        if backend == "socket" else ()
    with SurveyEngine(codec_world, config=EngineConfig(
            backend=backend, worker_addrs=addrs, passes=PASSES)) as engine:
        results = engine.run()
    reference = _snapshot_bytes(results)

    json_path = save_results(results, tmp_path / "snap.json")
    binary_path = save_results(results, tmp_path / "snap.rsnap",
                               format="binary")
    assert sniff_format(json_path) == "json"
    assert sniff_format(binary_path) == "binary"
    assert binary_path.read_bytes().startswith(MAGIC)
    assert sniff_kind(binary_path) == KIND_RESULTS

    assert _snapshot_bytes(load_results(json_path)) == reference
    assert _snapshot_bytes(load_results(binary_path)) == reference


# -- lazy open behaviour ---------------------------------------------------------------

@pytest.fixture(scope="module")
def lazy_world(tmp_path_factory):
    """One serial survey, its binary snapshot, and a mutated successor."""
    internet = _make_internet(SEEDS[0])
    engine = SurveyEngine(internet, config=EngineConfig(passes=PASSES))
    results = engine.run()
    root = tmp_path_factory.mktemp("snapstore")
    path = root / "results.rsnap"
    save_results_snapshot(results, path)

    journal = ChangeJournal(internet)
    victim = sorted(results.fingerprints)[0]
    journal.set_server_software(victim, "BIND 8.2.2")
    journal.move_server_region(victim, "eu")
    outcome = engine.run_delta(results, journal)
    next_path = root / "next.rsnap"
    save_results_snapshot(outcome.results, next_path)
    return {
        "internet": internet, "engine": engine, "results": results,
        "path": path, "journal": journal, "outcome": outcome,
        "next_path": next_path,
    }


def test_open_results_hydrates_nothing(lazy_world):
    lazy = open_results(lazy_world["path"])
    results = lazy_world["results"]
    assert isinstance(lazy, LazySurveyResults)
    assert len(lazy.records) == len(results.records)
    # Aggregates and metadata are column/JSON sections, not records.
    assert lazy.vulnerable_servers == results.vulnerable_servers
    assert lazy.compromisable_servers == results.compromisable_servers
    assert lazy.popular_names == results.popular_names
    assert lazy.server_names_controlled == results.server_names_controlled
    assert set(lazy.fingerprints) == set(results.fingerprints)
    assert lazy.metadata == results.metadata
    assert lazy.hydrated_record_count == 0


def test_record_for_hydrates_exactly_one_record(lazy_world):
    lazy = open_results(lazy_world["path"])
    record = lazy_world["results"].records[7]
    loaded = lazy.record_for(record.name)
    assert loaded.to_dict() == record.to_dict()
    assert lazy.hydrated_record_count == 1
    # Repeat access serves the cached object, not a second hydration.
    assert lazy.record_for(record.name) is loaded
    assert lazy.hydrated_record_count == 1
    assert lazy.record_for("no.such.name.zz") is None


def test_lazy_view_satisfies_the_full_results_protocol(lazy_world):
    """Walking every record through the lazy view reproduces the exact
    canonical JSON document — the strongest codec-identity statement."""
    lazy = open_results(lazy_world["path"])
    assert _snapshot_bytes(lazy) == _snapshot_bytes(lazy_world["results"])
    assert lazy.hydrated_record_count == len(lazy.records)


def test_verify_passes_on_a_clean_file(lazy_world):
    open_results(lazy_world["path"]).verify()


def test_dirty_index_builds_without_hydration(lazy_world):
    lazy = open_results(lazy_world["path"])
    index = DirtyIndex(lazy)
    assert len(index) == len(lazy_world["results"].records)
    assert lazy.hydrated_record_count == 0
    record = next(r for r in lazy_world["results"].resolved_records()
                  if r.tcb_servers)
    host = sorted(record.tcb_servers)[0]
    assert record.name in index.names_depending_on(host)


# -- mmap-fed incremental re-survey ----------------------------------------------------

def test_run_delta_from_binary_snapshot_is_byte_identical(lazy_world):
    """The CLI resurvey path with a binary previous: fresh engine, lazy
    snapshot in, byte-identical results out — and only the clean (patched)
    records are ever hydrated."""
    internet, journal = lazy_world["internet"], lazy_world["journal"]
    reference = lazy_world["outcome"]
    lazy = open_results(lazy_world["path"])
    engine = SurveyEngine(internet, config=EngineConfig(passes=PASSES))
    outcome = engine.run_delta(lazy, journal)
    assert _snapshot_bytes(outcome.results) == \
        _snapshot_bytes(reference.results)
    assert outcome.stats.dirty_names == reference.stats.dirty_names
    assert lazy.hydrated_record_count == outcome.stats.patched_names


# -- hydration-free diffing ------------------------------------------------------------

def test_diff_of_two_lazy_snapshots_hydrates_nothing(lazy_world):
    before = open_results(lazy_world["path"])
    after = open_results(lazy_world["next_path"])
    eager = diff_results(lazy_world["results"],
                         lazy_world["outcome"].results)
    lazy = diff_results(before, after)
    assert before.hydrated_record_count == 0
    assert after.hydrated_record_count == 0
    assert lazy.common == eager.common
    assert lazy.changed == eager.changed
    assert lazy.numeric == eager.numeric
    assert lazy.transitions == eager.transitions
    assert [(c.name, c.fields) for c in lazy.top_movers(10)] == \
        [(c.name, c.fields) for c in eager.top_movers(10)]


def test_diff_mixes_lazy_and_hydrated_sides(lazy_world):
    lazy = open_results(lazy_world["path"])
    diff = diff_results(lazy, lazy_world["outcome"].results)
    eager = diff_results(lazy_world["results"],
                         lazy_world["outcome"].results)
    assert lazy.hydrated_record_count == 0
    assert diff.changed == eager.changed
    assert diff.numeric == eager.numeric


# -- corruption and error paths --------------------------------------------------------

def test_open_rejects_wrong_magic(tmp_path):
    junk = tmp_path / "junk.rsnap"
    junk.write_bytes(b"definitely not a snapshot, sorry about that")
    with pytest.raises(SnapshotFormatError, match="magic"):
        open_results(junk)
    with pytest.raises(SnapshotFormatError):
        load_results(junk)


def test_open_rejects_truncated_files(lazy_world, tmp_path):
    data = lazy_world["path"].read_bytes()
    for cut in (0, 4, len(MAGIC) + 2, len(data) // 2):
        clipped = tmp_path / f"cut{cut}.rsnap"
        clipped.write_bytes(data[:cut])
        with pytest.raises(SnapshotFormatError):
            open_results(clipped)


def test_open_rejects_corrupt_header(lazy_world, tmp_path):
    data = bytearray(lazy_world["path"].read_bytes())
    data[len(MAGIC) + 1] ^= 0xFF
    broken = tmp_path / "header.rsnap"
    broken.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError):
        open_results(broken)


def test_verify_catches_payload_corruption(lazy_world, tmp_path):
    """A flipped payload byte is invisible to the O(1) open (header and
    TOC still check out) but must fail the explicit checksum walk."""
    data = bytearray(lazy_world["path"].read_bytes())
    data[len(data) // 2] ^= 0xFF
    flipped = tmp_path / "flipped.rsnap"
    flipped.write_bytes(bytes(data))
    lazy = open_results(flipped)
    with pytest.raises(SnapshotFormatError, match="checksum"):
        lazy.verify()


def test_binary_save_rejects_compression(lazy_world, tmp_path):
    with pytest.raises(ValueError, match="compress"):
        save_results(lazy_world["results"], tmp_path / "snap.rsnap",
                     format="binary", compress=True)


# -- compressed JSON sniffing ----------------------------------------------------------

def test_compressed_json_round_trips_transparently(lazy_world, tmp_path):
    results = lazy_world["results"]
    plain = save_results(results, tmp_path / "snap.json")
    packed = save_results(results, tmp_path / "snap.json.z", compress=True)
    assert sniff_format(packed) == "zlib"
    assert packed.stat().st_size < plain.stat().st_size
    assert _snapshot_bytes(load_results(packed)) == _snapshot_bytes(results)


def test_corrupt_zlib_stream_reports_cleanly(tmp_path):
    bad = tmp_path / "bad.json.z"
    bad.write_bytes(b"\x78\x9c" + b"\x00" * 16)
    with pytest.raises(SnapshotFormatError, match="zlib"):
        load_results(bad)


# -- the delta-shared epoch store ------------------------------------------------------

RATES = ChurnRates(transfer=1.0, death=0.5, upgrade=1.0, downgrade=0.5,
                   region=1.0)


def _store_world(seed):
    config = GeneratorConfig(seed=seed, sld_count=60,
                             directory_name_count=90, university_count=12,
                             hosting_provider_count=6, isp_count=4,
                             alexa_count=15)
    return InternetGenerator(config).generate()


def test_epoch_store_eight_epochs_identity_and_size(tmp_path):
    """Eight churn epochs: every reconstructed epoch is byte-identical to
    the results it archived, and the whole store stays under twice the
    size of one full epoch (the headline delta-sharing guarantee)."""
    world = _store_world(4242)
    model = ChurnModel(world, RATES, seed=9)
    engine = SurveyEngine(world, config=EngineConfig())
    results = engine.run()
    store = EpochStore(tmp_path / "epochs")
    store.append(results)
    expected = [_snapshot_bytes(results)]
    for _ in range(8):
        journal = ChangeJournal(world)
        model.advance(journal)
        outcome = engine.run_delta(results, journal)
        store.append(outcome.results, previous=results,
                     dirty=outcome.dirty)
        results = outcome.results
        expected.append(_snapshot_bytes(results))

    assert store.epochs == 9
    assert sniff_kind(store.epoch_path(0)) == KIND_RESULTS
    assert all(sniff_kind(store.epoch_path(e)) == KIND_DELTA
               for e in range(1, 9))
    for epoch in range(9):
        assert _snapshot_bytes(store.load_epoch(epoch)) == expected[epoch]
    full_epoch = store.epoch_path(0).stat().st_size
    assert store.total_bytes() < 2 * full_epoch

    with pytest.raises(SnapshotFormatError, match="epoch"):
        store.load_epoch(9)


def test_epoch_store_load_is_lazy(tmp_path):
    world = _store_world(1977)
    model = ChurnModel(world, RATES, seed=3)
    engine = SurveyEngine(world, config=EngineConfig())
    results = engine.run()
    store = EpochStore(tmp_path / "epochs")
    store.append(results)
    journal = ChangeJournal(world)
    model.advance(journal)
    outcome = engine.run_delta(results, journal)
    store.append(outcome.results, previous=results, dirty=outcome.dirty)

    lazy = store.load_epoch(1)
    assert lazy.hydrated_record_count == 0
    assert lazy.metadata == outcome.results.metadata
    record = outcome.results.records[3]
    # to_dict comparison: the codec canonicalises like the JSON snapshot
    # does (safety_percentage at three decimals), by design.
    assert lazy.record_for(record.name).to_dict() == record.to_dict()
    assert lazy.hydrated_record_count == 1


def test_epoch_store_periodic_keyframes(tmp_path):
    """``keyframe_every=K`` bounds every overlay chain at K files: full
    snapshots land on each multiple of K, deltas between them, and each
    reconstructed epoch stays byte-identical to what was archived."""
    world = _store_world(4242)
    model = ChurnModel(world, RATES, seed=9)
    engine = SurveyEngine(world, config=EngineConfig())
    results = engine.run()
    store = EpochStore(tmp_path / "epochs", keyframe_every=3)
    store.append(results)
    expected = [_snapshot_bytes(results)]
    for _ in range(7):
        journal = ChangeJournal(world)
        model.advance(journal)
        outcome = engine.run_delta(results, journal)
        store.append(outcome.results, previous=results,
                     dirty=outcome.dirty)
        results = outcome.results
        expected.append(_snapshot_bytes(results))

    assert store.epochs == 8
    kinds = [sniff_kind(store.epoch_path(epoch)) for epoch in range(8)]
    assert kinds == [KIND_RESULTS, KIND_DELTA, KIND_DELTA, KIND_RESULTS,
                     KIND_DELTA, KIND_DELTA, KIND_RESULTS, KIND_DELTA]
    for epoch in range(8):
        assert _snapshot_bytes(store.load_epoch(epoch)) == expected[epoch]


def test_epoch_store_reads_any_keyframe_cadence(tmp_path):
    """Readers sniff keyframes from the file kinds, so a store written
    with one cadence opens fine through a handle configured with another
    (or none at all)."""
    world = _store_world(1977)
    model = ChurnModel(world, RATES, seed=3)
    engine = SurveyEngine(world, config=EngineConfig())
    results = engine.run()
    writer = EpochStore(tmp_path / "epochs", keyframe_every=2)
    writer.append(results)
    history = [_snapshot_bytes(results)]
    for _ in range(3):
        journal = ChangeJournal(world)
        model.advance(journal)
        outcome = engine.run_delta(results, journal)
        writer.append(outcome.results, previous=results,
                      dirty=outcome.dirty)
        results = outcome.results
        history.append(_snapshot_bytes(results))

    plain_reader = EpochStore(tmp_path / "epochs")
    for epoch in range(4):
        assert _snapshot_bytes(plain_reader.load_epoch(epoch)) == \
            history[epoch]


def test_epoch_store_rejects_bad_keyframe_cadence(tmp_path):
    with pytest.raises(ValueError, match="keyframe_every"):
        EpochStore(tmp_path / "epochs", keyframe_every=0)
