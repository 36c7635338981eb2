"""Tests for :mod:`repro.core.timeline` (the longitudinal epoch loop).

The acceptance property: every epoch's incremental snapshot must be
byte-identical to a cold full survey of the cumulatively mutated world —
checked here via the runner's own cold audit across seeds × backends — and
the emitted timeline must be machine-readable and monotone where the world
is (DNSSEC never regresses, epochs contiguous).
"""

import dataclasses
import json

import pytest

from repro.core.timeline import (
    Timeline,
    TimelineSnapshot,
    dnssec_spec_options,
    load_timeline,
    run_churn_timeline,
    save_timeline,
    _with_dnssec_fraction,
)
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

#: Two seeds so nothing passes by topological accident.
SEEDS = (4242, 1977)

#: Two backends: the serial reference and the partitioned one.
BACKENDS = ("serial", "socket")

RATES = ChurnRates(transfer=1.0, death=0.5, upgrade=1.0, downgrade=0.5,
                   region=1.0, dnssec=0.15)

PASSES = ("availability:samples=4", "dnssec:fraction=0.3")

EPOCHS = 3


def _world(seed):
    config = GeneratorConfig(seed=seed, sld_count=60,
                             directory_name_count=90, university_count=12,
                             hosting_provider_count=6, isp_count=4,
                             alexa_count=15)
    return InternetGenerator(config).generate()


def _model(world, churn_seed=9, passes=PASSES):
    fraction, dnssec_seed, sign_tlds = dnssec_spec_options(passes)
    return ChurnModel(world, RATES, seed=churn_seed,
                      initial_dnssec=fraction, dnssec_seed=dnssec_seed,
                      dnssec_sign_tlds=sign_tlds)


@pytest.fixture(scope="module", params=SEEDS)
def audited_timeline(request):
    """Per-seed: a serial cold-audited run (the delta-correctness oracle)."""
    world = _world(request.param)
    timeline = run_churn_timeline(world, _model(world), epochs=EPOCHS,
                                  passes=PASSES, popular_count=15,
                                  cold_check=True)
    return timeline


# -- delta-correctness (seeds x backends) ----------------------------------------------

def test_every_epoch_matches_its_cold_survey(audited_timeline):
    epochs = audited_timeline.snapshots[1:]
    assert len(epochs) == EPOCHS
    assert all(snapshot.cold_identical for snapshot in epochs)
    assert all(snapshot.cold_elapsed_s > 0 for snapshot in epochs)


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_backends_stay_delta_correct(seed, backend, worker_trio):
    """The epoch loop holds its cold contract off the serial backend too,
    and its config records the workers that served it."""
    world = _world(seed)
    timeline = run_churn_timeline(world, _model(world), epochs=EPOCHS,
                                  backend=backend, worker_addrs=worker_trio,
                                  passes=PASSES, popular_count=15,
                                  cold_check=True)
    assert all(snapshot.cold_identical
               for snapshot in timeline.snapshots[1:])
    assert timeline.config["workers"] == len(worker_trio) == 3


def _timing_free(timeline):
    """Snapshot dicts with wall-clock (and audit) fields zeroed out."""
    return [dict(snapshot.to_dict(), cold_elapsed_s=None,
                 cold_identical=None, delta_elapsed_s=0)
            for snapshot in timeline.snapshots]


def test_same_scenario_reduces_identically():
    """Same world seed + churn seed + rates: the reduction reproduces."""
    runs = []
    for _ in range(2):
        world = _world(SEEDS[0])
        runs.append(run_churn_timeline(world, _model(world), epochs=EPOCHS,
                                       passes=PASSES, popular_count=15))
    assert _timing_free(runs[0]) == _timing_free(runs[1])


# -- timeline invariants ---------------------------------------------------------------

def test_epochs_are_contiguous_and_dnssec_is_monotone(audited_timeline):
    audited_timeline.validate()
    epochs = audited_timeline.drift_series("epoch")
    assert epochs == list(range(len(epochs)))
    fractions = audited_timeline.drift_series("dnssec_fraction")
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > fractions[0], "dnssec rate 0.15 must show drift"


def test_drift_series_is_non_empty_and_live(audited_timeline):
    changed = audited_timeline.drift_series("changed_names")
    assert changed[0] == 0
    assert sum(changed[1:]) > 0, "three churn epochs must move something"
    assert all(snapshot.events > 0
               for snapshot in audited_timeline.snapshots[1:])
    baseline = audited_timeline.snapshots[0]
    assert baseline.dirty_names == baseline.total_names
    assert all(snapshot.dirty_names < snapshot.total_names
               for snapshot in audited_timeline.snapshots[1:])


def test_timeline_round_trips_through_json(audited_timeline, tmp_path):
    path = save_timeline(audited_timeline, tmp_path / "timeline.json")
    loaded = load_timeline(path)
    assert loaded.to_dict() == audited_timeline.to_dict()
    # The file itself is plain, sorted, machine-readable JSON.
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["format_version"] == 1
    assert [row["epoch"] for row in payload["snapshots"]] == \
        list(range(EPOCHS + 1))


def _snapshot(epoch=0, **overrides):
    base = dict(epoch=epoch, events=0, event_kinds={}, total_names=10,
                dirty_names=10, patched_names=0, dirty_fraction=1.0,
                delta_elapsed_s=0.1, names_resolved=9,
                hijackable_fraction=0.3, mean_tcb=20.0, median_tcb=18.0,
                p95_tcb=40.0, mean_mincut=2.0,
                vulnerable_dependency_fraction=0.4, availability_mean=None,
                dnssec_secure_fraction=None, dnssec_fraction=0.2,
                changed_names=0, added_names=0, removed_names=0,
                tcb_mean_abs_delta=0.0, top_movers=[])
    base.update(overrides)
    return TimelineSnapshot(**base)


def test_validate_rejects_gapped_epochs():
    timeline = Timeline(config={}, snapshots=[_snapshot(0), _snapshot(2)])
    with pytest.raises(ValueError, match="contiguous"):
        timeline.validate()


def test_validate_rejects_shrinking_dnssec():
    timeline = Timeline(config={}, snapshots=[
        _snapshot(0, dnssec_fraction=0.5),
        _snapshot(1, dnssec_fraction=0.4)])
    with pytest.raises(ValueError, match="monotone"):
        timeline.validate()


def test_validate_rejects_inconsistent_directories():
    timeline = Timeline(config={}, snapshots=[
        _snapshot(0), _snapshot(1, total_names=11)])
    with pytest.raises(ValueError, match="same directory"):
        timeline.validate()


def test_from_dict_rejects_unknown_fields_and_versions():
    with pytest.raises(ValueError, match="format version"):
        Timeline.from_dict({"format_version": 99})
    payload = dataclasses.asdict(_snapshot(0))
    payload["surprise"] = 1
    with pytest.raises(ValueError, match="unknown timeline snapshot field"):
        TimelineSnapshot.from_dict(payload)


def test_from_dict_rejects_missing_fields():
    payload = dataclasses.asdict(_snapshot(0))
    del payload["mean_tcb"]
    with pytest.raises(ValueError, match="missing field.*mean_tcb"):
        TimelineSnapshot.from_dict(payload)
    # The audit-only fields are optional: absent is fine, not an error.
    optional = dataclasses.asdict(_snapshot(0))
    del optional["cold_elapsed_s"], optional["cold_identical"]
    assert TimelineSnapshot.from_dict(optional).cold_identical is None


# -- plumbing --------------------------------------------------------------------------

def test_dnssec_spec_options_reads_the_pass_spec():
    assert dnssec_spec_options(()) == (0.0, "repro-dnssec", True)
    assert dnssec_spec_options(None) == (0.0, "repro-dnssec", True)
    assert dnssec_spec_options(("availability",)) == \
        (0.0, "repro-dnssec", True)
    assert dnssec_spec_options(("dnssec",)) == (1.0, "repro-dnssec", True)
    assert dnssec_spec_options(
        ("availability", "dnssec:fraction=0.4;seed=alt")) == \
        (0.4, "alt", True)
    # The CLI comma-string form, with the sign-TLDs policy carried through.
    assert dnssec_spec_options(
        "availability, dnssec:fraction=0.4;sign_tlds=false") == \
        (0.4, "repro-dnssec", False)


def test_cold_audit_respects_sign_tlds_policy():
    """A sign_tlds=false pass must survive churn adoption + cold audit."""
    world = _world(SEEDS[0])
    passes = ("dnssec:fraction=0.3;sign_tlds=false",)
    timeline = run_churn_timeline(world, _model(world, passes=passes),
                                  epochs=2, passes=passes,
                                  popular_count=15, cold_check=True)
    assert all(snapshot.cold_identical
               for snapshot in timeline.snapshots[1:])


def test_with_dnssec_fraction_rewrites_only_the_dnssec_spec():
    specs = ("availability:samples=4", "dnssec:fraction=0.3;seed=alt")
    rewritten = _with_dnssec_fraction(specs, 0.55)
    assert rewritten[0] == "availability:samples=4"
    assert rewritten[1].startswith("dnssec:fraction=0.55")
    assert "seed=alt" in rewritten[1]


def test_runner_rejects_pass_instances():
    world = _world(4242)
    from repro.core.passes import build_passes
    with pytest.raises(TypeError, match="spec strings"):
        run_churn_timeline(world, _model(world), epochs=0,
                           passes=build_passes("availability"))


def test_runner_rejects_negative_epochs():
    world = _world(4242)
    with pytest.raises(ValueError, match="epochs"):
        run_churn_timeline(world, _model(world), epochs=-1)


# -- the binary epoch store ------------------------------------------------------------

def test_run_with_store_persists_every_epoch(tmp_path):
    """store= archives epoch 0 full + one delta per churn epoch, and every
    reconstructed epoch opens lazily with the epoch's own metadata."""
    from repro.core.snapstore import EpochStore

    world = _world(SEEDS[0])
    store_dir = tmp_path / "epochs"
    timeline = run_churn_timeline(world, _model(world), epochs=EPOCHS,
                                  passes=PASSES, popular_count=15,
                                  store=store_dir)
    assert timeline.config["store"] == str(store_dir)
    store = EpochStore(store_dir)
    assert store.epochs == EPOCHS + 1
    last = store.load_epoch(EPOCHS)
    assert last.hydrated_record_count == 0
    assert len(last.records) == timeline.snapshots[-1].total_names
    resolved = sum(1 for record in last.records if record.resolved)
    assert resolved == timeline.snapshots[-1].names_resolved


def test_run_refuses_a_non_empty_store(tmp_path):
    from repro.core.snapstore import EpochStore

    world = _world(SEEDS[0])
    store_dir = tmp_path / "epochs"
    run_churn_timeline(world, _model(world), epochs=0, store=store_dir)
    assert EpochStore(store_dir).epochs == 1
    with pytest.raises(ValueError, match="not empty"):
        run_churn_timeline(world, _model(world), epochs=0, store=store_dir)


# -- input sniffing --------------------------------------------------------------------

def test_load_timeline_rejects_binary_snapshots(tmp_path):
    from repro.core.snapstore import MAGIC, SnapshotFormatError

    wrong = tmp_path / "results.rsnap"
    wrong.write_bytes(MAGIC + b"not a timeline")
    with pytest.raises(SnapshotFormatError, match="not a timeline"):
        load_timeline(wrong)


def test_load_timeline_rejects_corrupt_zlib_and_json(tmp_path):
    from repro.core.snapstore import SnapshotFormatError

    bad_zlib = tmp_path / "bad.json.z"
    bad_zlib.write_bytes(b"\x78\x9c" + b"\x00" * 8)
    with pytest.raises(SnapshotFormatError, match="zlib"):
        load_timeline(bad_zlib)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{definitely not json")
    with pytest.raises(SnapshotFormatError, match="malformed"):
        load_timeline(bad_json)
