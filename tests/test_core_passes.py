"""Tests for the pluggable analysis-pass framework (:mod:`repro.core.passes`)."""

import pytest

import oracle
from repro.dns.name import DomainName
from repro.core.availability import AvailabilityAnalyzer
from repro.core.dnssec_impact import (
    DNSSECImpactAnalyzer,
    impact_report_from_results,
)
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.passes import (
    AvailabilityPass,
    DNSSECImpactPass,
    build_pass,
    build_passes,
    chain_seed,
)
from repro.core.snapshot import load_results, save_results


# -- spec parsing -------------------------------------------------------------------------

def test_build_passes_from_comma_separated_string():
    passes = build_passes("availability,dnssec")
    assert [p.name for p in passes] == ["availability", "dnssec"]


def test_build_pass_with_options():
    availability = build_pass("availability:up=0.95;samples=100;spof=0")
    assert availability.up == pytest.approx(0.95)
    assert availability.samples == 100
    assert availability.spof is False
    assert availability.columns == ("availability", "availability_mc")

    dnssec = build_pass("dnssec:fraction=0.5;sign_tlds=false")
    assert dnssec.fraction == pytest.approx(0.5)
    assert dnssec.sign_tlds is False


def test_build_passes_accepts_instances_and_none():
    instance = AvailabilityPass(up=0.9)
    assert build_passes([instance]) == (instance,)
    assert build_passes(None) == ()
    assert build_passes("") == ()


def test_build_pass_rejects_unknown_names_and_options():
    with pytest.raises(ValueError):
        build_pass("teleportation")
    with pytest.raises(ValueError):
        build_pass("availability:warp=9")
    with pytest.raises(ValueError):
        build_pass("availability:up")


def test_build_passes_rejects_duplicates():
    with pytest.raises(ValueError):
        build_passes("availability,availability")


def test_availability_pass_validates_parameters():
    with pytest.raises(ValueError):
        AvailabilityPass(up=1.5)
    with pytest.raises(ValueError):
        AvailabilityPass(samples=-1)
    with pytest.raises(ValueError):
        DNSSECImpactPass(fraction=-0.1)


def test_chain_seed_is_chain_not_name_derived():
    from repro.core.delegation import zone_node
    key = (zone_node("com"), zone_node("site.com"))
    assert chain_seed(key) == "com|site.com"


# -- engine integration -------------------------------------------------------------------

@pytest.fixture(scope="module")
def pass_internet(small_internet):
    """A module-private same-config Internet: the DNSSEC pass signs zones
    in place, so these tests must not mutate the session-scoped
    ``small_internet``."""
    from repro.topology.generator import InternetGenerator
    return InternetGenerator(small_internet.config).generate()


@pytest.fixture(scope="module")
def pass_survey(pass_internet):
    """A survey over the module Internet with both built-in passes."""
    engine = SurveyEngine(
        pass_internet,
        config=EngineConfig(popular_count=20,
                            passes=("availability:samples=30", "dnssec")))
    return engine, engine.run(max_names=120)


def test_pass_columns_present_on_every_record(pass_survey):
    _engine, results = pass_survey
    assert results.metadata["passes"] == ["availability", "dnssec"]
    for record in results.records:
        assert set(record.extras) == {
            "availability", "availability_spof", "availability_mc",
            "dnssec_status", "dnssec_detected"}
        assert 0.0 <= record.extras["availability"] <= 1.0
        assert 0.0 <= record.extras["availability_mc"] <= 1.0
        assert record.extras["availability_spof"] >= 0
        assert record.extras["dnssec_status"] in ("secure", "insecure",
                                                  "bogus")


def test_availability_columns_match_legacy_graph_path(pass_survey):
    """Engine-pass availability == a fresh analyzer on materialised graphs."""
    engine, results = pass_survey
    analyzer = AvailabilityAnalyzer(0.99)
    for record in results.resolved_records()[:25]:
        graph = engine.builder.build(record.name)
        assert record.extras["availability"] == pytest.approx(
            analyzer.resolution_probability(graph), abs=1e-12)
        assert record.extras["availability_spof"] == \
            len(oracle.single_points_of_failure(graph.graph, record.name,
                                                graph.tcb()))


def test_dnssec_detected_implies_hijackable_and_secure(pass_survey):
    _engine, results = pass_survey
    for record in results.resolved_records():
        if record.extras["dnssec_detected"]:
            assert record.classification in ("complete", "dos-assisted")
            assert record.extras["dnssec_status"] == "secure"


def test_impact_report_from_results_matches_post_hoc_analyzer(pass_survey,
                                                              pass_internet):
    engine, results = pass_survey
    # The pass records its deployment fraction in the survey metadata, so
    # the aggregate report needs no explicit fraction argument.
    assert results.metadata["dnssec_fraction"] == 1.0
    from_extras = impact_report_from_results(results)
    assert from_extras.deployment_fraction == 1.0
    dnssec_pass = engine.passes[1]
    analyzer = DNSSECImpactAnalyzer(pass_internet, dnssec_pass.deployment)
    post_hoc = analyzer.analyze(
        results, names=[r.name for r in results.resolved_records()])
    assert from_extras.names_checked == post_hoc.names_checked
    assert from_extras.secure == post_hoc.secure
    assert from_extras.hijackable == post_hoc.hijackable
    assert from_extras.hijackable_detected == post_hoc.hijackable_detected


def test_names_sharing_a_chain_share_pass_columns(pass_survey):
    engine, results = pass_survey
    by_chain = {}
    for record in results.resolved_records():
        chain = tuple(engine.builder.tcb_view(record.name).direct_zones())
        by_chain.setdefault(chain, []).append(record)
    shared = [group for group in by_chain.values() if len(group) > 1]
    assert shared, "expected at least one chain with several names"
    for group in shared:
        first = group[0].extras
        for record in group[1:]:
            assert record.extras == first


def test_snapshot_round_trips_extras(pass_survey, tmp_path):
    _engine, results = pass_survey
    path = save_results(results, tmp_path / "passes.json")
    loaded = load_results(path)
    assert [r.extras for r in loaded.records] == \
        [r.extras for r in results.records]
    assert loaded.extras_summary() == results.extras_summary()


def test_extras_summary_shapes(pass_survey):
    _engine, results = pass_survey
    summary = results.extras_summary()
    assert 0.0 <= summary["availability"] <= 1.0
    assert 0.0 <= summary["dnssec_detected"] <= 1.0
    status_fractions = [value for key, value in summary.items()
                        if key.startswith("dnssec_status=")]
    assert status_fractions
    assert sum(status_fractions) == pytest.approx(1.0)


# -- value ranking pass (finalize hook) ---------------------------------------------------

def test_value_pass_spec_and_options():
    value = build_pass("value:top=3;high_leverage_fraction=0.2")
    assert value.name == "value"
    assert value.top == 3
    assert value.high_leverage_fraction == 0.2
    assert value.columns == ()
    with pytest.raises(ValueError):
        build_pass("value:bogus=1")
    with pytest.raises(ValueError):
        build_pass("value:top=-1")


def test_value_pass_finalize_matches_post_hoc_analyzer(small_internet):
    """The finalize() reduce over aggregator counts must equal the post-hoc
    SurveyResults.value_analyzer() walk."""
    engine = SurveyEngine(
        small_internet,
        config=EngineConfig(popular_count=10, passes=("value:top=5",)))
    results = engine.run(max_names=80)
    post_hoc = results.value_analyzer()

    summary = results.metadata["value_summary"]
    reference = post_hoc.summary()
    for key in ("servers", "names", "mean_names_controlled",
                "median_names_controlled"):
        assert summary[key] == pytest.approx(reference[key], abs=1e-6), key

    top = results.metadata["value_top_servers"]
    assert len(top) <= 5
    reference_ranking = post_hoc.ranking()[:len(top)]
    assert [entry["hostname"] for entry in top] == \
        [str(value.hostname) for value in reference_ranking]
    assert [entry["names_controlled"] for entry in top] == \
        [value.names_controlled for value in reference_ranking]
    # Per-record columns are untouched: the pass is metadata-only.
    assert "value" not in results.extras_columns()


def test_value_pass_finalize_identical_across_backends(small_internet):
    from repro.core.engine import BACKENDS
    from repro.distrib.coordinator import LocalWorkerFleet
    from repro.topology.generator import InternetGenerator

    # Private same-config world: socket workers regenerate it from the
    # GeneratorConfig, so the in-process copy must be pristine.
    internet = InternetGenerator(small_internet.config).generate()
    metadata = {}
    with LocalWorkerFleet(2) as fleet:
        for backend in BACKENDS:
            addrs = fleet.addresses if backend == "socket" else ()
            engine = SurveyEngine(
                internet,
                config=EngineConfig(popular_count=10, backend=backend,
                                    passes=("value",),
                                    worker_addrs=tuple(addrs)))
            try:
                results = engine.run(max_names=60)
            finally:
                engine.close()
            metadata[backend] = (results.metadata["value_summary"],
                                 results.metadata["value_top_servers"])
    for backend in BACKENDS[1:]:
        assert metadata[backend] == metadata["serial"], backend


def test_value_pass_snapshot_round_trip(small_internet, tmp_path):
    engine = SurveyEngine(
        small_internet,
        config=EngineConfig(popular_count=5, passes=("value:top=2",)))
    results = engine.run(max_names=40)
    path = save_results(results, tmp_path / "value.json")
    loaded = load_results(path)
    assert loaded.metadata["value_summary"] == \
        results.metadata["value_summary"]
    assert loaded.metadata["value_top_servers"] == \
        results.metadata["value_top_servers"]


def test_dnssec_zone_cache_preserves_validation_results(pass_internet):
    """ChainValidator(cache_zones=True) must agree with the uncached path."""
    from repro.dns.dnssec import ChainValidator

    resolver = pass_internet.make_resolver()
    cached = ChainValidator(resolver, cache_zones=True)
    uncached = ChainValidator(pass_internet.make_resolver())
    names = [entry.name for entry in pass_internet.directory.entries()[:40]]
    for name in names:
        got = cached.validate(name)
        want = uncached.validate(name)
        assert (got.status, got.broken_zone, got.detail) == \
            (want.status, want.broken_zone, want.detail), str(name)
