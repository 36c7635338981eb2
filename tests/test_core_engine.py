"""Tests for the staged survey engine: backend parity, closures, caching."""

import gc
import json
import random

import pytest

from repro.dns.name import DomainName
from repro.core.delegation import (
    ClosureIndex,
    DelegationGraphBuilder,
    NS_KIND,
    name_node,
    ns_node,
    zone_node,
)
from repro.core.graphcore import DependencyUniverse
from repro.core.engine import BACKENDS, EngineConfig, SurveyEngine
from repro.core.mincut import BottleneckAnalyzer
from repro.core.snapshot import load_results, results_to_dict, save_results
from repro.core.survey import Survey
from repro.distrib.coordinator import LocalWorkerFleet
from repro.topology.changes import ChangeJournal
from repro.topology.generator import GeneratorConfig, InternetGenerator


# -- closure index unit behaviour --------------------------------------------------------

def _names(closure):
    return {str(host) for host in closure}


def test_closure_index_simple_chain():
    graph = DependencyUniverse()
    graph.add_edge(name_node("www.a.test"), zone_node("a.test"))
    graph.add_edge(zone_node("a.test"), ns_node("ns1.a.test"))
    graph.add_edge(zone_node("a.test"), ns_node("ns2.a.test"))
    index = ClosureIndex(graph)
    assert _names(index.closure(name_node("www.a.test"))) == \
        {"ns1.a.test", "ns2.a.test"}
    # NS nodes contribute themselves.
    assert _names(index.closure(ns_node("ns1.a.test"))) == {"ns1.a.test"}


def test_closure_index_handles_cycles():
    # Mutual secondaries: a.test served by a host whose zone depends on
    # b.test, which is served by a host whose zone depends on a.test.
    graph = DependencyUniverse()
    graph.add_edge(zone_node("a.test"), ns_node("ns.a.test"))
    graph.add_edge(ns_node("ns.a.test"), zone_node("b.test"))
    graph.add_edge(zone_node("b.test"), ns_node("ns.b.test"))
    graph.add_edge(ns_node("ns.b.test"), zone_node("a.test"))
    index = ClosureIndex(graph)
    closure = index.closure(zone_node("a.test"))
    assert _names(closure) == {"ns.a.test", "ns.b.test"}
    # All members of the cycle share one closure object.
    assert index.closure(zone_node("b.test")) is closure
    assert index.closure(ns_node("ns.a.test")) is closure


def test_closure_index_excludes_suffixes():
    graph = DependencyUniverse()
    graph.add_edge(zone_node("a.test"), ns_node("ns.a.test"))
    graph.add_edge(zone_node("a.test"), ns_node("x.root-servers.net"))
    index = ClosureIndex(graph, (DomainName("root-servers.net"),))
    assert _names(index.closure(zone_node("a.test"))) == {"ns.a.test"}


def test_closure_index_invalidation_recomputes():
    graph = DependencyUniverse()
    graph.add_edge(name_node("www.a.test"), zone_node("a.test"))
    graph.add_edge(zone_node("a.test"), ns_node("ns1.a.test"))
    index = ClosureIndex(graph)
    assert _names(index.closure(name_node("www.a.test"))) == {"ns1.a.test"}
    version = index.version
    graph.add_edge(zone_node("a.test"), ns_node("ns2.a.test"))
    index.invalidate(zone_node("a.test"))
    assert _names(index.closure(name_node("www.a.test"))) == \
        {"ns1.a.test", "ns2.a.test"}
    assert index.version > version


def test_closure_index_unknown_node_is_empty_and_uncached():
    graph = DependencyUniverse()
    index = ClosureIndex(graph)
    assert index.closure(zone_node("ghost.test")) == frozenset()
    assert len(index) == 0


# -- builder closure vs. fresh-reachability ground truth -----------------------------------

def _descendants_tcb(builder, name):
    """Ground-truth TCB computed the pre-engine way (fresh BFS every time)."""
    universe = builder.universe
    source = name_node(name)
    reachable = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for succ in universe.successors(node):
            if succ not in reachable:
                reachable.add(succ)
                frontier.append(succ)
    return {key[1] for key in reachable
            if key[0] == NS_KIND and
            not key[1].is_subdomain_of("root-servers.net")}


def test_tcb_view_matches_descendants_on_mini_internet(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    for name in ("www.example.com", "www.uni.edu", "www.hostco.com"):
        view = builder.tcb_view(name)
        assert view.tcb() == _descendants_tcb(builder, name)
        assert view.tcb_size() == len(view.tcb())
    # Growing the universe must not leave stale closures behind: re-check
    # the first name after the others were discovered.
    fresh = builder.tcb_view("www.example.com")
    assert fresh.tcb() == _descendants_tcb(builder, "www.example.com")


def test_closure_memoization_matches_descendants_on_survey(small_internet,
                                                           small_survey):
    """Regression: memoized closures == fresh reachability on a sample."""
    survey = Survey(small_internet, popular_count=10)
    sample = random.Random(7).sample(small_survey.resolved_records(), 25)
    builder = survey.builder
    for record in sample:
        closure = builder.closure_of(record.name)
        assert set(closure) == _descendants_tcb(builder, record.name)
        assert set(closure) == record.tcb_servers


def test_tcb_view_equivalent_to_delegation_graph(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    for name in ("www.example.com", "www.uni.edu"):
        graph = builder.build(name)
        view = builder.tcb_view(name)
        assert view.tcb() == graph.tcb()
        assert view.tcb_size() == graph.tcb_size()
        assert view.in_bailiwick_servers() == graph.in_bailiwick_servers()
        assert view.direct_zones() == graph.direct_zones()
        assert view.authoritative_zone() == graph.authoritative_zone()
        # The bottleneck analysis sees identical structure through both.
        vuln = {host: "partner" in str(host) for host in graph.tcb()}
        from_graph = BottleneckAnalyzer(vuln).analyze(graph)
        from_view = BottleneckAnalyzer(vuln).analyze(view)
        assert from_view.cut_servers == from_graph.cut_servers
        assert from_view.safe_in_cut == from_graph.safe_in_cut


# -- backend parity -----------------------------------------------------------------------

def _strip_metadata(results):
    payload = results_to_dict(results)
    payload.pop("metadata")
    return json.dumps(payload, sort_keys=True)


def test_backends_produce_identical_results(small_internet):
    # A private same-config world: the socket workers regenerate the world
    # from its GeneratorConfig, so the in-process copy they are compared
    # against must be pristine, not mutated by earlier tests.
    internet = InternetGenerator(small_internet.config).generate()
    outputs = {}
    with LocalWorkerFleet(2) as fleet:
        for backend in BACKENDS:
            addrs = fleet.addresses if backend == "socket" else ()
            survey = Survey(internet, popular_count=20, backend=backend,
                            worker_addrs=addrs)
            try:
                outputs[backend] = survey.run(max_names=90)
            finally:
                survey.close()
    serial = outputs["serial"]
    for backend in BACKENDS[1:]:
        assert outputs[backend].headline() == serial.headline()
        assert _strip_metadata(outputs[backend]) == _strip_metadata(serial)
        assert outputs[backend].metadata["backend"] == backend


def test_backends_produce_identical_pass_columns(small_internet):
    """Determinism matrix with analysis passes: same seed => byte-identical
    SurveyResults (availability / Monte-Carlo / DNSSEC columns included) on
    every backend."""
    # A private same-config world: the DNSSEC pass signs zones in place and
    # must not mutate the session-scoped small_internet other tests observe
    # (and the socket workers regenerate from the config regardless).
    internet = InternetGenerator(small_internet.config).generate()
    outputs = {}
    with LocalWorkerFleet(2) as fleet:
        for backend in BACKENDS:
            addrs = fleet.addresses if backend == "socket" else ()
            survey = Survey(internet, popular_count=20, backend=backend,
                            worker_addrs=addrs,
                            passes=("availability:samples=25", "dnssec"))
            try:
                outputs[backend] = survey.run(max_names=80)
            finally:
                survey.close()
    serial = outputs["serial"]
    assert serial.extras_columns() == [
        "availability", "availability_mc", "availability_spof",
        "dnssec_detected", "dnssec_status"]
    for backend in BACKENDS[1:]:
        assert _strip_metadata(outputs[backend]) == _strip_metadata(serial)
        assert outputs[backend].metadata["passes"] == \
            ["availability", "dnssec"]


def test_socket_backend_merges_shard_maps(small_internet, worker_trio):
    survey = Survey(small_internet, popular_count=5, backend="socket",
                    worker_addrs=worker_trio)
    try:
        results = survey.run(max_names=45)
    finally:
        survey.close()
    vulnerability_map, compromisable_map = survey.engine.vulnerability_maps()
    discovered = {host for record in results.resolved_records()
                  for host in record.tcb_servers}
    assert discovered
    assert discovered <= set(vulnerability_map)
    assert discovered <= set(compromisable_map)
    assert set(results.fingerprints) >= discovered


def test_engine_records_match_fresh_per_name_analysis(small_internet):
    """Every engine record (chain-template cache included) must equal a
    from-scratch per-name computation."""
    from repro.core.tcb import compute_tcb_report

    engine = SurveyEngine(small_internet,
                          config=EngineConfig(popular_count=10))
    results = engine.run(max_names=60)
    vulnerability_map, compromisable_map = engine.vulnerability_maps()
    builder = DelegationGraphBuilder(small_internet.make_resolver())
    for record in results.resolved_records():
        graph = builder.build(record.name)
        assert graph.tcb() == record.tcb_servers
        report = compute_tcb_report(graph, vulnerability_map,
                                    compromisable_map)
        assert report.size == record.tcb_size
        assert report.in_bailiwick_count == record.in_bailiwick
        assert report.vulnerable_count == record.vulnerable_in_tcb
        bottleneck = BottleneckAnalyzer(compromisable_map).analyze(graph)
        assert bottleneck.size == record.mincut_size
        assert bottleneck.safe_in_cut == record.mincut_safe
        assert set(bottleneck.cut_servers) == record.mincut_servers


def test_engine_snapshot_round_trip(small_internet, tmp_path, worker_trio):
    with SurveyEngine(small_internet, config=EngineConfig(
            backend="socket", worker_addrs=tuple(worker_trio),
            popular_count=10)) as engine:
        results = engine.run(max_names=40)
    path = save_results(results, tmp_path / "engine.json")
    loaded = load_results(path)
    assert loaded.headline() == results.headline()
    assert [r.to_dict() for r in loaded.records] == \
        [r.to_dict() for r in results.records]


# -- engine configuration ----------------------------------------------------------------

def test_engine_config_rejects_unknown_backend():
    assert BACKENDS == ("serial", "socket")
    for backend in ("gpu", "thread", "sharded", "process"):
        with pytest.raises(ValueError, match=r"expected one of "
                           r"\('serial', 'socket'\)"):
            EngineConfig(backend=backend).validate()
    with pytest.raises(ValueError, match="needs worker_addrs"):
        EngineConfig(backend="socket").validate()


def test_survey_facade_exposes_engine(small_internet):
    survey = Survey(small_internet, popular_count=5)
    assert survey.engine.builder is survey.builder
    assert survey.engine.resolver is survey.resolver
    assert survey.engine.fingerprinter is survey.fingerprinter


# -- collector scope ------------------------------------------------------------------

class _Abort(Exception):
    pass


@pytest.mark.parametrize("backend", ["serial", "socket"])
def test_survey_freezes_the_collector_for_the_call_only(backend, request):
    """run() and run_delta() freeze what is alive while they survey and
    thaw it after, also when the survey raises; a caller's own freeze is
    left as it was, with none added on top."""
    internet = InternetGenerator(GeneratorConfig(
        seed=42, sld_count=60, directory_name_count=90,
        university_count=12)).generate()
    addrs = ()
    if backend == "socket":
        # Workers in processes of their own: thread-served ones would free
        # objects this process froze, and the freeze count would drop.
        fleet = LocalWorkerFleet(2)
        request.addfinalizer(fleet.stop)
        addrs = tuple(fleet.start())
    engine = SurveyEngine(internet, config=EngineConfig(
        backend=backend, worker_addrs=addrs, popular_count=10))
    request.addfinalizer(engine.close)
    before = gc.get_freeze_count()
    frozen = []

    def watch(done, total):
        frozen.append(gc.get_freeze_count())

    results = engine.run(max_names=30, progress=watch)
    assert gc.get_freeze_count() == before
    assert max(frozen) > before

    host = next(iter(results.resolved_records()[0].tcb_servers))
    journal = ChangeJournal(internet)
    journal.set_server_software(host, "BIND 8.2.2")
    frozen.clear()
    outcome = engine.run_delta(results, journal, max_names=30,
                               progress=watch)
    assert outcome.stats.dirty_names > 0
    assert gc.get_freeze_count() == before
    assert max(frozen) > before

    def abort(done, total):
        raise _Abort()

    with pytest.raises(_Abort):
        engine.run(max_names=30, progress=abort)
    assert gc.get_freeze_count() == before

    gc.freeze()
    try:
        held = gc.get_freeze_count()
        frozen.clear()
        engine.run(max_names=30, progress=watch)
        assert set(frozen) == {held}
        assert gc.get_freeze_count() == held
    finally:
        gc.unfreeze()
