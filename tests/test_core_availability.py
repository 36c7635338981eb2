"""Tests for :mod:`repro.core.availability`."""

import random

import networkx as nx
import pytest

import oracle
from repro.dns.name import DomainName
from repro.core.availability import (
    AvailabilityAnalyzer,
    availability_security_tradeoff,
)
from repro.core.delegation import (
    DelegationGraph,
    DelegationGraphBuilder,
    name_node,
    ns_node,
    zone_node,
)


def two_level_graph(ns_per_zone=2):
    """name -> [tld zone -> registry NS], [leaf zone -> leaf NS]."""
    graph = nx.DiGraph()
    target = name_node("www.site.com")
    tld = zone_node("com")
    leaf = zone_node("site.com")
    graph.add_edge(target, tld)
    graph.add_edge(target, leaf)
    for index in range(ns_per_zone):
        registry = ns_node(f"ns{index}.registry.net")
        graph.add_edge(tld, registry)
        graph.add_edge(registry, tld)
        leaf_ns = ns_node(f"ns{index}.leaf.net")
        graph.add_edge(leaf, leaf_ns)
        graph.add_edge(leaf_ns, tld)
    return DelegationGraph("www.site.com", graph)


# -- analytic evaluation ---------------------------------------------------------------

def test_perfect_uptime_gives_certain_resolution():
    analyzer = AvailabilityAnalyzer(1.0)
    assert analyzer.resolution_probability(two_level_graph()) == \
        pytest.approx(1.0)


def test_zero_uptime_gives_no_resolution():
    analyzer = AvailabilityAnalyzer(0.0)
    assert analyzer.resolution_probability(two_level_graph()) == \
        pytest.approx(0.0)


def test_single_server_zones_follow_up_probability():
    graph = two_level_graph(ns_per_zone=1)
    analyzer = AvailabilityAnalyzer(0.9)
    # The TLD zone needs its single registry server, which in turn needs the
    # TLD zone (cycle -> counted once more as its own up-probability), and
    # the leaf zone needs its server plus the TLD chain for that server's
    # hostname: p^2 * (p * p^2) = p^5.
    expected = 0.9 ** 5
    assert analyzer.resolution_probability(graph) == pytest.approx(expected)


def test_redundancy_improves_availability():
    analyzer = AvailabilityAnalyzer(0.8)
    single = analyzer.resolution_probability(two_level_graph(ns_per_zone=1))
    double = analyzer.resolution_probability(two_level_graph(ns_per_zone=2))
    triple = analyzer.resolution_probability(two_level_graph(ns_per_zone=3))
    assert single < double < triple <= 1.0


def test_per_server_probability_map():
    graph = two_level_graph(ns_per_zone=1)
    analyzer = AvailabilityAnalyzer(
        {"ns0.leaf.net": 0.0}, default_up=1.0)
    assert analyzer.up_probability(DomainName("ns0.leaf.net")) == 0.0
    assert analyzer.resolution_probability(graph) == pytest.approx(0.0)


def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError):
        AvailabilityAnalyzer(1.5)
    with pytest.raises(ValueError):
        AvailabilityAnalyzer({"ns.example.com": 0.5}, default_up=-0.1)


def test_empty_graph_has_zero_availability():
    graph = DelegationGraph("www.nowhere.zz", nx.DiGraph())
    analyzer = AvailabilityAnalyzer(0.99)
    assert analyzer.resolution_probability(graph) == 0.0
    assert not analyzer.resolvable_with_failures(graph, set())


# -- exact failure checks ------------------------------------------------------------------

def test_resolvable_with_failures_and_spof():
    graph = two_level_graph(ns_per_zone=1)
    analyzer = AvailabilityAnalyzer(1.0)
    assert analyzer.resolvable_with_failures(graph, set())
    assert not analyzer.resolvable_with_failures(
        graph, {DomainName("ns0.leaf.net")})
    spof = analyzer.single_points_of_failure(graph)
    assert DomainName("ns0.leaf.net") in spof
    assert DomainName("ns0.registry.net") in spof


def test_redundant_zones_have_no_spof():
    graph = two_level_graph(ns_per_zone=2)
    analyzer = AvailabilityAnalyzer(1.0)
    assert analyzer.single_points_of_failure(graph) == frozenset()
    # Failing one server of each zone still resolves; failing both leaf
    # servers does not.
    assert analyzer.resolvable_with_failures(
        graph, {DomainName("ns0.leaf.net"), DomainName("ns0.registry.net")})
    assert not analyzer.resolvable_with_failures(
        graph, {DomainName("ns0.leaf.net"), DomainName("ns1.leaf.net")})


# -- Monte Carlo agreement ----------------------------------------------------------------------

def test_monte_carlo_close_to_analytic():
    graph = two_level_graph(ns_per_zone=2)
    analyzer = AvailabilityAnalyzer(0.9)
    analytic = analyzer.resolution_probability(graph)
    estimate = analyzer.monte_carlo(graph, samples=3000,
                                    rng=random.Random(5))
    assert abs(estimate - analytic) < 0.05


def test_monte_carlo_validation():
    graph = two_level_graph()
    analyzer = AvailabilityAnalyzer(0.9)
    with pytest.raises(ValueError):
        analyzer.monte_carlo(graph, samples=0)


def test_report_contains_all_fields():
    graph = two_level_graph(ns_per_zone=1)
    analyzer = AvailabilityAnalyzer(0.95)
    report = analyzer.report(graph, samples=200, rng=random.Random(1))
    assert report.name == DomainName("www.site.com")
    assert 0.0 < report.analytic < 1.0
    assert report.monte_carlo is not None
    assert report.samples == 200
    assert report.has_single_point_of_failure


# -- against resolver-built graphs and the trade-off summary -----------------------------------------

def test_mini_internet_availability(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    analyzer = AvailabilityAnalyzer(0.95)
    probability = analyzer.resolution_probability(graph)
    assert 0.8 < probability <= 1.0
    # The analytic value agrees with the exact evaluation under no failures.
    assert analyzer.resolvable_with_failures(graph, set())


def test_failing_whole_provider_kills_hosted_name(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    analyzer = AvailabilityAnalyzer(1.0)
    assert not analyzer.resolvable_with_failures(
        graph, {DomainName("ns1.hostco.com"), DomainName("ns2.hostco.com")})


def test_offsite_secondary_raises_availability(mini_internet):
    """uni.edu (own servers + partner secondary) survives the loss of both
    of its own servers -- the availability benefit the paper describes."""
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.uni.edu")
    analyzer = AvailabilityAnalyzer(1.0)
    assert analyzer.resolvable_with_failures(
        graph, {DomainName("dns1.uni.edu"), DomainName("dns2.uni.edu")})


def test_tcb_view_availability_matches_graph(mini_internet):
    """The zero-copy TCBView path equals the materialised-graph path."""
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    analyzer = AvailabilityAnalyzer(0.95)
    for name in ("www.example.com", "www.uni.edu", "www.hostco.com"):
        graph = builder.build(name)
        view = builder.tcb_view(name)
        assert analyzer.resolution_probability(view) == \
            pytest.approx(analyzer.resolution_probability(graph), abs=1e-15)
        assert analyzer.single_points_of_failure(view) == \
            analyzer.single_points_of_failure(graph)
        assert analyzer.monte_carlo(view, samples=100,
                                    rng=random.Random(3)) == \
            analyzer.monte_carlo(graph, samples=100, rng=random.Random(3))


def test_kill_set_spof_matches_exhaustive(mini_internet):
    """The one-fixpoint SPOFs equal one failure per server, by definition."""
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    analyzer = AvailabilityAnalyzer(1.0)
    for name in ("www.example.com", "www.uni.edu", "www.partner.edu",
                 "www.hostco.com"):
        graph = builder.build(name)
        assert analyzer.single_points_of_failure(graph) == \
            oracle.single_points_of_failure(graph.graph, name, graph.tcb())
    # And on the synthetic cyclic structure used above.
    for count in (1, 2, 3):
        graph = two_level_graph(ns_per_zone=count)
        assert analyzer.single_points_of_failure(graph) == \
            oracle.single_points_of_failure(graph.graph, graph.target,
                                            graph.tcb())


def test_kill_set_spof_skips_never_resolvable_nameservers():
    """A nameserver whose own chain crosses a dead zone is no alternative:
    the surviving server is a true SPOF, by definition and by the
    analyzer."""
    graph = nx.DiGraph()
    target = name_node("www.site.com")
    leaf = zone_node("site.com")
    graph.add_edge(target, leaf)
    dead_ns = ns_node("ns.dead.net")
    live_ns = ns_node("ns-b.live.net")
    graph.add_edge(leaf, dead_ns)
    graph.add_edge(leaf, live_ns)
    # The dead server's hostname chain needs a zone nobody serves.
    graph.add_edge(dead_ns, zone_node("dead.net"))
    graph.add_node(zone_node("dead.net"))
    view = DelegationGraph("www.site.com", graph)
    analyzer = AvailabilityAnalyzer(1.0)
    expected = frozenset({DomainName("ns-b.live.net")})
    assert oracle.single_points_of_failure(graph, "www.site.com",
                                           view.tcb()) == expected
    assert analyzer.single_points_of_failure(view) == expected


def test_tradeoff_summary(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graphs = [builder.build(name) for name in
              ("www.example.com", "www.uni.edu", "www.partner.edu")]
    summary = availability_security_tradeoff(graphs, up_probability=0.9)
    assert summary["names"] == 3
    assert summary["mean_tcb_size"] > 0
    assert 0.0 <= summary["mean_availability"] <= 1.0
    assert 0.0 <= summary["fraction_with_spof"] <= 1.0
