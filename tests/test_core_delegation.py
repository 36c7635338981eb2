"""Tests for :mod:`repro.core.delegation` on the hand-built mini Internet."""

import random

import networkx as nx

import oracle
from repro.dns.name import DomainName
from repro.dns.resolver import ZoneCut
from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import (
    ClosureIndex,
    DelegationGraph,
    DelegationGraphBuilder,
    TCBView,
    NAME_KIND,
    NS_KIND,
    ZONE_KIND,
    name_node,
    ns_node,
    zone_node,
)
from repro.core.export import to_ascii_tree
from repro.core.graphcore import DependencyUniverse
from repro.core.mincut import BottleneckAnalyzer


def make_builder(mini_internet) -> DelegationGraphBuilder:
    return DelegationGraphBuilder(mini_internet.make_resolver())


# -- node helpers -----------------------------------------------------------------

def test_node_key_helpers_normalise_names():
    assert name_node("WWW.Example.COM") == (NAME_KIND,
                                            DomainName("www.example.com"))
    assert zone_node("com")[0] == ZONE_KIND
    assert ns_node("ns1.example.com")[0] == NS_KIND


# -- hosted name (small, self-contained TCB) -------------------------------------------

def test_hosted_name_graph_contents(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.example.com")
    assert graph.target == DomainName("www.example.com")
    tcb = {str(host) for host in graph.tcb()}
    # com registry servers plus the hosting provider's two servers.
    assert tcb == {"ns1.gtld.net", "ns2.gtld.net",
                   "ns1.hostco.com", "ns2.hostco.com"}
    zones = {str(zone) for zone in graph.zones()}
    assert {"com", "example.com", "hostco.com"} <= zones
    assert graph.tcb_size() == 4


def test_root_servers_excluded_from_tcb(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.example.com")
    assert all(not host.is_subdomain_of("root-servers.net")
               for host in graph.tcb())


def test_direct_zones_and_authoritative_zone(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.example.com")
    assert set(map(str, graph.direct_zones())) == {"com", "example.com"}
    assert str(graph.authoritative_zone()) == "example.com"


def test_hosted_name_has_no_in_bailiwick_servers(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.example.com")
    assert graph.in_bailiwick_servers() == set()


# -- transitive dependencies via off-site secondaries (the paper's Figure 1) --------------

def test_offsite_secondary_pulls_in_partner_university(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.uni.edu")
    tcb = {str(host) for host in graph.tcb()}
    # uni.edu's own servers, its off-site secondary at partner.edu, and --
    # transitively -- partner.edu's other nameserver, plus the registries.
    assert "dns1.uni.edu" in tcb
    assert "dns1.partner.edu" in tcb
    assert "dns2.partner.edu" in tcb, \
        "transitive dependency on the partner's second server missing"
    assert "ns1.edunic.net" in tcb


def test_in_bailiwick_count_for_self_hosted_name(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.uni.edu")
    in_bailiwick = {str(host) for host in graph.in_bailiwick_servers()}
    assert in_bailiwick == {"dns1.uni.edu", "dns2.uni.edu"}


def test_dependency_path_reaches_vulnerable_server(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.uni.edu")
    path = graph.dependency_path("dns2.partner.edu")
    assert path
    assert path[0] == name_node("www.uni.edu")
    assert path[-1] == ns_node("dns2.partner.edu")
    kinds = [node[0] for node in path]
    assert ZONE_KIND in kinds
    assert graph.dependency_path("not.in.graph.example") == []


def test_edge_direction_is_dependent_to_dependency(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.uni.edu")
    uni_zone = zone_node("uni.edu")
    successors = set(graph.graph.successors(uni_zone))
    assert ns_node("dns1.partner.edu") in successors


def test_structure_accessors(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.uni.edu")
    zones = graph.zones_of(name_node("www.uni.edu"))
    assert zone_node("edu") in zones
    nameservers = graph.nameservers_of_zone(zone_node("uni.edu"))
    assert ns_node("dns1.uni.edu") in nameservers
    assert graph.node_count() > graph.tcb_size()
    assert graph.edge_count() >= graph.node_count() - 1


# -- builder-level behaviour -----------------------------------------------------------------

def test_universe_shared_across_names(mini_internet):
    builder = make_builder(mini_internet)
    builder.build("www.example.com")
    queries_after_first = mini_internet.network.stats.queries_delivered
    builder.build("www.hostco.com")
    queries_after_second = mini_internet.network.stats.queries_delivered
    # The second name shares the com/hostco chains, so it needs few
    # additional queries compared to the first.
    assert queries_after_second - queries_after_first < queries_after_first


def test_chain_is_cached(mini_internet):
    builder = make_builder(mini_internet)
    first = builder.chain("www.example.com")
    second = builder.chain("www.example.com")
    assert first is second
    assert builder.queries_saved_by_cache >= 1


def test_discovered_nameservers_accumulate(mini_internet):
    builder = make_builder(mini_internet)
    builder.build("www.example.com")
    discovered_first = len(builder.discovered_nameservers())
    builder.build("www.uni.edu")
    discovered_second = len(builder.discovered_nameservers())
    assert discovered_second > discovered_first


def test_unresolvable_name_yields_empty_graph(mini_internet):
    builder = make_builder(mini_internet)
    graph = builder.build("www.nonexistent.zz")
    assert graph.tcb_size() == 0


def test_separate_graphs_do_not_share_nodes_with_unrelated_names(mini_internet):
    builder = make_builder(mini_internet)
    example = builder.build("www.example.com")
    uni = builder.build("www.uni.edu")
    assert ns_node("dns1.uni.edu") not in example.graph
    assert name_node("www.example.com") not in uni.graph


#: ``to_ascii_tree`` of ``www.uni.edu``'s built graph.
UNI_TREE = """\
name www.uni.edu
  zone edu
    ns ns1.edunic.net
      zone edunic.net
        ns ns1.edunic.net (see above)
      zone net
        ns ns1.gtld.net
          zone gtld.net
            ns ns1.gtld.net (see above)
            ns ns2.gtld.net
              zone gtld.net (see above)
              zone net (see above)
          zone net (see above)
        ns ns2.gtld.net (see above)
  zone uni.edu
    ns dns1.partner.edu
      zone edu (see above)
      zone partner.edu
        ns dns1.partner.edu (see above)
        ns dns2.partner.edu
          zone edu (see above)
          zone partner.edu (see above)
    ns dns1.uni.edu
      zone edu (see above)
      zone uni.edu (see above)
    ns dns2.uni.edu
      zone edu (see above)
      zone uni.edu (see above)"""


def test_build_holds_exactly_what_the_name_reaches(mini_internet):
    """A built graph's nodes and edges are the part of the builder's
    universe the name reaches, row for row."""
    builder = make_builder(mini_internet)
    sizes = {"www.example.com": (10, 20), "www.uni.edu": (14, 27),
             "www.hostco.com": (9, 18), "www.partner.edu": (11, 20),
             "www.nonexistent.zz": (1, 0)}
    for name, (node_count, edge_count) in sizes.items():
        graph = builder.build(name)
        universe = builder.universe
        reached = {name_node(name)}
        stack = [name_node(name)]
        edges = set()
        while stack:
            node = stack.pop()
            for succ in universe.successors(node):
                edges.add((node, succ))
                if succ not in reached:
                    reached.add(succ)
                    stack.append(succ)
        assert set(graph.graph.nodes) == reached
        assert set(graph.graph.edges) == edges
        for node in reached:
            assert list(graph.graph.successors(node)) == \
                list(universe.successors(node))
        assert (graph.node_count(), graph.edge_count()) == \
            (node_count, edge_count)
    assert to_ascii_tree(builder.build("www.uni.edu")) == UNI_TREE


def _two_name_graph() -> nx.DiGraph:
    """``www0.t -> z0.t -> a.t`` beside ``www1.t -> z1.t -> b.t``."""
    graph = nx.DiGraph()
    for index, host in enumerate(("a.t", "b.t")):
        graph.add_edge(name_node(f"www{index}.t"), zone_node(f"z{index}.t"))
        graph.add_edge(zone_node(f"z{index}.t"), ns_node(host))
    return graph


def test_delegation_graph_tcb_is_the_closure_on_a_multi_name_graph():
    graph = _two_name_graph()
    delegation = DelegationGraph("www0.t", graph)
    assert delegation.tcb() == {DomainName("a.t")}
    assert delegation.nameservers() == [DomainName("a.t")]
    assert delegation.zones() == [DomainName("z0.t")]
    # The same closure the shared universe's view reports.
    universe = DependencyUniverse()
    for source, target in graph.edges:
        universe.add_edge(source, target)
    closures = ClosureIndex(universe)
    target_id = universe.find_key(name_node("www0.t"))
    view = TCBView("www0.t", universe, closures.closure_mask_id(target_id),
                   structure=closures, target_id=target_id)
    assert view.tcb_frozen() == delegation.tcb_frozen()


def test_monte_carlo_draws_only_over_the_targets_closure():
    """``www0.t``'s samples draw for ``a.t`` alone: the same estimate as
    drawing a down set over {a.t} per sample."""
    graph = _two_name_graph()
    analyzer = AvailabilityAnalyzer(0.5)
    expected = oracle.monte_carlo(graph, "www0.t", {DomainName("a.t")},
                                  analyzer.up_probability, samples=64,
                                  rng=random.Random(11))
    assert analyzer.monte_carlo(DelegationGraph("www0.t", graph), samples=64,
                                rng=random.Random(11)) == expected


def test_delegation_graph_leaves_the_callers_graph_alone():
    graph = _two_name_graph()
    before = (list(graph.nodes), list(graph.edges))
    ghost = DelegationGraph("ghost.t", graph)
    assert ghost.tcb_size() == 0 and ghost.node_count() == 1
    DelegationGraph("www1.t", graph)
    assert (list(graph.nodes), list(graph.edges)) == before


def test_delegation_graph_is_lowered_once(mini_internet):
    """Analyzers called again and again on one graph reuse its core."""
    graph = make_builder(mini_internet).build("www.uni.edu")
    core = graph.int_core()
    assert core[0] is graph.graph
    availability = AvailabilityAnalyzer(0.9)
    cut = BottleneckAnalyzer()
    for host in graph.tcb():
        availability.resolvable_with_failures(graph, {host})
        availability.single_points_of_failure(graph)
        cut.analyze(graph)
        assert graph.int_core() is core
    assert availability._universe is cut._universe is graph.graph


# -- settled zone rows -------------------------------------------------------------------

class _ChainTable:
    """A resolver stand-in that answers zone-cut chains from a table."""

    def __init__(self, chains):
        self.chains = {DomainName(name): [
            ZoneCut(DomainName(zone), [DomainName(host) for host in hosts])
            for zone, hosts in cuts] for name, cuts in chains.items()}

    def zone_cut_chain(self, name):
        return self.chains.get(name, [])


#: ``b.test``'s row is first walked from ``ns1.b.test`` at depth 1, where
#: its host ``ns1.c.test`` lies past a max_depth of 1, and then from
#: ``www.b.test`` at depth 0, where the host is in reach.
_DEPTH_CHAINS = {
    "www.a.test": [("a.test", ["ns1.b.test"])],
    "www.b.test": [("b.test", ["ns1.c.test"])],
    "ns1.b.test": [("b.test", ["ns1.c.test"])],
    "ns1.c.test": [("c.test", ["ns1.c.test", "ns2.c.test"])],
}


def test_zone_row_walked_past_max_depth_is_walked_again_shallower():
    """A zone row is settled only once every host on it is expanded: a
    host first reached past max_depth is expanded when a shallower walk
    reaches its row again."""
    warm = DelegationGraphBuilder(_ChainTable(_DEPTH_CHAINS), max_depth=1)
    assert warm.closure_of("www.a.test") == {DomainName("ns1.b.test"),
                                              DomainName("ns1.c.test")}
    fresh = DelegationGraphBuilder(_ChainTable(_DEPTH_CHAINS), max_depth=1)
    expected = {DomainName("ns1.c.test"), DomainName("ns2.c.test")}
    assert fresh.closure_of("www.b.test") == expected
    assert warm.closure_of("www.b.test") == expected
