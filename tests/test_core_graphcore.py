"""The integer graph core, and the integer analyses against the oracle.

The first half unit-tests :mod:`repro.core.graphcore` (name table, universe
duck API, slot bitsets).  The second half checks the analyses
on hand-built topologies — including cyclic (mutual secondaries),
self-looped (in-bailiwick NS), and never-resolvable (dead zone) ones: the
bitset closures must equal a plain BFS, and the integer analyses (min-cut,
analytic availability, bit-parallel Monte-Carlo, SPOF kill sets) must agree
exactly with the generic NodeKey recursions of ``tests/oracle.py``, both on
a :class:`TCBView` and on a :class:`DelegationGraph`, which lowers the
``networkx`` graph into a universe of its own when it is made.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracle

from repro.dns.name import DomainName
from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import (
    ClosureIndex,
    DelegationGraph,
    TCBView,
    name_node,
    ns_node,
    zone_node,
)
from repro.core.graphcore import (
    DependencyUniverse,
    NameTable,
    NS_CODE,
    ZONE_CODE,
)
from repro.core.mincut import BottleneckAnalyzer


# -- graph core unit behaviour -------------------------------------------------------

def test_name_table_interns_densely():
    table = NameTable()
    a = table.intern(DomainName("a.test"))
    b = table.intern(DomainName("b.test"))
    assert (a, b) == (0, 1)
    assert table.intern(DomainName("a.test")) == a
    assert table.name_of(b) == DomainName("b.test")
    assert len(table) == 2
    assert DomainName("a.test") in table
    assert table.id_of(DomainName("ghost.test")) is None


def test_universe_duck_api_matches_nodekey_encoding():
    universe = DependencyUniverse()
    universe.add_edge(name_node("www.a.test"), zone_node("a.test"))
    universe.add_edge(zone_node("a.test"), ns_node("ns1.a.test"))
    assert name_node("www.a.test") in universe
    assert universe.has_edge(zone_node("a.test"), ns_node("ns1.a.test"))
    assert not universe.has_edge(ns_node("ns1.a.test"), zone_node("a.test"))
    assert list(universe.successors(name_node("www.a.test"))) == \
        [zone_node("a.test")]
    assert list(universe.predecessors(ns_node("ns1.a.test"))) == \
        [zone_node("a.test")]
    assert universe.number_of_nodes() == 3
    assert universe.number_of_edges() == 2
    assert set(universe.nodes) == {name_node("www.a.test"),
                                   zone_node("a.test"), ns_node("ns1.a.test")}
    assert (zone_node("a.test"), ns_node("ns1.a.test")) in set(universe.edges)


def test_universe_assigns_ns_slots_in_discovery_order():
    universe = DependencyUniverse()
    universe.add_edge(zone_node("a.test"), ns_node("ns1.a.test"))
    universe.add_edge(zone_node("a.test"), ns_node("ns2.a.test"))
    universe.add_edge(zone_node("b.test"), ns_node("ns1.a.test"))
    assert universe.slot_count() == 2
    assert universe.slot_hosts[0] == DomainName("ns1.a.test")
    assert universe.slot_hosts[1] == DomainName("ns2.a.test")
    zone_id = universe.find_id(ZONE_CODE, DomainName("a.test"))
    assert universe.ns_slots[zone_id] == -1
    assert universe.mask_to_hosts(0b11) == [DomainName("ns1.a.test"),
                                            DomainName("ns2.a.test")]


# -- integer analyses vs. the generic oracle ------------------------------------------

#: Topologies as NodeKey edge lists.  Every shape the recursions special-case
#: is represented: plain chains, shared dependencies, mutual-secondary
#: cycles, self-loops through in-bailiwick nameservers, dead zones (no
#: nameservers), and names whose chain was never discovered.
TOPOLOGIES = {
    "chain": [
        (name_node("www.a.test"), zone_node("test")),
        (name_node("www.a.test"), zone_node("a.test")),
        (zone_node("test"), ns_node("ns1.nic.test")),
        (zone_node("test"), ns_node("ns2.nic.test")),
        (zone_node("a.test"), ns_node("ns1.a.test")),
        (zone_node("a.test"), ns_node("ns2.a.test")),
    ],
    "cyclic": [
        # Mutual secondaries: a.test's server depends on b.test and vice
        # versa — the classic SCC the closure index collapses.
        (name_node("www.a.test"), zone_node("a.test")),
        (zone_node("a.test"), ns_node("ns.a.test")),
        (ns_node("ns.a.test"), zone_node("b.test")),
        (zone_node("b.test"), ns_node("ns.b.test")),
        (ns_node("ns.b.test"), zone_node("a.test")),
        (zone_node("b.test"), ns_node("ns2.b.test")),
    ],
    "self_loop": [
        # In-bailiwick nameserver whose own chain crosses its zone: the
        # single-node cycle every real SLD with glued servers exhibits.
        (name_node("www.a.test"), zone_node("a.test")),
        (zone_node("a.test"), ns_node("ns1.a.test")),
        (ns_node("ns1.a.test"), zone_node("a.test")),
        (zone_node("a.test"), ns_node("offsite.b.test")),
        (ns_node("offsite.b.test"), zone_node("b.test")),
        (zone_node("b.test"), ns_node("ns.b.test")),
    ],
    "never_resolvable": [
        # The name's zone is served only by a host whose chain crosses a
        # dead (nameserver-less) zone: resolution can never succeed.
        (name_node("www.a.test"), zone_node("a.test")),
        (zone_node("a.test"), ns_node("ns.dead.test")),
        (ns_node("ns.dead.test"), zone_node("dead.test")),
    ],
    "shared_diamond": [
        (name_node("www.a.test"), zone_node("test")),
        (name_node("www.a.test"), zone_node("a.test")),
        (zone_node("test"), ns_node("ns1.nic.test")),
        (zone_node("a.test"), ns_node("ns1.nic.test")),
        (zone_node("a.test"), ns_node("ns1.a.test")),
        (ns_node("ns1.a.test"), zone_node("test")),
        (ns_node("ns1.nic.test"), zone_node("test")),
    ],
}

#: Vulnerable hosts per topology (exercises the lexicographic min-cut).
VULNERABLE = {
    "chain": {"ns1.a.test", "ns1.nic.test"},
    "cyclic": {"ns.b.test"},
    "self_loop": {"ns1.a.test", "ns.b.test"},
    "never_resolvable": set(),
    "shared_diamond": {"ns1.nic.test"},
}


def _twin(edges):
    """Build the same topology as (int universe + index, generic graph)."""
    universe = DependencyUniverse()
    generic = nx.DiGraph()
    for source, target in edges:
        universe.add_edge(source, target)
        generic.add_edge(source, target)
    return universe, ClosureIndex(universe), generic


def _int_view(universe, closures, name) -> TCBView:
    """A TCBView over a hand-built universe (what the builder would make)."""
    target_id = universe.ensure_key(name_node(name))
    mask = closures.closure_mask_id(target_id)
    return TCBView(name, universe, mask, structure=closures,
                   target_id=target_id)


def _reference_closure(generic, node):
    """Reachable non-excluded NS hostnames via a plain BFS (ground truth)."""
    if node not in generic:
        return frozenset()
    seen = {node}
    stack = [node]
    while stack:
        for succ in generic.successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return frozenset(key[1] for key in seen if key[0] == "ns")


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_bitset_closures_match_reference(topology):
    universe, closures, generic = _twin(TOPOLOGIES[topology])
    for node in list(universe.nodes):
        assert closures.closure(node) == _reference_closure(generic, node), \
            f"closure mismatch at {node} in {topology}"


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_integer_mincut_matches_generic(topology):
    universe, closures, generic = _twin(TOPOLOGIES[topology])
    vulnerable = {DomainName(host) for host in VULNERABLE[topology]}
    vulnerability = {host: True for host in vulnerable}
    view = _int_view(universe, closures, "www.a.test")
    graph = DelegationGraph("www.a.test", generic)
    for aware in (True, False):
        cost, servers = oracle.min_cut(generic, "www.a.test", vulnerable,
                                       aware=aware)
        feasible = cost < oracle.INFINITY
        safe = sum(1 for host in servers if host not in vulnerable)
        for subject in (view, graph):
            got = BottleneckAnalyzer(
                vulnerability, vulnerability_aware=aware).analyze(subject)
            assert got.feasible == feasible
            assert got.cut_servers == servers
            assert got.safe_in_cut == safe
            assert got.vulnerable_in_cut == len(servers) - safe


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_integer_availability_matches_generic(topology):
    universe, closures, generic = _twin(TOPOLOGIES[topology])
    view = _int_view(universe, closures, "www.a.test")
    graph = DelegationGraph("www.a.test", generic)
    int_analyzer = AvailabilityAnalyzer(0.9)
    up = int_analyzer.up_probability

    assert int_analyzer.resolution_probability(view) == \
        oracle.availability(generic, "www.a.test", up)
    assert int_analyzer.single_points_of_failure(view) == \
        oracle.single_points_of_failure(generic, "www.a.test", view.tcb())
    assert int_analyzer.single_points_of_failure(graph) == \
        oracle.single_points_of_failure(generic, "www.a.test", graph.tcb())
    for subject in (view, graph):
        assert int_analyzer.monte_carlo(subject, samples=64,
                                        rng=random.Random(42)) == \
            oracle.monte_carlo(generic, "www.a.test", subject.tcb(), up,
                               samples=64, rng=random.Random(42))
    for failed in ([], ["ns1.a.test"], ["ns1.a.test", "ns2.a.test"],
                   ["ns.a.test", "ns.b.test"]):
        down = {DomainName(host) for host in failed}
        assert int_analyzer.resolvable_with_failures(view, down) == \
            oracle.resolves(generic, "www.a.test", down), \
            f"resolvable mismatch with {failed} down in {topology}"


def test_never_resolvable_name_has_full_tcb_spof():
    universe, closures, _generic = _twin(TOPOLOGIES["never_resolvable"])
    view = _int_view(universe, closures, "www.a.test")
    analyzer = AvailabilityAnalyzer(0.99)
    assert analyzer.resolution_probability(view) == 0.0
    # Unresolvable even with everything up: every TCB member is reported.
    assert analyzer.single_points_of_failure(view) == view.tcb_frozen()


def test_undiscovered_name_is_unresolvable():
    universe, closures, generic = _twin(TOPOLOGIES["chain"])
    view = _int_view(universe, closures, "ghost.test")
    graph = DelegationGraph("ghost.test", generic)
    # The oracle walks the generic graph, which must hold the name.
    generic.add_node(name_node("ghost.test"))
    analyzer = AvailabilityAnalyzer(0.99)
    assert analyzer.resolution_probability(view) == \
        analyzer.resolution_probability(graph) == \
        oracle.availability(generic, "ghost.test",
                            analyzer.up_probability) == 0.0
    assert not analyzer.resolvable_with_failures(view, set())


def test_prefix_resume_matches_fresh_analysis_across_many_names():
    """Warm-analyzer evaluation over many names sharing a TLD (the
    prefix-resume + zone-replay machinery) must equal the oracle on each
    name's own subgraph."""
    universe = DependencyUniverse()
    generic = nx.DiGraph()

    def edge(source, target):
        universe.add_edge(source, target)
        generic.add_edge(source, target)

    # One TLD with mutually-dependent registry servers (a cyclic region) and
    # many SLDs below it, with in-bailiwick self-loops and one shared
    # offsite secondary — the shape real survey chains take.
    edge(zone_node("test"), ns_node("a.nic.test"))
    edge(zone_node("test"), ns_node("b.nic.test"))
    edge(ns_node("a.nic.test"), zone_node("nic.test"))
    edge(ns_node("b.nic.test"), zone_node("nic.test"))
    edge(zone_node("nic.test"), ns_node("a.nic.test"))
    edge(zone_node("nic.test"), ns_node("b.nic.test"))
    names = [f"www.sld{i}.test" for i in range(8)]
    for i, name in enumerate(names):
        sld = f"sld{i}.test"
        edge(name_node(name), zone_node("test"))
        edge(name_node(name), zone_node(sld))
        edge(zone_node(sld), ns_node(f"ns1.{sld}"))
        edge(ns_node(f"ns1.{sld}"), zone_node("test"))
        edge(ns_node(f"ns1.{sld}"), zone_node(sld))
        edge(zone_node(sld), ns_node("backup.sld0.test"))
        edge(ns_node("backup.sld0.test"), zone_node("test"))
        edge(ns_node("backup.sld0.test"), zone_node("sld0.test"))

    def per_name_subgraph(name):
        """What builder.build() would materialise: the reachable copy."""
        source = name_node(name)
        copy = nx.DiGraph()
        copy.add_node(source)
        seen = {source}
        stack = [source]
        while stack:
            node = stack.pop()
            for succ in generic.successors(node):
                copy.add_edge(node, succ)
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return DelegationGraph(name, copy)

    closures = ClosureIndex(universe)
    vulnerable = {DomainName("ns1.sld3.test"), DomainName("backup.sld0.test")}
    warm_avail = AvailabilityAnalyzer(0.93)
    warm_cut = BottleneckAnalyzer({host: True for host in vulnerable})
    for name in names:
        view = _int_view(universe, closures, name)
        graph = per_name_subgraph(name)
        assert view.tcb_frozen() == graph.tcb()
        assert warm_avail.resolution_probability(view) == \
            oracle.availability(graph.graph, name,
                                warm_avail.up_probability), name
        assert warm_avail.single_points_of_failure(view) == \
            oracle.single_points_of_failure(graph.graph, name,
                                            graph.tcb()), name
        got = warm_cut.analyze(view)
        cost, servers = oracle.min_cut(graph.graph, name, vulnerable)
        assert (got.cut_servers, got.safe_in_cut) == \
            (servers, cost[0]), name


def test_analyzer_reused_across_universes_resets_slot_cache():
    """Slots are universe-local: a per-server up-model must follow hosts,
    not slot numbers, when one analyzer sees views from two builders."""
    first = DependencyUniverse()
    first.add_edge(name_node("www.a.test"), zone_node("a.test"))
    first.add_edge(zone_node("a.test"), ns_node("ns.down.test"))
    second = DependencyUniverse()
    second.add_edge(name_node("www.a.test"), zone_node("a.test"))
    second.add_edge(zone_node("a.test"), ns_node("ns.up.test"))

    analyzer = AvailabilityAnalyzer({DomainName("ns.down.test"): 0.0},
                                    default_up=1.0)
    view_down = _int_view(first, ClosureIndex(first), "www.a.test")
    view_up = _int_view(second, ClosureIndex(second), "www.a.test")
    assert analyzer.resolution_probability(view_down) == 0.0
    # ns.up.test occupies slot 0 of ITS universe, just like ns.down.test
    # did in the first one — the cached probability must not leak over.
    assert analyzer.resolution_probability(view_up) == 1.0


def test_prefix_snapshots_do_not_leak_across_universes():
    """Prefix snapshots are keyed by universe-local node ids: one warm
    analyzer fed views from two builders must answer the second from its
    own universe, exactly as a fresh analyzer would."""
    first = DependencyUniverse()
    first.add_edge(name_node("www.a.test"), zone_node("a.test"))
    first.add_edge(zone_node("a.test"), ns_node("ns.down.test"))
    second = DependencyUniverse()
    second.add_edge(name_node("www.b.test"), zone_node("b.test"))
    second.add_edge(zone_node("b.test"), ns_node("ns.up.test"))
    second.add_edge(zone_node("b.test"), ns_node("ns2.up.test"))
    view_down = _int_view(first, ClosureIndex(first), "www.a.test")
    view_up = _int_view(second, ClosureIndex(second), "www.b.test")

    def availability_analyzer():
        return AvailabilityAnalyzer({DomainName("ns.down.test"): 0.0},
                                    default_up=1.0)

    warm = availability_analyzer()
    assert warm.resolution_probability(view_down) == 0.0
    assert warm.single_points_of_failure(view_down) == \
        {DomainName("ns.down.test")}
    fresh = availability_analyzer()
    assert warm.resolution_probability(view_up) == \
        fresh.resolution_probability(view_up) == 1.0
    assert warm.single_points_of_failure(view_up) == \
        fresh.single_points_of_failure(view_up) == frozenset()

    cut = BottleneckAnalyzer()
    assert cut.analyze(view_down).cut_servers == {DomainName("ns.down.test")}
    assert cut.analyze(view_up).cut_servers == \
        BottleneckAnalyzer().analyze(view_up).cut_servers == \
        {DomainName("ns.up.test"), DomainName("ns2.up.test")}


# -- the pruned invalidation walk ------------------------------------------------------

#: Nodes in the walk test's universe: even ids are zones, odd ids hosts.
WALK_NODES = 7
_WALK_NODE = st.integers(0, WALK_NODES - 1)
#: One step: grow an edge, rewrite or clear a row (each invalidating the
#: row's node, as the builder does), drop a node's memo, or read a closure.
_WALK_STEP = st.one_of(
    st.tuples(st.just("add"), _WALK_NODE, _WALK_NODE),
    st.tuples(st.just("set"), _WALK_NODE,
              st.lists(_WALK_NODE, max_size=4)),
    st.tuples(st.just("clear"), _WALK_NODE),
    st.tuples(st.just("invalidate"), _WALK_NODE),
    st.tuples(st.just("closure"), _WALK_NODE),
)


def _bfs_mask(universe, node):
    """The NS-slot mask of everything ``node`` reaches, by plain BFS."""
    seen = {node}
    frontier = [node]
    while frontier:
        for succ in universe.out[frontier.pop()]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    mask = 0
    for reached in seen:
        if universe.ns_slots[reached] >= 0:
            mask |= 1 << universe.ns_slots[reached]
    return mask


@settings(max_examples=300, deadline=None)
@given(st.lists(_WALK_STEP, max_size=40))
def test_pruned_invalidation_walk_keeps_closures_equal_to_bfs(steps):
    """A drop climbs only through nodes that held a memo and pops only
    the start node's split.  After any interleaving of edits, drops and
    reads (cycles included), every closure read and every memo and split
    the index still holds equal plain reachability and the live rows."""
    universe = DependencyUniverse()
    ids = [universe.ensure_id(NS_CODE if node % 2 else ZONE_CODE,
                              DomainName(f"n{node}.test"))
           for node in range(WALK_NODES)]
    closures = ClosureIndex(universe)
    for op, node, *args in steps:
        node = ids[node]
        if op == "add":
            universe.add_edge_ids(node, ids[args[0]])
            closures.invalidate_id(node)
        elif op == "set":
            universe.set_out_edges(node, [ids[target] for target in args[0]])
            closures.invalidate_id(node)
        elif op == "clear":
            closures.invalidate_id(node)
            universe.clear_out_edges(node)
        elif op == "invalidate":
            closures.invalidate_id(node)
        else:
            assert closures.closure_mask_id(node) == \
                _bfs_mask(universe, node)
            closures.split_ids(node)
        for memoized, mask in closures._memo.items():
            assert mask == _bfs_mask(universe, memoized)
        for split_node, split in closures._split.items():
            row = universe.out[split_node]
            assert split == (
                [succ for succ in row if universe.kinds[succ] == ZONE_CODE],
                [succ for succ in row if universe.kinds[succ] == NS_CODE])
