"""Differential tests: the integer analyzers against ``tests/oracle.py``.

Hypothesis draws small AND/OR delegation graphs (1–4 names, 1–5 zones,
1–6 hosts) with cycles, dead zones (no nameservers) and unreachable hosts,
plus per-host vulnerability flags, up-probabilities and failed sets.
Min-cut and analytic availability must equal the oracle's plain
recursions.  Single points of failure, ``resolvable_with_failures`` and
Monte Carlo must equal the greatest-fixpoint definitions of resolution,
single failure by single failure and drawn down set by drawn down set;
those checks run at 2,000 examples.  Each check runs three times over: on
a :class:`DelegationGraph`, which lowers the graph into a universe of its
own when it is made, with a fresh analyzer; on :class:`TCBView`\\ s of one shared universe walked by warm
analyzers that keep their cached state across names; and on a universe
grown name by name under those same warm analyzers, where only the closure
index's version retires cached state that growth made stale.
"""

import dataclasses
import random
from typing import Dict, FrozenSet, List, Tuple

import networkx as nx
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
from repro.core.graphcore import DependencyUniverse
from repro.core.mincut import BottleneckAnalyzer

#: Monte-Carlo samples per name (the sweep is exact, so few suffice).
MC_SAMPLES = 24


@dataclasses.dataclass
class World:
    names: List[str]
    edges: List[Tuple[tuple, tuple]]
    vulnerable: FrozenSet[DomainName]
    up: Dict[str, float]
    default_up: float
    failed_sets: List[FrozenSet[DomainName]]

    def digraph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        for name in self.names:
            graph.add_node(name_node(name))
        for source, target in self.edges:
            graph.add_edge(source, target)
        return graph

    def views(self) -> List[TCBView]:
        universe = DependencyUniverse()
        for name in self.names:
            universe.add_node(name_node(name))
        for source, target in self.edges:
            universe.add_edge(source, target)
        closures = ClosureIndex(universe)
        return [_view(universe, closures, name) for name in self.names]

    def up_of(self, host: DomainName) -> float:
        return self.up.get(str(host), self.default_up)

    def availability_analyzer(self) -> AvailabilityAnalyzer:
        return AvailabilityAnalyzer(self.up, default_up=self.default_up)


def _view(universe: DependencyUniverse, closures: ClosureIndex,
          name: str) -> TCBView:
    target_id = universe.find_key(name_node(name))
    return TCBView(name, universe, closures.closure_mask_id(target_id),
                   structure=closures, target_id=target_id)


@st.composite
def worlds(draw) -> World:
    names = [f"www{i}.t" for i in range(draw(st.integers(1, 4)))]
    zones = [f"z{i}.t" for i in range(draw(st.integers(1, 5)))]
    hosts = [f"ns{i}.t" for i in range(draw(st.integers(1, 6)))]

    def row(pool, max_size):
        return draw(st.lists(st.sampled_from(pool), unique=True,
                             max_size=max_size))

    edges = []
    for name in names:
        edges += [(name_node(name), zone_node(z)) for z in row(zones, 3)]
    for zone in zones:
        # An empty row is a dead zone.
        edges += [(zone_node(zone), ns_node(h)) for h in row(hosts, 3)]
    for host in hosts:
        edges += [(ns_node(host), zone_node(z)) for z in row(zones, 2)]
    edges = draw(st.permutations(edges))
    host_names = st.sampled_from([DomainName(h) for h in hosts])
    return World(
        names=names, edges=edges,
        vulnerable=frozenset(draw(st.sets(host_names))),
        up=draw(st.dictionaries(st.sampled_from(hosts),
                                st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))),
        default_up=draw(st.sampled_from([0.8, 0.95, 1.0])),
        failed_sets=[frozenset(s) for s in
                     draw(st.lists(st.sets(host_names, max_size=3),
                                   max_size=3))])


def _check_min_cut(analyzer, subject, generic, world, aware):
    result = analyzer.analyze(subject)
    cost, servers = oracle.min_cut(generic, subject.target, world.vulnerable,
                                   aware=aware)
    safe = sum(1 for host in servers if host not in world.vulnerable)
    assert result.feasible == (cost < oracle.INFINITY)
    assert result.cut_servers == servers
    assert (result.safe_in_cut, result.vulnerable_in_cut) == \
        (safe, len(servers) - safe)


def _check_analytic(analyzer, subject, generic, world):
    assert analyzer.resolution_probability(subject) == \
        oracle.availability(generic, subject.target, world.up_of)


def _check_fixpoint(analyzer, subject, generic, world, seed):
    target = subject.target
    for failed in world.failed_sets:
        assert analyzer.resolvable_with_failures(subject, set(failed)) == \
            oracle.resolves(generic, target, failed)
    assert analyzer.single_points_of_failure(subject) == \
        oracle.single_points_of_failure(generic, target, subject.tcb())
    assert analyzer.monte_carlo(subject, samples=MC_SAMPLES,
                                rng=random.Random(seed)) == \
        oracle.monte_carlo(generic, target, subject.tcb(), world.up_of,
                           MC_SAMPLES, rng=random.Random(seed))


def _growing(world, data):
    """Grow one universe name by name, as the builder does: each new edge
    goes in through ``add_edge`` and invalidates its source in the closure
    index.  Yields (views of every name added so far, the generic graph as
    it now stands) after each step.

    Step i adds name i; every edge lands at some step, a name's own edges
    no earlier than the name.  Edges added later grow nodes the analyzers
    have already walked and cached.
    """
    count = len(world.names)
    name_steps = {name_node(name): step
                  for step, name in enumerate(world.names)}
    steps: List[List[Tuple[tuple, tuple]]] = [[] for _ in range(count)]
    for source, target in world.edges:
        first = name_steps.get(source, 0)
        steps[data.draw(st.integers(first, count - 1))].append(
            (source, target))
    universe = DependencyUniverse()
    closures = ClosureIndex(universe)
    generic = nx.DiGraph()
    for step, edges in enumerate(steps):
        name = world.names[step]
        universe.add_node(name_node(name))
        generic.add_node(name_node(name))
        for source, target in edges:
            universe.add_edge(source, target)
            generic.add_edge(source, target)
            closures.invalidate_id(universe.find_key(source))
        yield ([_view(universe, closures, added)
                for added in world.names[:step + 1]], generic)


@settings(max_examples=250, deadline=None)
@given(worlds())
def test_lowered_graph_analyses_match_oracle(world):
    generic = world.digraph()
    vulnerability = {host: True for host in world.vulnerable}
    for name in world.names:
        graph = DelegationGraph(name, generic)
        for aware in (True, False):
            _check_min_cut(BottleneckAnalyzer(vulnerability,
                                              vulnerability_aware=aware),
                           graph, generic, world, aware)
        _check_analytic(world.availability_analyzer(), graph, generic, world)


@settings(max_examples=250, deadline=None)
@given(worlds())
def test_warm_analyzers_match_oracle(world):
    generic = world.digraph()
    views = world.views()
    vulnerability = {host: True for host in world.vulnerable}
    cuts = {aware: BottleneckAnalyzer(vulnerability,
                                      vulnerability_aware=aware)
            for aware in (True, False)}
    availability = world.availability_analyzer()
    # Walk every name twice, so the second pass resumes from warm prefix
    # snapshots and replays their zone terms.
    for view in views + views[::-1]:
        for aware, analyzer in cuts.items():
            _check_min_cut(analyzer, view, generic, world, aware)
        _check_analytic(availability, view, generic, world)


@settings(max_examples=250, deadline=None)
@given(worlds(), st.data())
def test_warm_analyzers_match_oracle_on_growing_universe(world, data):
    """After every growth step the warm analyzers must answer each name
    added so far exactly as the oracle does on the graph as it now
    stands."""
    vulnerability = {host: True for host in world.vulnerable}
    cut = BottleneckAnalyzer(vulnerability)
    availability = world.availability_analyzer()
    for views, generic in _growing(world, data):
        for view in views:
            _check_min_cut(cut, view, generic, world, True)
            _check_analytic(availability, view, generic, world)


@settings(max_examples=2000, deadline=None)
@given(worlds(), st.data())
def test_fixpoint_analyses_match_gfp_definitions(world, data):
    """SPOFs, ``resolvable_with_failures`` and Monte Carlo equal the
    greatest-fixpoint definitions on all three routes: lowered graphs
    with fresh analyzers, warm views walked twice, and a growing
    universe."""
    generic = world.digraph()
    for seed, name in enumerate(world.names):
        _check_fixpoint(world.availability_analyzer(),
                        DelegationGraph(name, generic), generic, world, seed)
    warm = world.availability_analyzer()
    views = world.views()
    for seed, view in enumerate(views + views[::-1]):
        _check_fixpoint(warm, view, generic, world, seed)
    warm = world.availability_analyzer()
    for grown_views, grown in _growing(world, data):
        for seed, view in enumerate(grown_views):
            _check_fixpoint(warm, view, grown, world, seed)


# -- a cyclic graph whose answer a walk order could change ----------------------------

def _cyclic_spof_graph() -> DelegationGraph:
    """12 edges, several cycles and a dead zone (``z1.t`` has no NS).  By
    the greatest fixpoint, ``ns2.t`` needs the dead zone ``z1.t``, so
    ``z4.t`` resolves only through ``ns3.t``, which needs ``z4.t``:
    failing either of ``ns1.t`` and ``ns3.t`` stops ``www.t``."""
    graph = nx.DiGraph()
    for source, target in [
            (name_node("www.t"), zone_node("z0.t")),
            (zone_node("z0.t"), ns_node("ns3.t")),
            (zone_node("z0.t"), ns_node("ns1.t")),
            (ns_node("ns3.t"), zone_node("z4.t")),
            (ns_node("ns3.t"), zone_node("z3.t")),
            (zone_node("z4.t"), ns_node("ns2.t")),
            (zone_node("z4.t"), ns_node("ns3.t")),
            (zone_node("z3.t"), ns_node("ns1.t")),
            (ns_node("ns1.t"), zone_node("z0.t")),
            (ns_node("ns1.t"), zone_node("z4.t")),
            (ns_node("ns2.t"), zone_node("z3.t")),
            (ns_node("ns2.t"), zone_node("z1.t"))]:
        graph.add_edge(source, target)
    return DelegationGraph("www.t", graph)


def test_kill_set_spof_on_cyclic_graph_matches_oracle():
    graph = _cyclic_spof_graph()
    expected = {DomainName("ns1.t"), DomainName("ns3.t")}
    assert AvailabilityAnalyzer(1.0).single_points_of_failure(graph) == \
        expected
    assert oracle.single_points_of_failure(graph.graph, "www.t",
                                           graph.tcb()) == expected


def test_single_failure_scan_agrees_with_kill_set_on_cyclic_graph():
    graph = _cyclic_spof_graph()
    analyzer = AvailabilityAnalyzer(1.0)
    scanned = {host for host in graph.tcb()
               if not analyzer.resolvable_with_failures(graph, {host})}
    assert scanned == analyzer.single_points_of_failure(graph) == \
        {DomainName("ns1.t"), DomainName("ns3.t")}


def test_failed_loop_member_stops_resolution_on_cyclic_graph():
    graph = _cyclic_spof_graph()
    failed = {DomainName("ns3.t")}
    assert not oracle.resolves(graph.graph, "www.t", failed)
    assert not AvailabilityAnalyzer(1.0).resolvable_with_failures(graph,
                                                                  failed)


def test_spof_prefix_resume_keeps_first_zone_state_only():
    """Two names share their first zone.  The first name's later zone
    reaches ``y.t`` only through a cycle with ``x.t``; ``x.t`` has a dead
    zone, so neither resolves.  The second name's later zone offers
    ``y.t`` beside ``h.t``, leaving ``h.t`` a single point of failure.  A
    warm analyzer that evaluated the first name must answer the second as
    a fresh one does."""
    world = World(
        names=["www0.t", "www1.t"],
        edges=[(name_node("www0.t"), zone_node("z0.t")),
               (name_node("www1.t"), zone_node("z0.t")),
               (zone_node("z0.t"), ns_node("g.t")),
               (name_node("www0.t"), zone_node("z1.t")),
               (zone_node("z1.t"), ns_node("x.t")),
               (zone_node("z1.t"), ns_node("g.t")),
               (ns_node("x.t"), zone_node("zx.t")),
               (ns_node("x.t"), zone_node("dead.t")),
               (zone_node("zx.t"), ns_node("y.t")),
               (ns_node("y.t"), zone_node("zy.t")),
               (zone_node("zy.t"), ns_node("x.t")),
               (name_node("www1.t"), zone_node("z2.t")),
               (zone_node("z2.t"), ns_node("y.t")),
               (zone_node("z2.t"), ns_node("h.t"))],
        vulnerable=frozenset(), up={}, default_up=1.0, failed_sets=[])
    generic = world.digraph()
    analyzer = world.availability_analyzer()
    spofs = [analyzer.single_points_of_failure(view)
             for view in world.views()]
    assert spofs[1] == {DomainName("g.t"), DomainName("h.t")}
    for name, found in zip(world.names, spofs):
        view = DelegationGraph(name, generic)
        assert found == oracle.single_points_of_failure(generic, name,
                                                        view.tcb())
