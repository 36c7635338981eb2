"""Plain reference recursions for the delegation-graph analyses.

Each function evaluates one recursion exactly as the module docstring of
:mod:`repro.core.mincut` or :mod:`repro.core.availability` states it,
written directly over a NodeKey graph (anything with ``successors``:
:class:`~repro.core.graphcore.KeyGraph`, ``networkx.DiGraph``, or a
:class:`~repro.core.graphcore.DependencyUniverse`).  The recursions keep
only a per-call memo and the in-progress cycle guard — a dependency loop
is cut where the walk re-enters it, exactly as the analyzers do — and
nothing else: no bitsets, prefix resume, zone-term replay or interning.
Tests check the integer analyzers against these functions.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.core.delegation import NS_KIND, ZONE_KIND, NodeKey, name_node
from repro.dns.name import DomainName

#: Cost of a node that cannot be blocked.
INFINITY = (10 ** 9, 10 ** 9)

Cost = Tuple[int, int]
UpFunction = Callable[[DomainName], float]


def _zones(graph, node: NodeKey):
    return [succ for succ in graph.successors(node) if succ[0] == ZONE_KIND]


def _nameservers(graph, zone: NodeKey):
    return [succ for succ in graph.successors(zone) if succ[0] == NS_KIND]


# -- min-cut ---------------------------------------------------------------------------

def min_cut(graph, target, vulnerable: Iterable[DomainName] = (),
            aware: bool = True) -> Tuple[Cost, FrozenSet[DomainName]]:
    """``block(target)``: the (cost, servers) of the cheapest attack set.

    block(name)   = min over zones Z of name of block_zone(Z)
    block_zone(Z) = sum over nameservers H of Z of
                      min(attack(H), block(H.hostname))

    A server already chosen for the zone is not paid twice.  Costs are
    (safe, total) pairs compared lexicographically when ``aware``;
    otherwise every server costs (1, 1).  Only finite values are memoised,
    as in the analyzer.
    """
    vulnerable = frozenset(DomainName(host) for host in vulnerable)
    memo: Dict[NodeKey, Tuple[Cost, FrozenSet[DomainName]]] = {}

    def attack(host: DomainName) -> Cost:
        return (0, 1) if aware and host in vulnerable else (1, 1)

    def cost_of(servers) -> Cost:
        return (sum(attack(host)[0] for host in servers), len(servers))

    def block(node: NodeKey, in_progress: FrozenSet[NodeKey]):
        if node in memo:
            return memo[node]
        if node in in_progress:
            return INFINITY, frozenset()
        in_progress = in_progress | {node}
        best = (INFINITY, frozenset())
        for zone in _zones(graph, node):
            cost, servers = block_zone(zone, in_progress)
            if cost < best[0]:
                best = (cost, servers)
        if best[0] < INFINITY:
            memo[node] = best
        return best

    def block_zone(zone: NodeKey, in_progress: FrozenSet[NodeKey]):
        nameservers = _nameservers(graph, zone)
        if not nameservers:
            return INFINITY, frozenset()
        total = (0, 0)
        chosen: set = set()
        for ns in nameservers:
            direct = attack(ns[1])
            indirect, via = block(ns, in_progress)
            if indirect < direct:
                cost, servers = indirect, via
            else:
                cost, servers = direct, frozenset({ns[1]})
            if cost >= INFINITY:
                return INFINITY, frozenset()
            new = servers - chosen
            if len(new) != len(servers):
                cost = cost_of(new)
            total = (total[0] + cost[0], total[1] + cost[1])
            chosen |= new
            if total >= INFINITY:
                return INFINITY, frozenset()
        return total, frozenset(chosen)

    return block(name_node(target), frozenset())


# -- availability ------------------------------------------------------------------------

def _avail_walk(graph, up: UpFunction, memo: Dict[NodeKey, float]):
    """``avail`` over ``graph``, memoised in ``memo``."""

    def avail(node: NodeKey, in_progress: FrozenSet[NodeKey]) -> float:
        if node in memo:
            return memo[node]
        if node in in_progress:
            # A dependency loop cannot improve reachability.
            return 1.0
        in_progress = in_progress | {node}
        probability = 1.0
        for zone in _zones(graph, node):
            nameservers = _nameservers(graph, zone)
            if not nameservers:
                probability = 0.0
                break
            all_down = 1.0
            for ns in nameservers:
                all_down *= 1.0 - up(ns[1]) * avail(ns, in_progress)
            probability *= 1.0 - all_down
        memo[node] = probability
        return probability

    return avail


def availability(graph, target, up: UpFunction) -> float:
    """``avail(target)``, 0.0 for a name with no known zone.

    avail(name)   = product over zones Z of name of avail_zone(Z)
    avail_zone(Z) = 1 - product over nameservers H of Z of
                          (1 - up(H) * avail(H))
    """
    node = name_node(target)
    if not _zones(graph, node):
        return 0.0
    return _avail_walk(graph, up, {})(node, frozenset())


def resolvable(graph, target, failed: Iterable[DomainName] = ()) -> bool:
    """Does ``target`` resolve with every server in ``failed`` down?"""
    failed = frozenset(DomainName(host) for host in failed)
    return availability(
        graph, target, lambda host: 0.0 if host in failed else 1.0) > 0.5


def monte_carlo(graph, target, tcb: Iterable[DomainName], up: UpFunction,
                samples: int, rng: Optional[random.Random] = None) -> float:
    """Per sample, draw a down set over sorted ``tcb``, then resolve."""
    rng = rng or random.Random(0)
    hosts = sorted(tcb)
    successes = 0
    for _ in range(samples):
        down = {host for host in hosts if rng.random() >= up(host)}
        if resolvable(graph, target, down):
            successes += 1
    return successes / samples


def single_points_of_failure(graph, target, tcb: Iterable[DomainName]
                             ) -> FrozenSet[DomainName]:
    """``kill(target)``, or all of ``tcb`` if the name never resolves.

    kill(name)   = union over zones Z of name of kill_zone(Z)
    kill_zone(Z) = intersection over the nameservers H of Z that resolve
                   with every server up of ({H} | kill(H))
    """
    if not resolvable(graph, target):
        return frozenset(tcb)
    memo: Dict[NodeKey, FrozenSet[DomainName]] = {}
    reach = _avail_walk(graph, lambda _host: 1.0, {})

    def kill(node: NodeKey, in_progress: FrozenSet[NodeKey]):
        if node in memo:
            return memo[node]
        if node in in_progress:
            # The looping branch counts as reachable, so nothing inside
            # the loop kills it.
            return frozenset()
        in_progress = in_progress | {node}
        kills: set = set()
        for zone in _zones(graph, node):
            zone_kill = None
            for ns in _nameservers(graph, zone):
                if reach(ns, in_progress) <= 0.5:
                    continue
                term = frozenset({ns[1]}) | kill(ns, in_progress)
                zone_kill = term if zone_kill is None else zone_kill & term
                if not zone_kill:
                    break
            if zone_kill:
                kills |= zone_kill
        memo[node] = frozenset(kills)
        return memo[node]

    return kill(name_node(target), frozenset())
