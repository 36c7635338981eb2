"""The delegation-graph analyses as the paper defines them, written plainly.

Every function works directly over a NodeKey graph (anything with
``successors``: a ``networkx.DiGraph``, or a
:class:`~repro.core.graphcore.DependencyUniverse` such as the one a
:class:`~repro.core.delegation.DelegationGraph` owns), with no bitsets,
prefix resume, zone-term replay or interning.  Tests check
the integer analyzers against these functions.

* :func:`resolves` is the definition of resolution with failed servers:
  the greatest fixpoint of "a server resolves when it has not failed and
  all of its zones resolve; a zone resolves when any of its servers
  resolves; a name resolves when all of its zones resolve", computed by a
  worklist that starts from "everything resolves" and removes what breaks
  a rule.  :func:`single_points_of_failure` and :func:`monte_carlo` are
  stated through it: one failure at a time, and one drawn down set per
  sample.
* :func:`min_cut` and :func:`availability` restate the recursions of
  :mod:`repro.core.mincut` and :mod:`repro.core.availability`, because
  their cycle rule (a loop is cut where the walk re-enters it) is part of
  what they compute.  They keep a per-call memo and the in-progress cycle
  guard, and nothing else.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

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

def availability(graph, target, up: UpFunction) -> float:
    """``avail(target)``, 0.0 for a name with no known zone.

    avail(name)   = product over zones Z of name of avail_zone(Z)
    avail_zone(Z) = 1 - product over nameservers H of Z of
                          (1 - up(H) * avail(H))
    """
    node = name_node(target)
    if not _zones(graph, node):
        return 0.0
    memo: Dict[NodeKey, float] = {}

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

    return avail(node, frozenset())


# -- resolution: the greatest fixpoint ---------------------------------------------------

def resolves(graph, target, failed: Iterable[DomainName] = ()) -> bool:
    """Does ``target`` resolve with every server in ``failed`` down?

    The greatest fixpoint over the nodes the target reaches: start with
    every node resolving, and take away each node that breaks its rule
    until none does.  A name with no known zone does not resolve.
    """
    failed = frozenset(DomainName(host) for host in failed)
    start = name_node(target)
    if not _zones(graph, start):
        return False
    nodes = {start}
    predecessors: Dict[NodeKey, List[NodeKey]] = {}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in graph.successors(node):
            predecessors.setdefault(succ, []).append(node)
            if succ not in nodes:
                nodes.add(succ)
                stack.append(succ)

    resolving = set(nodes)

    def holds(node: NodeKey) -> bool:
        kind, name = node
        if kind == ZONE_KIND:
            return any(ns in resolving for ns in _nameservers(graph, node))
        if kind == NS_KIND and name in failed:
            return False
        return all(zone in resolving for zone in _zones(graph, node))

    work = list(nodes)
    while work:
        node = work.pop()
        if node in resolving and not holds(node):
            resolving.discard(node)
            work.extend(predecessors.get(node, ()))
    return start in resolving


def single_points_of_failure(graph, target, tcb: Iterable[DomainName]
                             ) -> FrozenSet[DomainName]:
    """All of ``tcb`` if ``target`` does not resolve with every server up,
    else the members of ``tcb`` whose failure alone stops it resolving."""
    tcb = frozenset(tcb)
    if not resolves(graph, target):
        return tcb
    return frozenset(host for host in tcb
                     if not resolves(graph, target, {host}))


def monte_carlo(graph, target, tcb: Iterable[DomainName], up: UpFunction,
                samples: int, rng: Optional[random.Random] = None) -> float:
    """Per sample, draw a down set over sorted ``tcb``, then resolve."""
    rng = rng or random.Random(0)
    hosts = sorted(tcb)
    successes = 0
    for _ in range(samples):
        down = {host for host in hosts if rng.random() >= up(host)}
        if resolves(graph, target, down):
            successes += 1
    return successes / samples
