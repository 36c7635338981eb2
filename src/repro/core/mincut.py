"""Bottleneck (min-cut) analysis of delegation graphs (Figure 7).

Section 3.2 distinguishes partial hijacks (divert *some* queries) from
complete hijacks (divert *all* queries) and measures the latter by computing
"the minimum number of nameservers that need to be attacked in order to
completely take over a domain ... determined by computing a min-cut of the
delegation graph".

The delegation graph is an AND/OR structure: resolving a name requires every
zone on its delegation path (AND), but any single nameserver suffices for
each zone (OR), and a nameserver can be neutralised either by attacking the
machine itself or by taking over the resolution of its hostname
(recursively).  The minimum attack set therefore satisfies the recursion::

    block(name)  = min over zones Z on name's path of block_zone(Z)
    block_zone(Z)= sum over nameservers H of Z of
                     min(attack(H), block(H.hostname))

:class:`BottleneckAnalyzer` evaluates this recursion directly on the
delegation graph with memoisation and cycle guards.  It runs on dense node
ids from the :class:`~repro.core.graphcore.DependencyUniverse` that
:meth:`~repro.core.delegation.TCBView.int_core` hands over (the survey
engine's views share the builder's universe; a
:class:`~repro.core.delegation.DelegationGraph` owns the universe it was
lowered into when it was made).  Candidate cuts are NS-slot bitsets (union = big-int OR,
dedup = AND-NOT), and nothing in the loop hashes a
:class:`~repro.dns.name.DomainName`.

Two weightings are provided:

* **unweighted** — every server costs 1; the resulting total is the paper's
  "average min-cut of 2.5 nameservers".
* **vulnerability-aware** — servers with a known exploit cost (0 safe, 1
  total) while safe servers cost (1 safe, 1 total) and costs compare
  lexicographically; the optimal cut then minimises the number of *safe*
  servers the attacker still has to deal with, which is exactly the
  "number of safe bottleneck nameservers" plotted in Figure 7.

Shared dependencies make the summed recursion an upper bound on the true
optimum (the same server counted via two branches is paid twice), so the
reported cut is conservative; on the survey graphs the bound is tight for
the dominant pattern (the weakest zone is the name's own NS set).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.dns.name import DomainName

#: A cost ``(safe, total)`` is carried as the one int ``safe << 32 | total``:
#: int order is the lexicographic order, and adding two costs adds both
#: parts (a total never reaches 2**32).
_SAFE_SHIFT = 32
#: Cost value representing "cannot be blocked" (e.g. behind the trusted root).
_INFINITY = (10 ** 9 << _SAFE_SHIFT) | 10 ** 9
#: Direct costs: a safe server is (1, 1), a vulnerable one (0, 1).
_SAFE_COST = (1 << _SAFE_SHIFT) | 1
_VULNERABLE_COST = 1


@dataclasses.dataclass
class BottleneckResult:
    """The optimal attack set for one name under one weighting."""

    name: DomainName
    cut_servers: FrozenSet[DomainName]
    safe_in_cut: int
    vulnerable_in_cut: int
    feasible: bool = True

    @property
    def size(self) -> int:
        """Total number of servers in the cut."""
        return len(self.cut_servers)

    @property
    def fully_vulnerable(self) -> bool:
        """True if the cut consists solely of vulnerable servers.

        These are the names the paper reports as completely hijackable with
        scripted attacks alone (about 30 % of the survey).
        """
        return self.feasible and self.size > 0 and self.safe_in_cut == 0

    @property
    def one_safe_server(self) -> bool:
        """True if exactly one safe server stands in the way.

        The paper notes another 10 % of names fall in this category, where a
        DoS on that one safe server plus compromise of the vulnerable ones
        completes the hijack.
        """
        return self.feasible and self.safe_in_cut == 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation used by snapshots."""
        return {
            "name": str(self.name),
            "size": self.size,
            "safe_in_cut": self.safe_in_cut,
            "vulnerable_in_cut": self.vulnerable_in_cut,
            "feasible": self.feasible,
            "servers": sorted(str(s) for s in self.cut_servers),
        }


class BottleneckAnalyzer:
    """Computes minimum attack sets over delegation graphs.

    Parameters
    ----------
    vulnerability_map:
        Per-hostname "has an exploitable hole" flags; hosts missing from the
        map count as safe.
    vulnerability_aware:
        Whether the cut minimises the number of *safe* servers (lexicographic
        cost) or just its total size.

    Memo keys are integer node ids and cuts are slot bitsets, so the
    analyzer binds to one universe at a time.  The only state it carries
    across calls is the per-first-zone prefix snapshots, keyed on the
    closure index's version (see :meth:`_prefix_cache`).
    """

    def __init__(self, vulnerability_map: Optional[Mapping[DomainName, bool]] = None,
                 vulnerability_aware: bool = True):
        self.vulnerability_map = dict(vulnerability_map or {})
        self.vulnerability_aware = vulnerability_aware
        self._universe = None
        self._prefix_state: Optional[Tuple[int, Dict]] = None
        #: slot -> direct attack cost, -1 until first read; reset with the
        #: prefix snapshots (a verdict changes only with the version).
        self._direct: List[int] = []
        # Zone-term replay state, active only during a prefix-resumed
        # evaluation: `_zc` maps a zone id to (cost, mask) when the term was
        # computed purely from snapshot-resident memo hits (constant across
        # chains sharing the snapshot); `_base` is that snapshot memo.
        self._zc: Optional[Dict[int, tuple]] = None
        self._base: Optional[Dict] = None

    def _bind(self, universe) -> None:
        """Point the analyzer at ``universe``, dropping another's snapshots.

        Memo keys and slot bits are universe-local ids.
        """
        if self._universe is universe:
            return
        self._universe = universe
        self._prefix_state = None

    def _prefix_cache(self, closures) -> Dict[int, tuple]:
        """Per-first-zone resume snapshots, valid for one closure version.

        A surveyed name's node has no in-edges, so the evaluation of its
        first direct zone (the TLD) is independent of the name: the walk
        and its memo contents are identical for every chain starting with
        that zone.  Snapshotting them after the first zone and resuming
        later chains from a copy removes the dominant per-chain cost
        (re-walking the whole TLD subtree) without changing a single
        comparison the recursion makes.
        """
        state = self._prefix_state
        if state is None or state[0] != closures.version:
            state = (closures.version, {})
            self._prefix_state = state
            self._direct = []
        return state[1]

    # -- public -------------------------------------------------------------------

    def analyze(self, graph) -> BottleneckResult:
        """Compute the optimal attack set for ``graph``'s target name.

        Evaluates :meth:`_block_node` on the target, except that the first
        zone's (cost, mask, memo) state is snapshotted and replayed across
        chains sharing it: the target itself is unreachable from the
        universe, so that state cannot depend on it.
        """
        universe, closures, target_id = graph.int_core()
        self._bind(universe)
        zones = closures.split_ids(target_id)[0]
        if not zones:
            return self._result_from_mask(graph.target, universe,
                                          (_INFINITY, 0))

        prefix = self._prefix_cache(closures)
        missing = universe.slot_count() - len(self._direct)
        if missing > 0:
            self._direct.extend([-1] * missing)
        first = zones[0]
        entry = prefix.get(first)
        best_cost = _INFINITY
        best_mask = 0
        in_progress = frozenset((target_id,))
        memo: Dict[int, Tuple[int, int]] = {}
        start = 0
        self._zc = self._base = None
        if entry is not None:
            cost0, mask0, snap_memo, zone_cache = entry
            memo = dict(snap_memo)
            self._zc = zone_cache
            self._base = snap_memo
            if cost0 < best_cost:
                best_cost, best_mask = cost0, mask0
            start = 1
        for index in range(start, len(zones)):
            cost, mask, _pure = self._zone_block(universe, closures,
                                                 zones[index], memo,
                                                 in_progress)
            if cost < best_cost:
                best_cost, best_mask = cost, mask
            if index == 0:
                prefix[first] = (cost, mask, dict(memo), {})
        return self._result_from_mask(graph.target, universe,
                                      (best_cost, best_mask))

    def analyze_unweighted(self, graph) -> BottleneckResult:
        """Convenience: the cut that minimises total size regardless of vulns."""
        analyzer = BottleneckAnalyzer(self.vulnerability_map,
                                      vulnerability_aware=False)
        return analyzer.analyze(graph)

    def _result(self, target: DomainName, cost: int,
                servers: FrozenSet[DomainName]) -> BottleneckResult:
        feasible = cost < _INFINITY
        if not feasible:
            return BottleneckResult(name=target, cut_servers=frozenset(),
                                    safe_in_cut=0, vulnerable_in_cut=0,
                                    feasible=False)
        safe = sum(1 for host in servers if not self._is_vulnerable(host))
        vulnerable = len(servers) - safe
        return BottleneckResult(name=target, cut_servers=servers,
                                safe_in_cut=safe, vulnerable_in_cut=vulnerable,
                                feasible=True)

    # -- cost model ------------------------------------------------------------------

    def _is_vulnerable(self, hostname: DomainName) -> bool:
        return bool(self.vulnerability_map.get(hostname, False))

    # -- recursion -----------------------------------------------------------------------

    def _result_from_mask(self, target: DomainName, universe,
                          result: Tuple[int, int]) -> BottleneckResult:
        cost, mask = result
        servers = frozenset(universe.mask_to_hosts(mask)) if mask else \
            frozenset()
        return self._result(target, cost, servers)

    def _block_node(self, universe, closures, node: int,
                    memo: Dict[int, Tuple[int, int]],
                    in_progress: FrozenSet[int]) -> Tuple[int, int]:
        """Cheapest way to block a name/host node (ids + slot bitsets)."""
        cached = memo.get(node)
        if cached is not None:
            return cached
        if node in in_progress:
            # Cyclic dependency (mutual secondaries): this branch cannot be
            # used to block the node more cheaply than attacking servers
            # directly, so treat it as unblockable here.
            return _INFINITY, 0
        in_progress = in_progress | {node}

        zones = closures.split_ids(node)[0]
        if not zones:
            result = (_INFINITY, 0)
            memo[node] = result
            return result

        best_cost = _INFINITY
        best_mask = 0
        zone_cache = self._zc
        for zone in zones:
            if zone_cache is not None:
                replay = zone_cache.get(zone)
                if replay is not None:
                    cost, mask = replay
                else:
                    cost, mask, pure = self._zone_block(
                        universe, closures, zone, memo, in_progress)
                    if pure:
                        zone_cache[zone] = (cost, mask)
            else:
                cost, mask, _pure = self._zone_block(universe, closures,
                                                     zone, memo, in_progress)
            if cost < best_cost:
                best_cost, best_mask = cost, mask
        result = (best_cost, best_mask)
        if best_cost < _INFINITY:
            memo[node] = result
        return result

    def _zone_block(self, universe, closures, zone: int,
                    memo: Dict[int, Tuple[int, int]],
                    in_progress: FrozenSet[int]) -> Tuple[int, int, bool]:
        """Cheapest way to control every nameserver delegated for a zone.

        The third element of the result is the zone-term *purity* flag:
        True when replay is active and every nameserver value came from a
        snapshot-resident memo hit, i.e. the term may be recorded for
        replay by the caller.
        """
        pure = self._zc is not None
        base = self._base
        nameservers = closures.split_ids(zone)[1]
        if not nameservers:
            return _INFINITY, 0, pure
        total = 0
        servers_mask = 0
        # Direct attack cost, read per slot (this loop runs millions of
        # times per survey): compromising an already-vulnerable server is
        # "free" in the primary component (no safe server consumed) but
        # still counts toward the cut size in the secondary, so ties
        # prefer smaller cuts.
        direct = self._direct
        ns_slots = universe.ns_slots
        memo_get = memo.get
        for ns in nameservers:
            slot = ns_slots[ns]
            direct_cost = direct[slot]
            if direct_cost < 0:
                direct_cost = self._direct_cost(universe, slot)
            cached = memo_get(ns)
            if cached is None:
                cached = self._block_node(universe, closures, ns, memo,
                                          in_progress)
                pure = False
            elif pure and ns not in base:
                pure = False
            indirect_cost, indirect_mask = cached
            if indirect_cost < direct_cost:
                choice_cost, choice_mask = indirect_cost, indirect_mask
            else:
                choice_cost, choice_mask = direct_cost, 1 << slot
            if choice_cost >= _INFINITY:
                return _INFINITY, 0, pure
            # Servers already selected for this zone's cut are not paid twice.
            new_mask = choice_mask & ~servers_mask
            if new_mask != choice_mask:
                choice_cost = self._mask_cost(universe, new_mask)
            total += choice_cost
            servers_mask |= new_mask
            if total >= _INFINITY:
                return _INFINITY, 0, pure
        return total, servers_mask, pure

    def _direct_cost(self, universe, slot: int) -> int:
        """The cost of attacking slot ``slot``'s server, now cached."""
        vulnerable = self.vulnerability_aware and \
            self._is_vulnerable(universe.slot_hosts[slot])
        cost = self._direct[slot] = \
            _VULNERABLE_COST if vulnerable else _SAFE_COST
        return cost

    def _mask_cost(self, universe, mask: int) -> int:
        """Combined cost of a concrete slot bitset (used when deduplicating)."""
        hosts = universe.mask_to_hosts(mask)
        safe = sum(1 for host in hosts if not (
            self.vulnerability_aware and self._is_vulnerable(host)))
        return (safe << _SAFE_SHIFT) | len(hosts)
