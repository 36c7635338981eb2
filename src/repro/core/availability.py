"""Availability analysis: the other side of the paper's dilemma.

Section 3.1 and the discussion in Section 5 frame an explicit trade-off:
administrators delegate to geographically and administratively remote
secondaries to survive failures, but every server they (transitively) lean
on is also a place their namespace can be hijacked from.  The security side
is quantified by the TCB and bottleneck analyses; this module quantifies the
availability side so the trade-off can be studied on the same graphs.

Resolution of a name succeeds when, for *every* zone on its delegation path,
at least one of the zone's nameservers is reachable — where "reachable"
itself requires the server to be up and its hostname to be resolvable
(recursively).  Over the delegation graph this is the same AND/OR structure
as the bottleneck analysis, evaluated with probabilities instead of attack
costs::

    avail(name)  = product over zones Z on the chain of avail_zone(Z)
    avail_zone(Z) = 1 - product over nameservers H of (1 - up(H) * avail(H))

Cycles (mutual secondaries) are broken the same way as in the bottleneck
analysis: a dependency loop cannot make a server *more* reachable, so the
looping branch contributes only the server's own up-probability.

The analyzer accepts any :class:`~repro.core.delegation.DelegationView`
and runs on the dense node ids and NS slots its
:meth:`~repro.core.delegation.DelegationView.int_core` hands over: the
survey engine's zero-copy :class:`~repro.core.delegation.TCBView` shares
the builder's universe, and a materialised
:class:`~repro.core.delegation.DelegationGraph` lowers itself into a
throwaway one.

Three evaluation modes are provided:

* :meth:`AvailabilityAnalyzer.resolution_probability` — analytic evaluation
  of the recursion under independent per-server failure probabilities
  (an approximation: shared dependencies are treated as independent).
* :meth:`AvailabilityAnalyzer.monte_carlo` — simulate failure draws and
  evaluate the same structure exactly per draw; used to sanity-check the
  analytic value and to study correlated (regional) failures.  The sweep
  is *bit-parallel*: every server gets one up/down bitmask over all
  samples (per sample, one draw per TCB host in sorted order), and a
  single AND/OR traversal of the graph evaluates every sample at once.
* :meth:`AvailabilityAnalyzer.single_points_of_failure` — the servers whose
  individual loss makes the name unresolvable, computed by a kill-set
  recursion over the same AND/OR structure (a server kills a zone iff it
  kills every nameserver of that zone) instead of one full re-evaluation
  per TCB member.  Kill sets are NS-slot bitsets.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, FrozenSet, Mapping, Optional, Set, Union

from repro.dns.name import DomainName
from repro.core.delegation import DelegationView
from repro.core.graphcore import NS_CODE

#: A per-server up-probability map or a single probability applied to all.
UpModel = Union[float, Mapping[DomainName, float]]


@dataclasses.dataclass
class AvailabilityReport:
    """Availability estimate for one name."""

    name: DomainName
    analytic: float
    monte_carlo: Optional[float] = None
    samples: int = 0
    single_points_of_failure: FrozenSet[DomainName] = frozenset()

    @property
    def has_single_point_of_failure(self) -> bool:
        """True if one server's loss alone makes the name unresolvable."""
        return bool(self.single_points_of_failure)


class AvailabilityAnalyzer:
    """Evaluates resolution availability over delegation views.

    Parameters
    ----------
    up_probability:
        Either a single probability applied to every server, or a mapping
        from hostname to up-probability (servers missing from the mapping
        get ``default_up``).
    default_up:
        Up-probability for servers not listed in the mapping.

    Memo keys and NS slots are universe-local ids, so the analyzer binds to
    one universe at a time.  The only state it carries across calls is the
    per-first-zone prefix snapshots, keyed on the closure index's version
    (see :meth:`_prefix_cache`), and a slot -> up-probability cache.
    """

    def __init__(self, up_probability: UpModel = 0.99,
                 default_up: float = 0.99):
        if isinstance(up_probability, float):
            if not 0.0 <= up_probability <= 1.0:
                raise ValueError("up_probability must be within [0, 1]")
            self._per_server: Dict[DomainName, float] = {}
            self.default_up = up_probability
        else:
            self._per_server = {DomainName(host): float(p)
                                for host, p in up_probability.items()}
            self.default_up = default_up
        if not 0.0 <= self.default_up <= 1.0:
            raise ValueError("default_up must be within [0, 1]")
        #: Constant up-probability when no per-server map is configured —
        #: lets the hot loops skip the per-slot lookup entirely.
        self._up_const: Optional[float] = \
            self.default_up if not self._per_server else None
        self._slot_up: Dict[int, float] = {}
        self._universe = None
        self._prefix_state: Optional[tuple] = None
        # Per-recursion zone-term replay state, active only while a
        # prefix-resumed evaluation runs (see _prefix_cache): `*_zc` maps a
        # zone id to its term when the term was computed purely from
        # snapshot-resident memo hits — such terms are identical for every
        # chain sharing the snapshot — and `*_base` is the snapshot memo
        # used for that purity test.
        self._avail_zc: Optional[Dict[int, float]] = None
        self._avail_base: Optional[Dict[int, float]] = None
        self._struct_zc: Optional[Dict[int, int]] = None
        self._struct_base: Optional[Dict[int, int]] = None

    def _lower(self, graph: DelegationView):
        """``graph.int_core()``, with the analyzer bound to its universe.

        Memo keys and slots are universe-local ids, so a new universe
        drops the prefix snapshots and the slot cache.
        """
        core = graph.int_core()
        if core[0] is not self._universe:
            self._universe = core[0]
            self._prefix_state = None
            self._slot_up = {}
        return core

    def _prefix_cache(self, closures, kind: str) -> Dict[int, tuple]:
        """Per-first-zone resume snapshots, valid for one closure version.

        A surveyed name's node has no in-edges, so evaluating its first
        direct zone (the TLD) — the walk and its memo contents — is
        independent of the name.  Snapshotting that state after the first
        zone and resuming later chains from a copy removes the dominant
        per-chain cost (re-walking the TLD subtree) without changing a
        single arithmetic step of the recursion.
        ``kind`` separates the analytic, structural-reachability, and
        kill-set evaluations.
        """
        state = self._prefix_state
        if state is None or state[0] != closures.version:
            state = (closures.version, {})
            self._prefix_state = state
        return state[1].setdefault(kind, {})

    # -- probability model ---------------------------------------------------------

    def up_probability(self, hostname: DomainName) -> float:
        """The probability that ``hostname`` is reachable."""
        return self._per_server.get(hostname, self.default_up)

    def _up_slot(self, universe, slot: int) -> float:
        """Slot-indexed up-probability (the up-model is fixed per analyzer)."""
        cache = self._slot_up
        probability = cache.get(slot)
        if probability is None:
            probability = self._per_server.get(universe.slot_hosts[slot],
                                               self.default_up)
            cache[slot] = probability
        return probability

    # -- analytic evaluation -----------------------------------------------------------

    def resolution_probability(self, graph: DelegationView) -> float:
        """Probability that the view's target name resolves.

        Shared dependencies are treated as independent, so the value is an
        approximation (generally a slight underestimate for names whose
        zones share servers); :meth:`monte_carlo` evaluates the structure
        without that assumption.
        """
        universe, closures, target_id = self._lower(graph)
        zones = closures.split_ids(target_id)[0]
        if not zones:
            # Nothing is known about the name's delegation chain at all.
            return 0.0
        split_ids = closures.split_ids
        ns_slots = universe.ns_slots
        prefix = self._prefix_cache(closures, "avail")
        first = zones[0]
        entry = prefix.get(first)
        in_progress = frozenset((target_id,))
        memo: Dict[int, float] = {}
        probability = 1.0
        start = 0
        self._avail_zc = self._avail_base = None
        if entry is not None:
            probability, snap_memo, broke, zone_cache = entry
            memo = dict(snap_memo)
            self._avail_zc = zone_cache
            self._avail_base = snap_memo
            start = len(zones) if broke else 1
        up_const = self._up_const
        for index in range(start, len(zones)):
            zone = zones[index]
            nameservers = split_ids(zone)[1]
            if not nameservers:
                probability = 0.0
                if index == 0:
                    prefix[first] = (probability, dict(memo), True, {})
                break
            all_down = 1.0
            memo_get = memo.get
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._avail_int(universe, closures, ns, memo,
                                            in_progress)
                up = up_const if up_const is not None else \
                    self._up_slot(universe, ns_slots[ns])
                all_down *= (1.0 - up * value)
            probability *= (1.0 - all_down)
            if index == 0:
                prefix[first] = (probability, dict(memo), False, {})
        return probability

    def _avail_int(self, universe, closures, node: int,
                   memo: Dict[int, float], in_progress: FrozenSet[int]
                   ) -> float:
        """Integer-path analytic availability (same traversal, same floats)."""
        cached = memo.get(node)
        if cached is not None:
            return cached
        if node in in_progress:
            # A dependency loop cannot improve reachability.
            return 1.0
        in_progress = in_progress | {node}
        split_ids = closures.split_ids
        zones = split_ids(node)[0]
        if not zones:
            # No recorded chain (e.g. glued hostname inside an already
            # covered zone): treat as reachable so the parent term reduces
            # to the server's own up-probability.
            memo[node] = 1.0
            return 1.0
        ns_slots = universe.ns_slots
        up_const = self._up_const
        memo_get = memo.get
        zone_cache = self._avail_zc
        base = self._avail_base
        probability = 1.0
        for zone in zones:
            if zone_cache is not None:
                replay = zone_cache.get(zone)
                if replay is not None:
                    probability *= replay
                    continue
            nameservers = split_ids(zone)[1]
            if not nameservers:
                probability = 0.0
                break
            all_down = 1.0
            pure = zone_cache is not None
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._avail_int(universe, closures, ns, memo,
                                            in_progress)
                    pure = False
                elif pure and ns not in base:
                    pure = False
                up = up_const if up_const is not None else \
                    self._up_slot(universe, ns_slots[ns])
                all_down *= (1.0 - up * value)
            term = 1.0 - all_down
            if pure:
                zone_cache[zone] = term
            probability *= term
        memo[node] = probability
        return probability

    # -- Monte Carlo evaluation ------------------------------------------------------------

    def monte_carlo(self, graph: DelegationView, samples: int = 500,
                    rng: Optional[random.Random] = None) -> float:
        """Estimate availability by sampling failure scenarios.

        The draw order is fixed — per sample, one draw per host of
        ``graph.tcb()`` in sorted order — so a given seed yields the same
        estimate as drawing a down set per sample and calling
        :meth:`resolvable_with_failures` on it.  The sweep is bit-parallel:
        one up-mask per server, all samples at once.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = rng or random.Random(0)
        universe, closures, target_id = self._lower(graph)
        hosts = sorted(graph.tcb())
        probabilities = [self.up_probability(host) for host in hosts]
        down_masks = [0] * len(hosts)
        rand = rng.random
        # Bit s of a server's mask is sample s's draw.
        for sample in range(samples):
            bit = 1 << sample
            for index, probability in enumerate(probabilities):
                if rand() >= probability:
                    down_masks[index] |= bit
        full = (1 << samples) - 1
        ns_slots = universe.ns_slots
        up_by_slot: Dict[int, int] = {}
        for index, host in enumerate(hosts):
            node_id = universe.find_id(NS_CODE, host)
            if node_id is not None:
                up_by_slot[ns_slots[node_id]] = full & ~down_masks[index]
        if not closures.split_ids(target_id)[0]:
            # No known delegation chain: the name resolves in no sample.
            return 0.0
        # Zone-term replay is only sound for the all-up evaluation.
        self._struct_zc = self._struct_base = None
        value = self._sample_masks(universe, closures, target_id, {},
                                   frozenset(), up_by_slot, full)
        return value.bit_count() / samples

    def _sample_masks(self, universe, closures, node: int,
                      memo: Dict[int, int], in_progress: FrozenSet[int],
                      up_by_slot: Dict[int, int], full: int) -> int:
        """Bitmask over samples in which ``node`` resolves.

        The availability recursion with 0/1 up-probabilities, evaluated
        for every sample bit at once: OR
        across a zone's nameservers, AND across a node's zones, dependency
        loops truncated as "reachable" — so bit *s* equals what
        :meth:`resolvable_with_failures` returns for sample *s*'s down set.
        """
        cached = memo.get(node)
        if cached is not None:
            return cached
        if node in in_progress:
            return full
        in_progress = in_progress | {node}
        split_ids = closures.split_ids
        zones = split_ids(node)[0]
        if not zones:
            memo[node] = full
            return full
        ns_slots = universe.ns_slots
        memo_get = memo.get
        up_get = up_by_slot.get
        zone_cache = self._struct_zc
        base = self._struct_base
        result = full
        for zone in zones:
            if zone_cache is not None:
                replay = zone_cache.get(zone)
                if replay is not None:
                    result &= replay
                    continue
            nameservers = split_ids(zone)[1]
            if not nameservers:
                result = 0
                break
            zone_up = 0
            pure = zone_cache is not None
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._sample_masks(universe, closures, ns, memo,
                                               in_progress, up_by_slot, full)
                    pure = False
                elif pure and ns not in base:
                    pure = False
                up_mask = up_get(ns_slots[ns], full)
                zone_up |= up_mask & value
            if pure:
                zone_cache[zone] = zone_up
            result &= zone_up
        memo[node] = result
        return result

    def resolvable_with_failures(self, graph: DelegationView,
                                 failed: Set[DomainName]) -> bool:
        """Exact check: does the name resolve when ``failed`` servers are down?"""
        return self._resolvable(self._lower(graph), failed)

    def _resolvable(self, core, failed: Set[DomainName],
                    memo: Optional[Dict[int, int]] = None) -> bool:
        universe, closures, target_id = core
        zones = closures.split_ids(target_id)[0]
        if not zones:
            return False
        if not failed:
            return self._resolvable_structurally(universe, closures,
                                                 target_id, zones, memo)
        up_by_slot: Dict[int, int] = {}
        ns_slots = universe.ns_slots
        for host in failed:
            node_id = universe.find_id(NS_CODE, host)
            if node_id is not None:
                up_by_slot[ns_slots[node_id]] = 0
        # Zone-term replay is only sound for the all-up evaluation.
        self._struct_zc = self._struct_base = None
        value = self._sample_masks(universe, closures, target_id, {},
                                   frozenset(), up_by_slot, 1)
        return bool(value)

    def _resolvable_structurally(self, universe, closures, target_id: int,
                                 zones, memo: Optional[Dict[int, int]] = None
                                 ) -> bool:
        """``resolvable_with_failures(graph, set())`` with prefix resume.

        With no failed servers every up-mask defaults to "up", so the
        evaluation is a pure function of the structure — and, like every
        top-level walk, its first-zone state is name-independent and can be
        snapshotted.  ``memo``, when given (empty), is filled with the
        walk's reachability memo.
        """
        prefix = self._prefix_cache(closures, "structure")
        first = zones[0]
        entry = prefix.get(first)
        in_progress = frozenset((target_id,))
        if memo is None:
            memo = {}
        up_by_slot: Dict[int, int] = {}
        result = 1
        start = 0
        self._struct_zc = self._struct_base = None
        if entry is not None:
            result, snap_memo, zone_cache = entry
            memo.update(snap_memo)
            self._struct_zc = zone_cache
            self._struct_base = snap_memo
            start = 1
        split_ids = closures.split_ids
        for index in range(start, len(zones)):
            zone = zones[index]
            nameservers = split_ids(zone)[1]
            if not nameservers:
                result = 0
                if index == 0:
                    prefix[first] = (result, dict(memo), {})
                break
            zone_up = 0
            memo_get = memo.get
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._sample_masks(universe, closures, ns, memo,
                                               in_progress, up_by_slot, 1)
                zone_up |= value
            result &= zone_up
            if index == 0:
                prefix[first] = (result, dict(memo), {})
        return bool(result)

    # -- single points of failure ------------------------------------------------------------

    def single_points_of_failure(self, graph: DelegationView
                                 ) -> FrozenSet[DomainName]:
        """Servers whose individual loss makes the name unresolvable.

        These are exactly the size-one bottlenecks of the availability
        structure: names served by a single machine anywhere on their chain.
        Computed by a kill-set recursion mirroring the availability AND/OR
        structure — a server kills a zone iff it kills every nameserver of
        that zone (by being it, or by killing its hostname's resolution) —
        so the cost is one graph walk instead of one per TCB member.
        """
        core = self._lower(graph)
        reach: Dict[int, int] = {}
        if not self._resolvable(core, set(), reach):
            # The name does not resolve even with every server up: any
            # single failure "also" leaves it unresolvable.
            return frozenset(graph.tcb())
        universe, closures, target_id = core
        mask = self._kill_top_int(universe, closures, target_id, reach)
        if not mask:
            return frozenset()
        return frozenset(universe.mask_to_hosts(mask))

    def _kill_top_int(self, universe, closures, target_id: int,
                      structure_memo: Dict[int, int]) -> int:
        """Top-level kill-set evaluation with per-first-zone prefix resume.

        Mirrors :meth:`_kill_int` applied to the target node; the snapshot
        captures both the kill memo and the all-up reachability memo of
        :meth:`_sample_masks` (the two walks interleave) after the first
        zone.  Past the first zone, reachability the walk has not memoised
        is taken from ``structure_memo``, the all-up memo of the structure
        walk that has just run for this name, instead of being walked
        again.  The snapshot is taken before that, so it holds first-zone
        state only and stays name-independent.
        """
        zones = closures.split_ids(target_id)[0]
        if not zones:
            return 0
        prefix = self._prefix_cache(closures, "kill")
        first = zones[0]
        entry = prefix.get(first)
        in_progress = frozenset((target_id,))
        memo: Dict[int, int] = {}
        reach_memo: Dict[int, int] = {}
        kills = 0
        start = 0
        self._struct_zc = self._struct_base = None
        if entry is not None:
            kills, snap_memo, snap_reach, reach_zc = entry
            memo = dict(snap_memo)
            reach_memo = {**structure_memo, **snap_reach}
            self._struct_zc = reach_zc
            self._struct_base = snap_reach
            start = 1
        for index in range(start, len(zones)):
            zone_kill = self._kill_zone_int(universe, closures, zones[index],
                                            memo, reach_memo, in_progress)
            if zone_kill:
                kills |= zone_kill
            if index == 0:
                prefix[first] = (kills, dict(memo), dict(reach_memo), {})
                reach_memo = {**structure_memo, **reach_memo}
        return kills

    def _kill_int(self, universe, closures, node: int,
                  memo: Dict[int, int], reach_memo: Dict[int, int],
                  in_progress: FrozenSet[int]) -> int:
        """Slot bitset of hostnames whose failure makes ``node`` unresolvable."""
        cached = memo.get(node)
        if cached is not None:
            return cached
        if node in in_progress:
            # The looping branch is treated as reachable by the availability
            # recursion, so nothing kills it from inside the loop.
            return 0
        in_progress = in_progress | {node}
        zones = closures.split_ids(node)[0]
        if not zones:
            memo[node] = 0
            return 0
        kills = 0
        for zone in zones:
            zone_kill = self._kill_zone_int(universe, closures, zone, memo,
                                            reach_memo, in_progress)
            if zone_kill:
                kills |= zone_kill
        memo[node] = kills
        return kills

    def _kill_zone_int(self, universe, closures, zone: int,
                       memo: Dict[int, int], reach_memo: Dict[int, int],
                       in_progress: FrozenSet[int]) -> Optional[int]:
        """One zone's kill intersection (shared by top-level and recursion)."""
        nameservers = closures.split_ids(zone)[1]
        zone_kill: Optional[int] = None
        reach_get = reach_memo.get
        memo_get = memo.get
        ns_slots = universe.ns_slots
        for ns in nameservers:
            # A nameserver that cannot resolve even with every server up
            # (its own chain crosses a dead zone) is no alternative: it
            # imposes no constraint on the zone's kill intersection.
            reach = reach_get(ns)
            if reach is None:
                reach = self._sample_masks(universe, closures, ns, reach_memo,
                                           in_progress, {}, 1)
            if not reach:
                continue
            term = memo_get(ns)
            if term is None:
                term = self._kill_int(universe, closures, ns, memo,
                                      reach_memo, in_progress)
            term |= 1 << ns_slots[ns]
            zone_kill = term if zone_kill is None else (zone_kill & term)
            if not zone_kill:
                break
        return zone_kill

    def single_points_of_failure_exhaustive(self, graph: DelegationView
                                            ) -> FrozenSet[DomainName]:
        """Reference implementation: re-evaluate resolution per TCB member.

        One full availability evaluation per server — O(TCB × graph) versus
        the kill-set recursion's single walk.
        """
        core = self._lower(graph)
        return frozenset(hostname for hostname in graph.tcb()
                         if not self._resolvable(core, {hostname}))

    def report(self, graph: DelegationView, samples: int = 0,
               rng: Optional[random.Random] = None) -> AvailabilityReport:
        """Full availability report (analytic, optional Monte Carlo, SPOFs)."""
        analytic = self.resolution_probability(graph)
        monte_carlo = None
        if samples:
            monte_carlo = self.monte_carlo(graph, samples=samples, rng=rng)
        return AvailabilityReport(
            name=graph.target, analytic=analytic, monte_carlo=monte_carlo,
            samples=samples,
            single_points_of_failure=self.single_points_of_failure(graph))


def availability_security_tradeoff(graphs, up_probability: float = 0.95,
                                   vulnerability_map: Optional[Mapping] = None
                                   ) -> Dict[str, float]:
    """Summarise the paper's dilemma over a collection of delegation views.

    Returns the mean TCB size (the security cost), the mean analytic
    availability under independent failures (the availability benefit), and
    the fraction of names with at least one single point of failure.
    """
    analyzer = AvailabilityAnalyzer(up_probability)
    sizes = []
    availabilities = []
    spof_names = 0
    for graph in graphs:
        sizes.append(graph.tcb_size())
        availabilities.append(analyzer.resolution_probability(graph))
        if analyzer.single_points_of_failure(graph):
            spof_names += 1
    count = max(1, len(sizes))
    return {
        "names": float(len(sizes)),
        "mean_tcb_size": sum(sizes) / count,
        "mean_availability": sum(availabilities) / count,
        "fraction_with_spof": spof_names / count,
    }
