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
(recursively).  With a set of failed servers, the resolvable nodes are the
greatest fixpoint (gfp) of three rules:

* a server resolves when it has not failed and all of its zones resolve;
* a zone resolves when any of its servers resolves;
* a name resolves when all of its zones resolve.

The builder encodes in-bailiwick glue as a loop (``ns1.x`` -> zone ``x``
-> ``ns1.x``), so the greatest fixpoint, not the least, is the reading the
graphs carry.  The boolean analyses compute it exactly, as the least
fixpoint of the complementary "down" equations (see
:meth:`AvailabilityAnalyzer._down`), one strongly connected component at a
time and bit-parallel over lanes:

* :meth:`AvailabilityAnalyzer.resolvable_with_failures` — one lane, the
  given failed set;
* :meth:`AvailabilityAnalyzer.monte_carlo` — one lane per sample of
  simulated failure draws (per sample, one draw per TCB host in sorted
  order); used to sanity-check the analytic value and to study correlated
  (regional) failures;
* :meth:`AvailabilityAnalyzer.single_points_of_failure` — one lane per NS
  slot, lane *s* failing slot *s*'s server: the servers whose individual
  loss makes the name unresolvable, answered by one evaluation instead of
  one per TCB member.

:meth:`AvailabilityAnalyzer.resolution_probability` is the analytic value
under independent per-server failure probabilities, the same AND/OR
structure evaluated with probabilities::

    avail(name)  = product over zones Z on the chain of avail_zone(Z)
    avail_zone(Z) = 1 - product over nameservers H of (1 - up(H) * avail(H))

It is an approximation twice over: shared dependencies are treated as
independent, and a dependency loop counts as reachable — the looping
branch contributes only the server's own up-probability.

The analyzer accepts any :class:`~repro.core.delegation.TCBView` and runs
on the dense node ids and NS slots its
:meth:`~repro.core.delegation.TCBView.int_core` hands over: the survey
engine's zero-copy views share the builder's universe, and a
:class:`~repro.core.delegation.DelegationGraph` owns the universe it was
lowered into when it was made, so repeated calls on one graph reuse one
core.
"""

from __future__ import annotations

import dataclasses
import random
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.dns.name import DomainName
from repro.core.delegation import TCBView
from repro.core.graphcore import NS_CODE, ZONE_CODE

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
    analytic recursion's per-first-zone prefix snapshots and the SPOF
    fixpoint's memo, both keyed on the closure index's version (see
    :meth:`_cached`), and a slot -> up-probability cache.
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
        self._state: Optional[tuple] = None
        # Zone-term replay state of the analytic recursion, active only
        # while a prefix-resumed evaluation runs (see _cached): `_avail_zc`
        # maps a zone id to its term when the term was computed purely
        # from snapshot-resident memo hits — such terms are identical for
        # every chain sharing the snapshot — and `_avail_base` is the
        # snapshot memo used for that purity test.
        self._avail_zc: Optional[Dict[int, float]] = None
        self._avail_base: Optional[Dict[int, float]] = None

    def _lower(self, graph: TCBView):
        """``graph.int_core()``, with the analyzer bound to its universe.

        Memo keys and slots are universe-local ids, so a new universe
        drops the cached state and the slot cache.
        """
        core = graph.int_core()
        if core[0] is not self._universe:
            self._universe = core[0]
            self._state = None
            self._slot_up = {}
        return core

    def _cached(self, closures) -> Tuple[Dict[int, tuple], Dict[int, int]]:
        """(prefix snapshots, SPOF down memo), valid for one closure version.

        A surveyed name's node has no in-edges, so evaluating its first
        direct zone (the TLD) — the walk and its memo contents — is
        independent of the name.  Snapshotting that state after the first
        zone and resuming later chains from a copy removes the dominant
        per-chain cost (re-walking the TLD subtree) of the analytic
        recursion without changing a single arithmetic step.  The SPOF
        fixpoint's values depend on the graph alone, so its memo is
        shared by every name.
        """
        state = self._state
        if state is None or state[0] != closures.version:
            state = (closures.version, {}, {})
            self._state = state
        return state[1], state[2]

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

    def resolution_probability(self, graph: TCBView) -> float:
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
        prefix = self._cached(closures)[0]
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

    # -- the boolean analyses: one least fixpoint ------------------------------------

    def _down(self, core, own: Callable[[int], int],
              memo: Dict[int, int]) -> int:
        """Lanes in which the target does not resolve (bit per lane).

        The least fixpoint of the "down" equations, the complement of the
        greatest fixpoint of resolution::

            down(name)   = OR over zones Z of name of down(Z)
            down(server) = own(server) | OR over zones Z of server of down(Z)
            down(Z)      = AND over nameservers H of Z of down(H)

        ``own`` gives each server's own failure lanes by node id.  A zone
        with no nameserver is ``-1``, down in every lane, and so is a
        target with no known zone; a node with no zones is ``0``.  Nodes
        are evaluated one strongly connected component at a time, in
        reverse topological order: a component starts at ``0`` and is
        iterated until nothing changes.  ``memo`` maps node ids to their
        values and may carry over between calls with the same ``own``.
        """
        universe, closures, target_id = core
        split_ids = closures.split_ids
        if not split_ids(target_id)[0]:
            return -1
        kinds = universe.kinds
        for members in closures.components(target_id, memo):
            for member in members:
                memo[member] = 0
            # A one-node component never reads its own value (the rules
            # only follow name/server -> zone -> server), so one pass
            # settles it.
            cyclic = len(members) > 1
            changed = True
            while changed:
                changed = False
                for member in members:
                    zones, nameservers = split_ids(member)
                    kind = kinds[member]
                    if kind == ZONE_CODE:
                        value = -1
                        for ns in nameservers:
                            value &= memo[ns]
                    else:
                        value = own(member) if kind == NS_CODE else 0
                        for zone in zones:
                            value |= memo[zone]
                    if value != memo[member]:
                        memo[member] = value
                        changed = cyclic
        return memo[target_id]

    def monte_carlo(self, graph: TCBView, samples: int = 500,
                    rng: Optional[random.Random] = None) -> float:
        """Estimate availability by sampling failure scenarios.

        The draw order is fixed — per sample, one draw per host of
        ``graph.tcb()``, the target's closure, in sorted order — so a given
        seed yields the same estimate as drawing a down set per sample and
        calling :meth:`resolvable_with_failures` on it.  The sweep is
        bit-parallel: lane *s* of a server's down mask is sample *s*'s
        draw, and one fixpoint evaluates every sample at once.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = rng or random.Random(0)
        core = self._lower(graph)
        hosts = sorted(graph.tcb())
        probabilities = [self.up_probability(host) for host in hosts]
        masks = [0] * len(hosts)
        rand = rng.random
        for sample in range(samples):
            bit = 1 << sample
            for index, probability in enumerate(probabilities):
                if rand() >= probability:
                    masks[index] |= bit
        find_id = core[0].find_id
        own = {find_id(NS_CODE, host): mask
               for host, mask in zip(hosts, masks)}
        down = self._down(core, lambda ns: own.get(ns, 0), {})
        return (((1 << samples) - 1) & ~down).bit_count() / samples

    def resolvable_with_failures(self, graph: TCBView,
                                 failed: Set[DomainName]) -> bool:
        """Exact check: does the name resolve when ``failed`` servers are down?"""
        core = self._lower(graph)
        find_id = core[0].find_id
        own = {find_id(NS_CODE, host): 1 for host in failed}
        return not self._down(core, lambda ns: own.get(ns, 0), {}) & 1

    def single_points_of_failure(self, graph: TCBView
                                 ) -> FrozenSet[DomainName]:
        """Servers whose individual loss makes the name unresolvable.

        These are exactly the size-one bottlenecks of the availability
        structure: names served by a single machine anywhere on their chain.
        Lane *s* fails NS slot *s*, so one fixpoint answers every single
        failure at once.  A node's value then depends on the graph alone,
        so the memo lives as long as the closure version.  A name that
        does not resolve with every server up reports its whole TCB.
        """
        core = self._lower(graph)
        universe, closures, _target = core
        ns_slots = universe.ns_slots
        down = self._down(core, lambda ns: 1 << ns_slots[ns],
                          self._cached(closures)[1])
        if down == -1:
            return graph.tcb_frozen()
        return frozenset(universe.mask_to_hosts(down))

    def report(self, graph: TCBView, samples: int = 0,
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
