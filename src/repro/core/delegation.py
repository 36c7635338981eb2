"""Delegation graphs: the transitive closure of nameserver dependencies.

Section 2 of the paper defines the delegation graph of a domain name as the
transitive closure of all nameservers that could be involved in its
resolution: the name depends on every zone on its delegation path; each zone
depends on each of its nameservers; and each nameserver's own hostname must
in turn be resolved, which drags in the zones (and nameservers) on *its*
delegation path, and so on.

:class:`DelegationGraphBuilder` discovers this structure by issuing real
queries through an :class:`~repro.dns.resolver.IterativeResolver` — exactly
what the survey did against the live Internet — and accumulates everything it
learns in a shared *universe* graph so that work is never repeated across the
hundreds of thousands of names in a survey.  Two projections of the universe
are offered:

* :meth:`DelegationGraphBuilder.tcb_view` returns a zero-copy
  :class:`TCBView` whose TCB comes from a memoized per-node closure index
  (:class:`ClosureIndex`) — the fast path the survey engine uses, which
  never copies a graph and never recomputes a closure that is already
  known;
* :meth:`DelegationGraphBuilder.build` returns a :class:`DelegationGraph`
  for interactive inspection, export and hijack-path extraction: the same
  view over a universe of its own, into which the name's reachable part
  is lowered once, when the graph is made.

Both are one view class over ``(universe, closure index, target id, TCB
mask)``, so the TCB is the target's closure either way, and the analyses
run on the integer core :meth:`TCBView.int_core` hands over.

Graph encoding
--------------

The universe is a :class:`~repro.core.graphcore.DependencyUniverse`: every
``(kind, DomainName)`` node is interned to a dense integer id, every NS node
additionally gets a dense *slot* (its bit position in closure bitsets), and
adjacency is stored insertion-ordered per node, forward and reverse.  At the
NodeKey level nodes are ``(kind, DomainName)`` tuples where ``kind`` is
``"name"``, ``"zone"``, or ``"ns"``, and edges point from the dependent
entity to the entity it depends on:

* ``(name, X) -> (zone, Z)`` for every zone ``Z`` on ``X``'s delegation path;
* ``(zone, Z) -> (ns, H)`` for every nameserver ``H`` delegated to serve ``Z``;
* ``(ns, H) -> (zone, Z')`` for every zone ``Z'`` on the delegation path of
  the hostname ``H``.

Closures are bitsets: :meth:`ClosureIndex.closure_mask_id` answers "which
non-excluded nameservers are reachable from here?" as an integer mask whose
bit *s* stands for NS slot *s*.  Masks are materialised back into
:class:`frozenset`\\ s of :class:`~repro.dns.name.DomainName` only at the
record/snapshot boundary (equal masks share one frozenset).  Root servers
(and the root zone) are excluded, matching the paper's accounting.
"""

from __future__ import annotations

from typing import (
    Container,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dns.errors import ResolutionError
from repro.dns.name import DomainName, NameLike, SubtreeIndex
from repro.dns.resolver import IterativeResolver, ZoneCut
from repro.core.graphcore import (
    DependencyUniverse,
    NAME_CODE,
    NS_CODE,
    ZONE_CODE,
)

#: Node kinds used in the delegation graph.
NAME_KIND = "name"
ZONE_KIND = "zone"
NS_KIND = "ns"

NodeKey = Tuple[str, DomainName]

#: Hostname suffixes excluded from TCBs by default (the root servers).
DEFAULT_EXCLUDED_SUFFIXES: Tuple[str, ...] = ("root-servers.net",)


def name_node(name: NameLike) -> NodeKey:
    """Node key for a surveyed domain name."""
    return (NAME_KIND, DomainName(name))


def zone_node(name: NameLike) -> NodeKey:
    """Node key for a zone apex."""
    return (ZONE_KIND, DomainName(name))


def ns_node(name: NameLike) -> NodeKey:
    """Node key for a nameserver hostname."""
    return (NS_KIND, DomainName(name))


class ClosureIndex:
    """Memoized bitset closures over a (possibly cyclic) integer universe.

    For every node the index answers "which non-excluded nameserver hostnames
    are reachable from here?" as an integer bitset over NS slots (and, via
    :meth:`closure`, as a shared :class:`frozenset`).  Closures are computed
    over the strongly connected components of :meth:`components` —
    mutually dependent zones (mutual secondaries) collapse into one
    component sharing one closure — and memoized per node id, so surveying
    name *N+1* only ever explores the part of the universe that no earlier
    name reached.  Unions of bitsets are single big-int ORs; nothing in
    the hot path hashes a :class:`DomainName`.

    The builder keeps the memo correct as the universe grows: whenever a node
    that already existed gains a new out-edge, the memo entries of that node
    and of everything that can reach it are dropped (see :meth:`invalidate`),
    and :attr:`version` is bumped so caches derived from the structure
    (the engine's per-chain analyses, the analyzers' cached state)
    retire with them.
    """

    def __init__(self, graph: DependencyUniverse,
                 excluded_suffixes: Sequence[DomainName] = ()):
        if not isinstance(graph, DependencyUniverse):
            raise TypeError(
                "ClosureIndex requires a DependencyUniverse; wrap ad-hoc "
                "topologies with graphcore.DependencyUniverse() and its "
                "NodeKey add_edge API")
        self._graph = graph
        self._excluded = tuple(DomainName(s) for s in excluded_suffixes)
        self._memo: Dict[int, int] = {}
        self._split: Dict[int, Tuple[List[int], List[int]]] = {}
        #: slot -> contribution bit (0 for excluded hosts), grown lazily.
        self._slot_bits: List[int] = []
        #: mask -> shared frozenset materialisation (content-addressed).
        self._sets: Dict[int, FrozenSet[DomainName]] = {}
        self.computations = 0
        self.invalidations = 0
        #: Bumped whenever memoized state is actually dropped; callers key
        #: caches derived from graph structure on it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._memo)

    @property
    def universe(self) -> DependencyUniverse:
        """The integer universe this index runs over."""
        return self._graph

    # -- slot bookkeeping -------------------------------------------------------------

    def _slot_bit(self, slot: int) -> int:
        """The contribution bit for ``slot`` (0 if the host is excluded)."""
        bits = self._slot_bits
        if slot < len(bits):
            return bits[slot]
        hosts = self._graph.slot_hosts
        excluded = self._excluded
        while len(bits) <= slot:
            host = hosts[len(bits)]
            if excluded and any(host.is_subdomain_of(suffix)
                                for suffix in excluded):
                bits.append(0)
            else:
                bits.append(1 << len(bits))
        return bits[slot]

    def mask_set(self, mask: int) -> FrozenSet[DomainName]:
        """Materialise a closure mask as a shared frozenset of hostnames."""
        cached = self._sets.get(mask)
        if cached is None:
            cached = frozenset(self._graph.mask_to_hosts(mask))
            self._sets[mask] = cached
        return cached

    # -- closures ---------------------------------------------------------------------

    def closure(self, node: NodeKey) -> FrozenSet[DomainName]:
        """The set of non-excluded nameservers reachable from ``node``."""
        node_id = self._graph.find_key(node)
        if node_id is None:
            return frozenset()
        return self.mask_set(self.closure_mask_id(node_id))

    def closure_mask_id(self, node: int) -> int:
        """The closure of integer node ``node`` as an NS-slot bitset."""
        memo = self._memo
        cached = memo.get(node)
        if cached is not None:
            return cached
        out = self._graph.out
        ns_slots = self._graph.ns_slots
        memo_get = memo.get
        # Components come in reverse topological order, so every successor
        # outside a component is already memoized and the component's
        # closure is the union (bitwise OR) of its members' own
        # contribution bits and those successor closures.
        for members in self.components(node, memo):
            shared = 0
            for member in members:
                slot = ns_slots[member]
                if slot >= 0:
                    shared |= self._slot_bit(slot)
                for succ in out[member]:
                    shared |= memo_get(succ, 0)
            for member in members:
                memo[member] = shared
            self.computations += len(members)
        return memo[node]

    def components(self, node: int, done: Container[int]
                   ) -> Iterator[List[int]]:
        """Strongly connected components reachable from ``node``.

        An iterative Tarjan pass over the universe's out-edges.  The walk
        does not enter nodes in ``done`` (whatever the caller has already
        evaluated), and it yields each component in reverse topological
        order: when a component comes out, every successor outside it is
        in ``done`` or in a component yielded before.
        """
        out = self._graph.out
        index: Dict[int, int] = {node: 0}
        low: Dict[int, int] = {node: 0}
        on_stack: Set[int] = {node}
        stack: List[int] = [node]
        work: List[Tuple[int, Iterator[int]]] = [(node, iter(out[node]))]
        while work:
            current, successors = work[-1]
            for succ in successors:
                if succ in done:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(out[succ])))
                    break
                if succ in on_stack and index[succ] < low[current]:
                    low[current] = index[succ]
            else:
                work.pop()
                if low[current] == index[current]:
                    members: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == current:
                            break
                    yield members
                if work:
                    parent = work[-1][0]
                    if low[current] < low[parent]:
                        low[parent] = low[current]

    # -- adjacency splits --------------------------------------------------------------

    def split_ids(self, node: int) -> Tuple[List[int], List[int]]:
        """Integer successors of ``node`` split into (zones, nameservers).

        Successor order is preserved.  The split lists are cached (the
        bottleneck recursion reads them millions of times per survey) and
        dropped by the same invalidation pass as the closures; callers must
        not mutate them.
        """
        cached = self._split.get(node)
        if cached is not None:
            return cached
        zones: List[int] = []
        nameservers: List[int] = []
        kinds = self._graph.kinds
        for succ in self._graph.out[node]:
            kind = kinds[succ]
            if kind == ZONE_CODE:
                zones.append(succ)
            elif kind == NS_CODE:
                nameservers.append(succ)
        split = (zones, nameservers)
        self._split[node] = split
        return split

    # -- invalidation -------------------------------------------------------------------

    def retire_analyses(self) -> None:
        """Bump the version, keeping closures and splits.

        Used when world state *outside* the graph structure changed (a
        server's software banner, a DNSSEC deployment): closure bitsets are
        pure graph reachability and stay valid, but every cache keyed on
        the version (the engine's per-chain analyses, the analyzers'
        prefix-resume snapshots) may embed vulnerability or signature
        verdicts and must go.
        """
        self.version += 1

    def invalidate(self, node: NodeKey) -> None:
        """Drop memoized closures for ``node`` and everything reaching it."""
        node_id = self._graph.find_key(node)
        if node_id is None:
            return
        self.invalidate_id(node_id)

    def invalidate_id(self, node: int) -> None:
        """Integer-id variant of :meth:`invalidate` (the builder's path).

        Only ``node``'s own split goes: callers invalidate every node whose
        row they change.  The climb passes only through nodes that held a
        memo, because memos are closed downwards: a closure is memoized
        together with everything it reaches, and a drop takes every
        memoized ancestor with it, so a node without a memo has no
        memoized ancestor left to drop.
        """
        dropped = self._split.pop(node, None) is not None
        memo = self._memo
        if memo.pop(node, None) is not None:
            inn = self._graph.inn
            stack = [node]
            count = 1
            while stack:
                for pred in inn[stack.pop()]:
                    if memo.pop(pred, None) is not None:
                        count += 1
                        stack.append(pred)
            self.invalidations += count
            dropped = True
        if dropped:
            self.version += 1


class TCBView:
    """A per-name view over an integer universe: the one view class.

    A view is ``(universe, closure index, target id, TCB mask)``.  The TCB
    is the target's closure: an NS-slot bitset from the
    :class:`ClosureIndex`, fixed at construction time, whose names are
    materialised lazily (and shared across views with equal masks).  The
    builder's :meth:`~DelegationGraphBuilder.tcb_view` shares the builder's
    universe, so ask it for a fresh view after the universe has grown; a
    :class:`DelegationGraph` is this view over a universe of its own.

    ``graph`` is the universe.  Its NodeKey ``successors`` / ``nodes`` /
    ``edges`` surface serves the structure accessors below, the exporters
    and the hijack paths.  The accessors follow successor edges from the
    target, so they see only what the target reaches even when the
    universe is the builder's.
    """

    def __init__(self, target: NameLike, universe: DependencyUniverse,
                 mask: int, *, structure: ClosureIndex, target_id: int):
        self.target = DomainName(target)
        self.graph = universe
        self._mask = mask
        self._core = (universe, structure, target_id)

    # -- TCB ------------------------------------------------------------------

    def int_core(self) -> Tuple[DependencyUniverse, ClosureIndex, int]:
        """(universe, closure index, target id) for the integer analyses.

        :class:`~repro.core.mincut.BottleneckAnalyzer` and
        :class:`~repro.core.availability.AvailabilityAnalyzer` run only on
        this core; the ids in it are universe-local and must never cross a
        process boundary.
        """
        return self._core

    def tcb_mask(self) -> int:
        """The TCB as an NS-slot bitset (do not persist across processes)."""
        return self._mask

    def tcb(self) -> Set[DomainName]:
        """The trusted computing base: the nameservers the target reaches.

        Root servers are excluded, matching the paper's TCB accounting.
        """
        return set(self.tcb_frozen())

    def tcb_size(self) -> int:
        """Number of nameservers in the TCB."""
        return self._mask.bit_count()

    def tcb_frozen(self) -> FrozenSet[DomainName]:
        """The TCB as the shared (do-not-mutate) frozenset."""
        return self._core[1].mask_set(self._mask)

    def in_bailiwick_servers(self) -> Set[DomainName]:
        """TCB members whose hostname lies inside the target's own zone.

        These are the servers "administered by the nameowner" in the paper's
        terminology (2.2 on average, versus a TCB of 46).
        """
        zone = self.authoritative_zone()
        if zone is None:
            return set()
        return set(self.graph.mask_to_hosts(
            self._mask & self.graph.slots_under(zone)))

    # -- structure accessors (chain keys, hijack paths) ----------------------------

    def zones_of(self, node: NodeKey) -> List[NodeKey]:
        """Zone successors of a name or nameserver node."""
        return [succ for succ in self.graph.successors(node)
                if succ[0] == ZONE_KIND]

    def nameservers_of_zone(self, zone: NodeKey) -> List[NodeKey]:
        """Nameserver successors of a zone node."""
        return [succ for succ in self.graph.successors(zone)
                if succ[0] == NS_KIND]

    def direct_zones(self) -> List[DomainName]:
        """Zones on the target's own delegation path (its direct chain)."""
        return [key[1] for key in self.zones_of(name_node(self.target))]

    def authoritative_zone(self) -> Optional[DomainName]:
        """The deepest zone on the target's direct chain (its own zone)."""
        zones = self.direct_zones()
        if not zones:
            return None
        return max(zones, key=lambda z: z.depth)

    def dependency_path(self, hostname: NameLike) -> List[NodeKey]:
        """A shortest dependency path from the target to ``hostname``.

        Returns an empty list if the server is not in the graph.  The path
        alternates name/zone/nameserver nodes and reads like the fbi.gov
        anecdote: *name depends on zone, served by host, whose own zone
        depends on ...*.
        """
        source = name_node(self.target)
        destination = ns_node(hostname)
        graph = self.graph
        if destination not in graph:
            return []
        if source == destination:
            return [source]
        # Breadth-first search: parents recorded on first visit yield one
        # shortest path.
        parents: Dict[NodeKey, NodeKey] = {source: source}
        frontier = [source]
        while frontier:
            next_frontier: List[NodeKey] = []
            for node in frontier:
                for succ in graph.successors(node):
                    if succ in parents:
                        continue
                    parents[succ] = node
                    if succ == destination:
                        path = [succ]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    next_frontier.append(succ)
            frontier = next_frontier
        return []

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.target!s}, "
                f"{self.tcb_size()} nameservers)")


class DelegationGraph(TCBView):
    """The delegation graph of a single domain name, in a universe it owns.

    The constructor lowers what the target reaches in ``graph`` — the
    builder's universe, or any digraph in the NodeKey encoding with the
    ``successors`` surface, e.g. a ``networkx.DiGraph`` built by a test —
    into a fresh :class:`~repro.core.graphcore.DependencyUniverse`, once.
    Every row is added in ``graph``'s own successor order, because the
    analyses break ties by that order.  ``graph`` itself is not changed.
    """

    def __init__(self, target: NameLike, graph,
                 excluded_suffixes: Sequence[str] = DEFAULT_EXCLUDED_SUFFIXES):
        universe = DependencyUniverse()
        source = name_node(target)
        target_id = universe.ensure_key(source)
        if source in graph:
            seen = {source}
            stack = [source]
            while stack:
                node = stack.pop()
                node_id = universe.ensure_key(node)
                for succ in graph.successors(node):
                    universe.add_edge_ids(node_id, universe.ensure_key(succ))
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
        structure = ClosureIndex(universe, excluded_suffixes)
        super().__init__(target, universe,
                         structure.closure_mask_id(target_id),
                         structure=structure, target_id=target_id)

    def nameservers(self, include_excluded: bool = False) -> List[DomainName]:
        """All nameserver hostnames in the graph."""
        if include_excluded:
            return sorted(self.graph.slot_hosts)
        return sorted(self.tcb_frozen())

    def zones(self) -> List[DomainName]:
        """All zone apexes in the graph."""
        return sorted(key[1] for key in self.graph.nodes if key[0] == ZONE_KIND)

    def node_count(self) -> int:
        """Total nodes (names + zones + nameservers) in the graph."""
        return self.graph.number_of_nodes()

    def edge_count(self) -> int:
        """Total dependency edges in the graph."""
        return self.graph.number_of_edges()


class _ChainIndex:
    """Where the builder's cached chains run, so a world change finds the
    chains it stales by lookup instead of testing every one.

    Each cached name has a place, numbered in chain-cache order: hits come
    back in that order, which decides the order stale hosts are re-walked
    in.  ``through`` maps a zone to the places of the chains that cross
    it.  ``below`` files every place under its name's label suffixes;
    only a newly cut zone needs it, so the first one builds it.
    """

    def __init__(self, chains: Dict[DomainName, List[ZoneCut]]):
        #: place -> name; None once the name's chain is dropped.
        self.names: List[Optional[DomainName]] = list(chains)
        self.order: Dict[DomainName, int] = dict(
            zip(self.names, range(len(self.names))))
        self.through: Dict[DomainName, Set[int]] = {}
        self.below: Optional[SubtreeIndex] = None
        through = self.through
        for place, cuts in enumerate(chains.values()):
            for cut in cuts:
                bucket = through.get(cut.zone)
                if bucket is None:
                    through[cut.zone] = {place}
                else:
                    bucket.add(place)

    def add(self, name: DomainName, cuts: Sequence[ZoneCut]) -> None:
        """File ``name``'s chain; a name already filed keeps its place."""
        place = self.order.get(name)
        if place is None:
            place = self.order[name] = len(self.names)
            self.names.append(name)
            if self.below is not None:
                self.below.add(name.labels, place)
        for cut in cuts:
            bucket = self.through.get(cut.zone)
            if bucket is None:
                self.through[cut.zone] = {place}
            else:
                bucket.add(place)

    def remove(self, name: DomainName, cuts: Sequence[ZoneCut]) -> None:
        """Unfile ``name``'s chain ``cuts`` and its place."""
        place = self.order[name]
        for cut in cuts:
            bucket = self.through.get(cut.zone)
            if bucket is not None:
                bucket.discard(place)
                if not bucket:
                    del self.through[cut.zone]
        del self.order[name]
        self.names[place] = None
        if self.below is not None:
            self.below.discard(name.labels, place)

    def stale(self, edited: Iterable[DomainName],
              created: Sequence[DomainName]) -> List[DomainName]:
        """Names whose chain crosses an edited zone or lies at or below a
        created one, in chain-cache order."""
        hits: Set[int] = set()
        for zone in edited:
            hits.update(self.through.get(zone, ()))
        if created and self.below is None:
            self.below = SubtreeIndex()
            for name, place in self.order.items():
                self.below.add(name.labels, place)
        for apex in created:
            hits.update(self.below.at_or_below(apex.labels))
        return [self.names[place] for place in sorted(hits)]


class DelegationGraphBuilder:
    """Builds delegation graphs by querying the (simulated) DNS.

    Parameters
    ----------
    resolver:
        The iterative resolver used to enumerate zone cuts.  Its cache is
        shared across all names in a survey.
    excluded_suffixes:
        Hostname suffixes never added to the graph (default: root servers).
    max_depth:
        Safety bound on the recursion depth through nameserver hostnames.
    """

    def __init__(self, resolver: IterativeResolver,
                 excluded_suffixes: Sequence[str] = DEFAULT_EXCLUDED_SUFFIXES,
                 max_depth: int = 150):
        self.resolver = resolver
        self.excluded_suffixes = tuple(DomainName(s) for s in excluded_suffixes)
        self.max_depth = max_depth
        #: Set once a walk stops at ``max_depth``: rows then depend on the
        #: depth a host was first reached at, which a delta cannot replay.
        self.depth_truncated = False
        self._universe = DependencyUniverse()
        self._closures = ClosureIndex(self._universe, self.excluded_suffixes)
        self._chain_cache: Dict[DomainName, List[ZoneCut]] = {}
        #: Built by the first :meth:`apply_changes`, current from then on.
        self._chain_index: Optional[_ChainIndex] = None
        self._expanded_hosts: Set[DomainName] = set()
        self._expanded_names: Set[DomainName] = set()
        #: zone node -> the NS list last found settled on it: every
        #: non-excluded host on it has an edge from the zone and is
        #: expanded, so walking the list again adds nothing.  Only
        #: apply_changes un-expands hosts or rewrites zone rows, and it
        #: clears these marks.
        self._settled_rows: Dict[int, List[DomainName]] = {}
        #: hostname -> excluded?, decided once per host.
        self._excluded_hosts: Dict[DomainName, bool] = {}
        self.queries_saved_by_cache = 0

    # -- public ---------------------------------------------------------------------

    @property
    def universe(self) -> DependencyUniverse:
        """The shared dependency graph accumulated across all builds."""
        return self._universe

    @property
    def closures(self) -> ClosureIndex:
        """The memoized closure index over the universe."""
        return self._closures

    def build(self, name: NameLike) -> DelegationGraph:
        """Discover ``name`` and lower what it reaches into its own graph.

        The :class:`DelegationGraph` owns a copy of the name's part of the
        universe — use :meth:`tcb_view` when only the TCB / bottleneck
        accessors are needed.
        """
        target = DomainName(name)
        self._ensure_name(target)
        return DelegationGraph(target, self._universe,
                               excluded_suffixes=self.excluded_suffixes)

    def tcb_view(self, name: NameLike) -> TCBView:
        """Discover ``name`` and return a zero-copy view of its closure."""
        target = DomainName(name)
        source_id = self._ensure_name(target)
        mask = self._closures.closure_mask_id(source_id)
        return TCBView(target, self._universe, mask,
                       structure=self._closures, target_id=source_id)

    def closure_of(self, name: NameLike) -> FrozenSet[DomainName]:
        """The memoized TCB of ``name`` (discovering it if needed)."""
        target = DomainName(name)
        source_id = self._ensure_name(target)
        return self._closures.mask_set(
            self._closures.closure_mask_id(source_id))

    def apply_changes(self, changes, dirty_names: Iterable[NameLike] = ()
                      ) -> None:
        """Surgically update the warm universe for a journalled world change.

        ``changes`` is a :class:`~repro.topology.changes.ChangeSet`.  The
        goal is byte-identity with a cold discovery of the mutated world
        while keeping every untouched region's closures, splits, chains,
        and resolver walk state warm:

        * resolver walk caches through or below re-delegated / newly cut
          zones are dropped (:meth:`IterativeResolver.invalidate_zones`);
        * re-delegated zone nodes get their successor rows rebuilt in the
          new canonical ``ZoneCut.nameservers`` order, with ancestor
          closures invalidated;
        * cached chains that traverse a re-delegated zone (or run below a
          newly cut one) are dropped, and the hosts among them get their
          dependency rows cleared and re-walked eagerly — their regions
          feed closure recomputation before any per-name walk would reach
          them;
        * every dirty name's expansion marker and dependency row is
          cleared so its next ``tcb_view`` re-walks the live chain,
          rebuilding the row in cold (top-down) cut order.

        Per-node successor order is what makes this sound: a node's row
        only ever depends on its *own* first discovery walk (later walks
        de-duplicate), so rebuilding exactly the affected rows in walk
        order reproduces what a from-scratch discovery would hold.
        """
        universe = self._universe
        closures = self._closures
        self._settled_rows.clear()
        edited = dict(changes.edited_zones)
        created = tuple(changes.created_zones)

        self.resolver.invalidate_zones(list(edited) + list(created))
        if changes.added_names:
            self.resolver.cache.purge(names=changes.added_names)

        # Cached chains that embed a stale cut (re-delegated zone on the
        # path) or miss a new one (the walked name lies below a new cut).
        index = self._chain_index
        if index is None:
            index = self._chain_index = _ChainIndex(self._chain_cache)
        stale = index.stale(edited, created)
        stale_hosts: List[Tuple[DomainName, int]] = []
        for name in stale:
            index.remove(name, self._chain_cache.pop(name))
            if name in self._expanded_hosts:
                self._expanded_hosts.discard(name)
                hnode = universe.find_id(NS_CODE, name)
                if hnode is not None:
                    closures.invalidate_id(hnode)
                    universe.clear_out_edges(hnode)
                    stale_hosts.append((name, hnode))
            if name in self._expanded_names:
                # Stale surveyed names are normally also dirty (handled
                # below); clearing here as well keeps the universe sound
                # even for callers that under-report the dirty set.
                self._expanded_names.discard(name)
                node_id = universe.find_id(NAME_CODE, name)
                if node_id is not None:
                    closures.invalidate_id(node_id)
                    universe.clear_out_edges(node_id)

        # Dirty names: clear their rows so the next tcb_view re-walks.
        for name in dirty_names:
            name = DomainName(name)
            self._expanded_names.discard(name)
            cuts = self._chain_cache.pop(name, None)
            if cuts is not None:
                index.remove(name, cuts)
            node_id = universe.find_id(NAME_CODE, name)
            if node_id is not None:
                closures.invalidate_id(node_id)
                universe.clear_out_edges(node_id)

        # Re-delegated zones: rebuild NS successor rows in canonical order.
        for apex, nameservers in edited.items():
            znode = universe.find_id(ZONE_CODE, apex)
            if znode is None:
                continue
            targets = [universe.ensure_id(NS_CODE, hostname)
                       for hostname in nameservers
                       if not self._is_excluded(hostname)]
            universe.set_out_edges(znode, targets)
            closures.invalidate_id(znode)

        # Eagerly rebuild stale host regions: closures of dirty names may
        # traverse them without any walk ever revisiting the host itself.
        for hostname, hnode in stale_hosts:
            if hostname in self._expanded_hosts:
                continue  # pulled back in by an earlier host's re-walk
            self._expand_host(hostname, hnode, depth=1)

    def chain(self, name: NameLike) -> List[ZoneCut]:
        """The (cached) zone-cut chain for a name or hostname."""
        key = name if isinstance(name, DomainName) else DomainName(name)
        cached = self._chain_cache.get(key)
        if cached is not None:
            self.queries_saved_by_cache += 1
            return cached
        try:
            cuts = self.resolver.zone_cut_chain(key)
        except ResolutionError:
            cuts = []
        self._chain_cache[key] = cuts
        if self._chain_index is not None:
            self._chain_index.add(key, cuts)
        return cuts

    def discovered_nameservers(self) -> Set[DomainName]:
        """Every nameserver hostname discovered so far (survey-wide)."""
        return set(self._universe.slot_hosts)

    # -- internals --------------------------------------------------------------------

    def _is_excluded(self, hostname: DomainName) -> bool:
        excluded = self._excluded_hosts.get(hostname)
        if excluded is None:
            excluded = any(hostname.is_subdomain_of(suffix)
                           for suffix in self.excluded_suffixes)
            self._excluded_hosts[hostname] = excluded
        return excluded

    def _add_edge_ids(self, dependent: int, dependency: int) -> None:
        """Add a dependency edge, invalidating stale closures if needed."""
        if self._universe.add_edge_ids(dependent, dependency):
            # The dependent (and everything that reaches it) may have a
            # memoized closure that no longer covers this new dependency.
            self._closures.invalidate_id(dependent)

    def _ensure_name(self, target: DomainName) -> int:
        """Add the target name's chain (and its closure) to the universe."""
        universe = self._universe
        if target in self._expanded_names:
            return universe.ensure_id(NAME_CODE, target)
        self._expanded_names.add(target)
        source = universe.ensure_id(NAME_CODE, target)
        for cut in self.chain(target):
            self._add_zone_cut(source, cut, depth=0)
        return source

    def _add_zone_cut(self, dependent: int, cut: ZoneCut,
                      depth: int) -> None:
        """Record ``dependent -> zone -> nameservers`` and expand hostnames."""
        universe = self._universe
        znode = universe.ensure_id(ZONE_CODE, cut.zone)
        self._add_edge_ids(dependent, znode)
        nameservers = cut.nameservers
        if self._settled_rows.get(znode) == nameservers:
            return
        expanded = self._expanded_hosts
        settled = True
        for hostname in nameservers:
            if self._is_excluded(hostname):
                continue
            hnode = universe.ensure_id(NS_CODE, hostname)
            self._add_edge_ids(znode, hnode)
            self._expand_host(hostname, hnode, depth + 1)
            if hostname not in expanded:
                settled = False  # past max_depth: a shallower walk may add it
        if settled:
            self._settled_rows[znode] = nameservers

    def _expand_host(self, hostname: DomainName, hnode: int,
                     depth: int) -> None:
        """Add a nameserver hostname's own dependency chain to the universe."""
        if hostname in self._expanded_hosts:
            return
        if depth > self.max_depth:
            self.depth_truncated = True
            return
        self._expanded_hosts.add(hostname)
        for cut in self.chain(hostname):
            self._add_zone_cut(hnode, cut, depth)
