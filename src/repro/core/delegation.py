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

* :meth:`DelegationGraphBuilder.build` materialises a full
  :class:`DelegationGraph` (a copied subgraph) for interactive inspection
  and hijack-path extraction;
* :meth:`DelegationGraphBuilder.tcb_view` returns a zero-copy
  :class:`TCBView` whose TCB comes from a memoized per-node closure index
  (:class:`ClosureIndex`) — the fast path the survey engine uses, which
  never copies a graph and never recomputes a closure that is already
  known.

Graph encoding
--------------

The universe is a :class:`~repro.core.graphcore.DependencyUniverse`: every
``(kind, DomainName)`` node is interned to a dense integer id, every NS node
additionally gets a dense *slot* (its bit position in closure bitsets), and
adjacency is stored insertion-ordered per node with a lazily frozen CSR
snapshot (:meth:`~repro.core.graphcore.DependencyUniverse.csr`).  At the
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
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dns.errors import ResolutionError
from repro.dns.name import DomainName, NameLike
from repro.dns.resolver import IterativeResolver, ZoneCut
from repro.core.graphcore import (
    DependencyUniverse,
    KeyGraph,
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
    with an iterative Tarjan SCC pass — mutually dependent zones (mutual
    secondaries) collapse into one component sharing one closure — and
    memoized per node id, so surveying name *N+1* only ever explores the
    part of the universe that no earlier name reached.  Unions of bitsets
    are single big-int ORs; nothing in the hot path hashes a
    :class:`DomainName`.

    The builder keeps the memo correct as the universe grows: whenever a node
    that already existed gains a new out-edge, the memo entries of that node
    and of everything that can reach it are dropped (see :meth:`invalidate`).
    Companion memos (e.g. the survey engine's shared bottleneck memo, keyed
    by the same integer node ids) can be registered to be purged on the same
    events.
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
        self._key_split: Dict[int, Tuple[List[NodeKey], List[NodeKey]]] = {}
        self._companions: List[MutableMapping[int, object]] = []
        #: slot -> contribution bit (0 for excluded hosts), grown lazily.
        self._slot_bits: List[int] = []
        #: mask -> shared frozenset materialisation (content-addressed).
        self._sets: Dict[int, FrozenSet[DomainName]] = {}
        self.computations = 0
        self.invalidations = 0
        #: Bumped whenever memoized state is actually dropped; callers that
        #: key derived caches on graph structure can compare versions
        #: instead of registering a per-node companion.
        self.version = 0

    def __len__(self) -> int:
        return len(self._memo)

    @property
    def universe(self) -> DependencyUniverse:
        """The integer universe this index runs over."""
        return self._graph

    def register_companion(self,
                           memo: MutableMapping[int, object]) -> None:
        """Purge ``memo``'s entries alongside this index's on invalidation."""
        self._companions.append(memo)

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
        graph = self._graph
        out = graph.out
        ns_slots = graph.ns_slots
        # When the universe has stopped growing (post-run inspection,
        # recomputation after a sharded merge) the frozen CSR snapshot is
        # still valid and the walk reads it; during discovery the snapshot
        # is stale and the growable rows are iterated directly.  Row order
        # is identical either way.
        csr = graph.csr_if_fresh()
        offsets = targets = None
        if csr is not None:
            offsets, targets = csr

        # Iterative Tarjan: SCCs are closed in reverse topological order, so
        # when a component is popped every successor outside it is already
        # memoized and the component's closure is the union (bitwise OR) of
        # its members' own contribution bits and those successor closures.
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        scc_stack: List[int] = []
        partial: Dict[int, int] = {}
        work: List[Tuple[int, Iterator[int]]] = []
        counter = 0

        def open_node(n: int) -> None:
            nonlocal counter
            index[n] = low[n] = counter
            counter += 1
            scc_stack.append(n)
            on_stack.add(n)
            slot = ns_slots[n]
            partial[n] = self._slot_bit(slot) if slot >= 0 else 0
            if offsets is not None:
                work.append((n, iter(targets[offsets[n]:offsets[n + 1]])))
            else:
                work.append((n, iter(out[n])))

        open_node(node)
        while work:
            current, successors = work[-1]
            descended = False
            for succ in successors:
                done = memo.get(succ)
                if done is not None:
                    partial[current] |= done
                elif succ not in index:
                    open_node(succ)
                    descended = True
                    break
                elif succ in on_stack:
                    if index[succ] < low[current]:
                        low[current] = index[succ]
            if descended:
                continue
            work.pop()
            if low[current] == index[current]:
                members: List[int] = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member == current:
                        break
                shared = 0
                for member in members:
                    shared |= partial.pop(member)
                for member in members:
                    memo[member] = shared
                self.computations += len(members)
            if work:
                parent = work[-1][0]
                if low[current] < low[parent]:
                    low[parent] = low[current]
                finished = memo.get(current)
                if finished is not None:
                    partial[parent] |= finished
        return memo[node]

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

    def successors_split(self, node: NodeKey
                         ) -> Tuple[List[NodeKey], List[NodeKey]]:
        """The node's successors split into (zones, nameservers), as keys."""
        node_id = self._graph.find_key(node)
        if node_id is None:
            # Not cached: the node may be added (with edges) later, which
            # would not trigger invalidation for a first-ever edge.
            return ([], [])
        cached = self._key_split.get(node_id)
        if cached is not None:
            return cached
        zones, nameservers = self.split_ids(node_id)
        key_of = self._graph.key_of
        split = ([key_of(z) for z in zones], [key_of(n) for n in nameservers])
        self._key_split[node_id] = split
        return split

    # -- invalidation -------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every memoized closure (companion memos included)."""
        self._memo.clear()
        self._split.clear()
        self._key_split.clear()
        for companion in self._companions:
            companion.clear()
        self.version += 1
        # A full clear happens when a shard universe was just absorbed; the
        # merged graph is typically final, so freeze the CSR snapshot now
        # and the recomputation walks the arrays instead of the rows.
        self._graph.csr()

    def reset_companions(self) -> None:
        """Clear every companion memo and bump the version, keeping closures.

        Used when world state *outside* the graph structure changed (a
        server's software banner, a DNSSEC deployment): closure bitsets are
        pure graph reachability and stay valid, but analysis memos keyed on
        the same node ids may embed vulnerability or signature verdicts and
        must go.  The version bump also retires every derived cache keyed
        on it (the engine's per-chain analysis memo, availability
        prefix-resume snapshots).
        """
        for companion in self._companions:
            companion.clear()
        self.version += 1

    def invalidate(self, node: NodeKey) -> None:
        """Drop memoized closures for ``node`` and everything reaching it."""
        node_id = self._graph.find_key(node)
        if node_id is None:
            return
        self.invalidate_id(node_id)

    def invalidate_id(self, node: int) -> None:
        """Integer-id variant of :meth:`invalidate` (the builder's path)."""
        if not self._memo and not self._split and not self._key_split \
                and not any(self._companions):
            return
        memo = self._memo
        split = self._split
        key_split = self._key_split
        companions = self._companions
        inn = self._graph.inn
        seen = {node}
        stack = [node]
        dropped = 0
        while stack:
            current = stack.pop()
            if memo.pop(current, None) is not None:
                self.invalidations += 1
                dropped += 1
            if split.pop(current, None) is not None:
                dropped += 1
            if key_split.pop(current, None) is not None:
                dropped += 1
            for companion in companions:
                if companion.pop(current, None) is not None:
                    dropped += 1
            for pred in inn[current]:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        if dropped:
            self.version += 1


class DelegationView:
    """Read-only accessors shared by :class:`DelegationGraph` / :class:`TCBView`.

    Subclasses provide ``target`` (the surveyed name), ``graph`` (a digraph
    in the module's NodeKey encoding that contains at least everything
    reachable from the target — a :class:`~repro.core.graphcore.KeyGraph`,
    the shared :class:`~repro.core.graphcore.DependencyUniverse`, or any
    object with the same ``successors``/``nodes`` surface, e.g. a
    ``networkx.DiGraph`` built by a test), ``excluded_suffixes``, and an
    implementation of :meth:`tcb`.  All structure accessors follow successor
    edges from the target, so they observe exactly the nodes a per-name
    subgraph copy would contain even when ``graph`` is the whole shared
    universe.
    """

    target: DomainName
    graph: object
    excluded_suffixes: Tuple[DomainName, ...]

    # -- TCB ------------------------------------------------------------------

    def tcb(self) -> Set[DomainName]:
        """The trusted computing base: nameservers the target depends on."""
        raise NotImplementedError

    def tcb_size(self) -> int:
        """Number of nameservers in the TCB."""
        return len(self.tcb())

    def _is_excluded(self, hostname: DomainName) -> bool:
        return any(hostname.is_subdomain_of(suffix)
                   for suffix in self.excluded_suffixes)

    # -- structure accessors used by the bottleneck analysis -----------------------

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

    def in_bailiwick_servers(self) -> Set[DomainName]:
        """TCB members whose hostname lies inside the target's own zone.

        These are the servers "administered by the nameowner" in the paper's
        terminology (2.2 on average, versus a TCB of 46).
        """
        zone = self.authoritative_zone()
        if zone is None:
            return set()
        return {host for host in self.tcb() if host.is_subdomain_of(zone)}

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


class DelegationGraph(DelegationView):
    """The delegation graph of a single domain name.

    Wraps a digraph whose nodes follow the NodeKey encoding described in the
    module docstring (a :class:`~repro.core.graphcore.KeyGraph` when built
    by the builder; hand-built graphs with the same ``successors``/``nodes``
    surface work too), and provides the accessors the analyses need (TCB
    extraction, zone/nameserver views, dependency paths).
    """

    def __init__(self, target: NameLike, graph,
                 excluded_suffixes: Sequence[str] = DEFAULT_EXCLUDED_SUFFIXES):
        self.target = DomainName(target)
        self.graph = graph
        self.excluded_suffixes = tuple(DomainName(s) for s in excluded_suffixes)
        if name_node(self.target) not in graph:
            graph.add_node(name_node(self.target))

    # -- basic views -----------------------------------------------------------

    def nameservers(self, include_excluded: bool = False) -> List[DomainName]:
        """All nameserver hostnames in the graph."""
        hosts = [key[1] for key in self.graph.nodes if key[0] == NS_KIND]
        if not include_excluded:
            hosts = [h for h in hosts if not self._is_excluded(h)]
        return sorted(hosts)

    def zones(self) -> List[DomainName]:
        """All zone apexes in the graph."""
        return sorted(key[1] for key in self.graph.nodes if key[0] == ZONE_KIND)

    def tcb(self) -> Set[DomainName]:
        """The trusted computing base: nameservers the target depends on.

        Root servers are excluded, matching the paper's TCB accounting.
        """
        return {key[1] for key in self.graph.nodes
                if key[0] == NS_KIND and not self._is_excluded(key[1])}

    def node_count(self) -> int:
        """Total nodes (names + zones + nameservers) in the graph."""
        return self.graph.number_of_nodes()

    def edge_count(self) -> int:
        """Total dependency edges in the graph."""
        return self.graph.number_of_edges()

    def __repr__(self) -> str:
        return (f"DelegationGraph({self.target!s}, "
                f"{self.tcb_size()} nameservers, "
                f"{len(self.zones())} zones)")


class TCBView(DelegationView):
    """A zero-copy per-name view backed by the shared integer universe.

    Provides everything the TCB report and the bottleneck analysis need —
    :meth:`tcb` / :meth:`tcb_size` / :meth:`in_bailiwick_servers` /
    :meth:`zones_of` / :meth:`nameservers_of_zone` — without materialising a
    copied subgraph.  The TCB itself is an NS-slot bitset from the builder's
    :class:`ClosureIndex`, fixed at construction time; names are
    materialised from it lazily (and shared across views with equal masks).
    Ask the builder for a fresh view (or a full :class:`DelegationGraph`)
    after the universe has grown.

    Integer-path consumers (:class:`~repro.core.mincut.BottleneckAnalyzer`,
    :class:`~repro.core.availability.AvailabilityAnalyzer`) reach the raw
    core through :meth:`int_core`; the ids they see are builder-local and
    must never cross a process boundary.
    """

    def __init__(self, target: NameLike, universe: DependencyUniverse,
                 mask: int, excluded_suffixes: Sequence[str] =
                 DEFAULT_EXCLUDED_SUFFIXES,
                 structure: Optional[ClosureIndex] = None,
                 target_id: Optional[int] = None):
        self.target = DomainName(target)
        self.graph = universe
        self.excluded_suffixes = tuple(DomainName(s) for s in excluded_suffixes)
        self._mask = mask
        self._structure = structure
        self._target_id = target_id if target_id is not None else \
            universe.find_id(NAME_CODE, self.target)

    # -- integer core -----------------------------------------------------------

    def int_core(self) -> Optional[Tuple[DependencyUniverse, ClosureIndex, int]]:
        """(universe, closure index, target id) for integer fast paths."""
        if self._structure is None or self._target_id is None:
            return None
        return (self.graph, self._structure, self._target_id)

    def tcb_mask(self) -> int:
        """The TCB as an NS-slot bitset (do not persist across processes)."""
        return self._mask

    # -- NodeKey accessors -------------------------------------------------------

    def zones_of(self, node: NodeKey) -> List[NodeKey]:
        if self._structure is None:
            return super().zones_of(node)
        return self._structure.successors_split(node)[0]

    def nameservers_of_zone(self, zone: NodeKey) -> List[NodeKey]:
        if self._structure is None:
            return super().nameservers_of_zone(zone)
        return self._structure.successors_split(zone)[1]

    def tcb(self) -> Set[DomainName]:
        return set(self.tcb_frozen())

    def tcb_size(self) -> int:
        return self._mask.bit_count()

    def tcb_frozen(self) -> FrozenSet[DomainName]:
        """The TCB as the shared (do-not-mutate) frozenset."""
        if self._structure is not None:
            return self._structure.mask_set(self._mask)
        return frozenset(self.graph.mask_to_hosts(self._mask))

    def in_bailiwick_servers(self) -> Set[DomainName]:
        zone = self.authoritative_zone()
        if zone is None:
            return set()
        return {host for host in self.graph.mask_to_hosts(self._mask)
                if host.is_subdomain_of(zone)}

    def __repr__(self) -> str:
        return f"TCBView({self.target!s}, {self.tcb_size()} nameservers)"


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
        self._universe = DependencyUniverse()
        self._closures = ClosureIndex(self._universe, self.excluded_suffixes)
        self._chain_cache: Dict[DomainName, List[ZoneCut]] = {}
        self._expanded_hosts: Set[DomainName] = set()
        self._expanded_names: Set[DomainName] = set()
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
        """Build (or retrieve from the universe) the graph for ``name``.

        Materialises a copied per-name subgraph — use :meth:`tcb_view` when
        only the TCB / bottleneck accessors are needed.
        """
        target = DomainName(name)
        source_id = self._ensure_name(target)
        subgraph = self._universe.subgraph_copy(source_id)
        return DelegationGraph(target, subgraph,
                               excluded_suffixes=self.excluded_suffixes)

    def tcb_view(self, name: NameLike) -> TCBView:
        """Discover ``name`` and return a zero-copy view of its closure."""
        target = DomainName(name)
        source_id = self._ensure_name(target)
        mask = self._closures.closure_mask_id(source_id)
        return TCBView(target, self._universe, mask,
                       excluded_suffixes=self.excluded_suffixes,
                       structure=self._closures, target_id=source_id)

    def closure_of(self, name: NameLike) -> FrozenSet[DomainName]:
        """The memoized TCB of ``name`` (discovering it if needed)."""
        target = DomainName(name)
        source_id = self._ensure_name(target)
        return self._closures.mask_set(
            self._closures.closure_mask_id(source_id))

    def absorb(self, other: "DelegationGraphBuilder") -> None:
        """Fold another builder's discovered universe into this one.

        Used by the sharded survey backends to merge per-shard universes
        back into the primary builder: nodes, edges, chain caches, and
        expansion markers are adopted (re-interned — integer ids are
        builder-local), and the closure memo is reset because merged edges
        may extend existing closures.
        """
        self._universe.merge(other._universe)
        self._chain_cache.update(other._chain_cache)
        self._expanded_hosts |= other._expanded_hosts
        self._expanded_names |= other._expanded_names
        self._closures.clear()

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
        edited = dict(changes.edited_zones)
        created = tuple(changes.created_zones)

        self.resolver.invalidate_zones(list(edited) + list(created))
        if changes.added_names:
            self.resolver.cache.purge(names=changes.added_names)

        # Cached chains that embed a stale cut (re-delegated zone on the
        # path) or miss a new one (the walked name lies below a new cut).
        def chain_stale(name: DomainName, cuts) -> bool:
            if any(cut.zone in edited for cut in cuts):
                return True
            return any(name.is_subdomain_of(apex) for apex in created)

        stale = [name for name, cuts in self._chain_cache.items()
                 if chain_stale(name, cuts)]
        stale_hosts: List[Tuple[DomainName, int]] = []
        for name in stale:
            del self._chain_cache[name]
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
            self._chain_cache.pop(name, None)
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

    def build_many(self, names: Iterable[NameLike]) -> Dict[DomainName, DelegationGraph]:
        """Build graphs for many names, sharing every intermediate result."""
        graphs: Dict[DomainName, DelegationGraph] = {}
        for name in names:
            graph = self.build(name)
            graphs[graph.target] = graph
        return graphs

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
        for hostname in cut.nameservers:
            if self._is_excluded(hostname):
                continue
            hnode = universe.ensure_id(NS_CODE, hostname)
            self._add_edge_ids(znode, hnode)
            self._expand_host(hostname, hnode, depth + 1)

    def _expand_host(self, hostname: DomainName, hnode: int,
                     depth: int) -> None:
        """Add a nameserver hostname's own dependency chain to the universe."""
        if hostname in self._expanded_hosts:
            return
        if depth > self.max_depth:
            return
        self._expanded_hosts.add(hostname)
        for cut in self.chain(hostname):
            self._add_zone_cut(hnode, cut, depth)
