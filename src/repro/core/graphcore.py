"""Integer-interned graph core: the name table and the dependency universe.

The survey is fundamentally a transitive-closure computation over hundreds of
thousands of names, and the engine's hot loops (closure unions, the min-cut
and availability recursions, Monte-Carlo trials) used to round-trip through
``(kind, DomainName)`` tuples, Python ``set``s, and a ``networkx.DiGraph``.
Every membership test hashed a label tuple; every closure union copied a
``frozenset``.

This module provides the compact core those loops now run on:

* :class:`NameTable` — interns every :class:`~repro.dns.name.DomainName`
  seen during discovery into a dense integer id (and back);
* :class:`DependencyUniverse` — the shared dependency graph over integer
  node ids, with per-kind node typing, insertion-ordered adjacency (so
  iteration order matches what a ``networkx.DiGraph`` built by the same
  edge sequence would produce), reverse edges for ancestor invalidation,
  and a dense *nameserver slot* per NS node (the bit position used by
  bitset closures, TCB masks, and Monte-Carlo masks).

Every per-name graph is a universe too: the builder's shared one behind a
:class:`~repro.core.delegation.TCBView`, or the one a
:class:`~repro.core.delegation.DelegationGraph` lowers the name's
reachable part into when it is made.  Nothing in ``core.delegation``
needs ``networkx``.

Node keys versus node ids
-------------------------

Integer ids are *process-local and builder-local*: two worker shards
discovering the same universe assign different ids to the same node, and a
socket worker must therefore never ship raw ids over the wire.  The
NodeKey tuple API (``add_edge``, ``successors``, ``nodes``, ``edges``, ...)
remains the stable, name-based boundary — ids live only inside one universe's
closure index, analyzers, and memos, and are translated back to
:class:`~repro.dns.name.DomainName` at the record/snapshot boundary.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dns.name import DomainName

#: Node kinds (string constants shared with :mod:`repro.core.delegation`).
NAME_KIND = "name"
ZONE_KIND = "zone"
NS_KIND = "ns"

#: Integer codes for the three node kinds.
NAME_CODE = 0
ZONE_CODE = 1
NS_CODE = 2

KIND_CODES: Dict[str, int] = {NAME_KIND: NAME_CODE, ZONE_KIND: ZONE_CODE,
                              NS_KIND: NS_CODE}
KIND_STRINGS: Tuple[str, str, str] = (NAME_KIND, ZONE_KIND, NS_KIND)

NodeKey = Tuple[str, DomainName]


class NameTable:
    """Interns :class:`DomainName` instances into dense integer ids.

    Ids are assigned in first-seen order and never reused; the table is
    append-only, so an id handed out once stays valid for the lifetime of
    the table.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[DomainName, int] = {}
        self._names: List[DomainName] = []

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: DomainName) -> bool:
        return name in self._ids

    def intern(self, name: DomainName) -> int:
        """The id for ``name``, assigning the next dense id if unseen."""
        ids = self._ids
        found = ids.get(name)
        if found is None:
            found = len(self._names)
            ids[name] = found
            self._names.append(name)
        return found

    def id_of(self, name: DomainName) -> Optional[int]:
        """The id for ``name``, or ``None`` if it was never interned."""
        return self._ids.get(name)

    def name_of(self, name_id: int) -> DomainName:
        """The :class:`DomainName` interned under ``name_id``."""
        return self._names[name_id]


class DependencyUniverse:
    """The shared dependency graph over integer-interned nodes.

    Nodes are ``(kind, DomainName)`` pairs interned to dense integer ids;
    edges are stored twice (forward adjacency for closure/analysis walks,
    reverse adjacency for ancestor invalidation), both insertion-ordered.
    Every NS node additionally receives a dense *slot* — the bit position
    that represents the server in closure bitsets, TCB masks, vulnerability
    masks, and Monte-Carlo sample masks.

    The class speaks two dialects:

    * the **integer API** (``ensure_id`` / ``find_id`` / ``add_edge_ids``
      / ``mask_to_hosts`` / ...) used by the hot paths, and
    * a **NodeKey duck API** (``add_edge`` / ``successors`` / ``nodes`` /
      ``edges`` / ``__contains__`` / ...) mirroring the subset of the
      ``networkx.DiGraph`` surface the rest of the code base and the test
      suite use, so hand-built universes keep working without networkx.
    """

    __slots__ = ("names", "_ids", "kinds", "name_ids", "out", "inn",
                 "ns_slots", "slot_hosts", "_edge_count", "_under",
                 "_under_filed")

    def __init__(self, names: Optional[NameTable] = None) -> None:
        self.names = names if names is not None else NameTable()
        #: (name_id * 3 + kind_code) -> node id; packed-int keys hash as
        #: themselves, so lookups never touch DomainName.__hash__.
        self._ids: Dict[int, int] = {}
        self.kinds = array("b")          #: kind code per node id
        self.name_ids = array("l")       #: name-table id per node id
        self.out: List[List[int]] = []   #: forward adjacency (insertion order)
        self.inn: List[List[int]] = []   #: reverse adjacency
        self.ns_slots = array("l")       #: NS slot per node id (-1 otherwise)
        self.slot_hosts: List[DomainName] = []   #: slot -> hostname
        self._edge_count = 0
        #: label suffix -> bitset of the slots whose host is at or below
        #: it, for the first ``_under_filed`` slots (see slots_under).
        self._under: Dict[Tuple[str, ...], int] = {}
        self._under_filed = 0

    # -- integer API ----------------------------------------------------------------

    def ensure_id(self, kind_code: int, name: DomainName) -> int:
        """The node id for ``(kind, name)``, creating the node if needed."""
        packed = self.names.intern(name) * 3 + kind_code
        ids = self._ids
        found = ids.get(packed)
        if found is None:
            found = len(self.kinds)
            ids[packed] = found
            self.kinds.append(kind_code)
            self.name_ids.append(packed // 3)
            self.out.append([])
            self.inn.append([])
            if kind_code == NS_CODE:
                slot = len(self.slot_hosts)
                self.ns_slots.append(slot)
                self.slot_hosts.append(name)
            else:
                self.ns_slots.append(-1)
        return found

    def find_id(self, kind_code: int, name: DomainName) -> Optional[int]:
        """The node id for ``(kind, name)``, or ``None`` if absent."""
        name_id = self.names.id_of(name)
        if name_id is None:
            return None
        return self._ids.get(name_id * 3 + kind_code)

    def add_edge_ids(self, source: int, target: int) -> bool:
        """Add ``source -> target``; returns False if it already existed."""
        row = self.out[source]
        if target in row:
            return False
        row.append(target)
        self.inn[target].append(source)
        self._edge_count += 1
        return True

    def clear_out_edges(self, source: int) -> int:
        """Remove every ``source -> *`` edge; returns how many were removed.

        The delta-survey surgery path: when a journal records that a node's
        dependency set changed, the node's forward adjacency is rebuilt from
        scratch (:meth:`set_out_edges` or a fresh discovery walk) so the row
        ends up in the exact order a cold discovery would have produced —
        successor order feeds the min-cut recursion and the chain keys, so
        it must match the cold run byte for byte.
        """
        row = self.out[source]
        if not row:
            return 0
        removed = len(row)
        inn = self.inn
        for target in row:
            inn[target].remove(source)
        self.out[source] = []
        self._edge_count -= removed
        return removed

    def set_out_edges(self, source: int, targets: List[int]) -> None:
        """Replace ``source``'s forward adjacency with ``targets`` (in order).

        Duplicate targets are collapsed to their first occurrence, matching
        what repeated :meth:`add_edge_ids` calls would build.
        """
        self.clear_out_edges(source)
        for target in targets:
            self.add_edge_ids(source, target)

    def node_name(self, node_id: int) -> DomainName:
        """The :class:`DomainName` of ``node_id``."""
        return self.names.name_of(self.name_ids[node_id])

    def key_of(self, node_id: int) -> NodeKey:
        """The ``(kind, DomainName)`` key of ``node_id``."""
        return (KIND_STRINGS[self.kinds[node_id]],
                self.names.name_of(self.name_ids[node_id]))

    def slot_count(self) -> int:
        """How many NS slots (bit positions) have been assigned."""
        return len(self.slot_hosts)

    def mask_to_hosts(self, mask: int) -> List[DomainName]:
        """Materialise a slot bitset into its hostnames (slot order)."""
        hosts = self.slot_hosts
        out: List[DomainName] = []
        slot = 0
        while mask:
            chunk = mask & 0xFFFFFFFF
            while chunk:
                low = chunk & -chunk
                out.append(hosts[slot + low.bit_length() - 1])
                chunk ^= low
            mask >>= 32
            slot += 32
        return out

    def slots_under(self, name: DomainName) -> int:
        """The bitset of every slot whose host is at or below ``name``.

        Slots are filed under each of their label suffixes, lazily: a
        call files only the slots assigned since the last one.
        """
        under = self._under
        hosts = self.slot_hosts
        for slot in range(self._under_filed, len(hosts)):
            labels = hosts[slot].labels
            bit = 1 << slot
            for start in range(len(labels) + 1):
                suffix = labels[start:]
                under[suffix] = under.get(suffix, 0) | bit
        self._under_filed = len(hosts)
        return under.get(name.labels, 0)

    # -- NodeKey duck API (networkx.DiGraph subset) ----------------------------------

    def ensure_key(self, key: NodeKey) -> int:
        """Node id for a ``(kind, DomainName)`` key, creating if needed."""
        return self.ensure_id(KIND_CODES[key[0]], key[1])

    def find_key(self, key: NodeKey) -> Optional[int]:
        """Node id for a key, or ``None`` if absent."""
        kind_code = KIND_CODES.get(key[0])
        if kind_code is None:
            return None
        return self.find_id(kind_code, key[1])

    def add_node(self, key: NodeKey) -> None:
        self.ensure_key(key)

    def add_edge(self, source: NodeKey, target: NodeKey) -> None:
        self.add_edge_ids(self.ensure_key(source), self.ensure_key(target))

    def has_edge(self, source: NodeKey, target: NodeKey) -> bool:
        source_id = self.find_key(source)
        if source_id is None:
            return False
        target_id = self.find_key(target)
        if target_id is None:
            return False
        return target_id in self.out[source_id]

    def __contains__(self, key) -> bool:
        try:
            return self.find_key(key) is not None
        except (TypeError, IndexError):
            return False

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def nodes(self) -> Iterator[NodeKey]:
        """Node keys in insertion (id) order."""
        return (self.key_of(node_id) for node_id in range(len(self.kinds)))

    @property
    def edges(self) -> Iterator[Tuple[NodeKey, NodeKey]]:
        """Edge keys, grouped by source node in insertion order."""
        return ((self.key_of(source), self.key_of(target))
                for source in range(len(self.kinds))
                for target in self.out[source])

    def successors(self, key: NodeKey) -> Iterator[NodeKey]:
        node_id = self.find_key(key)
        if node_id is None:
            raise KeyError(f"node {key!r} not in universe")
        return (self.key_of(target) for target in self.out[node_id])

    def predecessors(self, key: NodeKey) -> Iterator[NodeKey]:
        node_id = self.find_key(key)
        if node_id is None:
            raise KeyError(f"node {key!r} not in universe")
        return (self.key_of(source) for source in self.inn[node_id])

    def number_of_nodes(self) -> int:
        return len(self.kinds)

    def number_of_edges(self) -> int:
        return self._edge_count
