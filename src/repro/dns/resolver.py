"""Iterative DNS resolution over the simulated network.

:class:`IterativeResolver` implements the delegation-following algorithm of
RFC 1034: start from the root servers, follow referrals downwards, resolve
the addresses of out-of-bailiwick nameservers as needed, and return the final
authoritative answer.  Every query issued is recorded as a
:class:`ResolutionStep`, and the set of servers contacted is exposed on the
resulting :class:`ResolutionTrace` — this per-lookup record is the raw
material the survey aggregates.

Two aspects matter for the paper's analysis and are modelled explicitly:

* **Glue records** short-circuit address lookups for in-bailiwick
  nameservers.  They can be disabled (``use_glue=False``) to observe how much
  extra resolution work — and how many extra dependencies — they hide.
* **Zone-cut enumeration** (:meth:`IterativeResolver.zone_cut_chain`) walks
  the referral chain for a name and reports, for every zone on the path, the
  complete set of nameservers delegated to serve it.  The delegation-graph
  builder in :mod:`repro.core.delegation` uses this to compute the transitive
  closure of dependencies.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dns.cache import ResolverCache
from repro.dns.errors import ResolutionError, ServerFailureError
from repro.dns.message import Message, make_query
from repro.dns.name import DomainName, NameLike, ROOT_NAME
from repro.dns.rdtypes import RCode, RRType
from repro.dns.records import ResourceRecord


@dataclasses.dataclass
class ResolutionStep:
    """A single query/response exchange during resolution."""

    server: DomainName
    server_address: Optional[str]
    qname: DomainName
    rtype: RRType
    rcode: RCode
    kind: str  # "answer", "referral", "nxdomain", "nodata", "failure", "refused"
    zone: Optional[DomainName] = None

    def __str__(self) -> str:
        return (f"{self.qname}/{self.rtype.name} @ {self.server} "
                f"-> {self.kind} ({self.rcode.name})")


@dataclasses.dataclass
class ResolutionTrace:
    """The complete record of one name resolution."""

    qname: DomainName
    rtype: RRType
    rcode: RCode = RCode.SERVFAIL
    answers: List[ResourceRecord] = dataclasses.field(default_factory=list)
    steps: List[ResolutionStep] = dataclasses.field(default_factory=list)
    cname_chain: List[DomainName] = dataclasses.field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """True if resolution produced a NOERROR answer with records."""
        return self.rcode is RCode.NOERROR and bool(self.answers)

    @property
    def addresses(self) -> List[str]:
        """Address strings from the answer section."""
        return [str(r.rdata) for r in self.answers
                if r.rtype in (RRType.A, RRType.AAAA)]

    @property
    def servers_contacted(self) -> Set[DomainName]:
        """Hostnames of every server that answered (or failed) a query."""
        return {step.server for step in self.steps}

    @property
    def query_count(self) -> int:
        """Total number of queries issued."""
        return len(self.steps)

    def merge(self, other: "ResolutionTrace") -> None:
        """Fold another trace's steps into this one (for nested lookups)."""
        self.steps.extend(other.steps)


@dataclasses.dataclass
class ZoneCut:
    """One zone on the delegation path of a name.

    ``parent_nameservers`` is the NS set advertised by the parent (the
    delegation), ``apex_nameservers`` the NS set the zone publishes at its
    own apex.  The two can differ in real deployments; the delegation graph
    takes their union because either set can steer resolution.
    """

    zone: DomainName
    parent_nameservers: List[DomainName] = dataclasses.field(default_factory=list)
    apex_nameservers: List[DomainName] = dataclasses.field(default_factory=list)

    @property
    def nameservers(self) -> List[DomainName]:
        """Union of parent-side and apex NS sets, preserving order.

        Cuts are immutable once the chain walk has filled both NS lists, so
        the merged union is memoized (keyed on the list lengths, which is how
        the walk extends a cut).  Callers must not mutate the returned list.
        """
        token = (len(self.parent_nameservers), len(self.apex_nameservers))
        cached = getattr(self, "_merged_nameservers", None)
        if cached is not None and cached[0] == token:
            return cached[1]
        seen: Set[DomainName] = set()
        merged: List[DomainName] = []
        for ns in list(self.parent_nameservers) + list(self.apex_nameservers):
            if ns not in seen:
                seen.add(ns)
                merged.append(ns)
        self._merged_nameservers = (token, merged)
        return merged


class IterativeResolver:
    """An iterative resolver bound to a :class:`SimulatedNetwork`.

    Parameters
    ----------
    network:
        Transport used to reach authoritative servers.
    root_hints:
        Mapping from root-server hostname to its addresses (the hints file).
    cache:
        Optional shared cache.  ``None`` creates a private cache.
    use_glue:
        Whether glue addresses in referrals may be used directly.
    selection:
        Nameserver selection strategy: ``"first"`` (deterministic, follows
        the preferential order in the delegation) or ``"random"``.
    max_queries:
        Work budget per top-level :meth:`resolve` call; exceeding it raises
        :class:`ResolutionError` (guards against delegation loops).
    rng:
        Random generator used when ``selection="random"``.
    """

    def __init__(self, network, root_hints: Dict[NameLike, Sequence[str]],
                 cache: Optional[ResolverCache] = None, use_glue: bool = True,
                 selection: str = "first", max_queries: int = 400,
                 max_depth: int = 16, rng: Optional[random.Random] = None):
        if selection not in ("first", "random"):
            raise ValueError(f"unknown selection strategy: {selection!r}")
        self.network = network
        self.root_hints: Dict[DomainName, List[str]] = {
            DomainName(name): list(addresses)
            for name, addresses in root_hints.items()}
        if not self.root_hints:
            raise ResolutionError("resolver needs at least one root hint")
        self.cache = cache if cache is not None else ResolverCache()
        self.use_glue = use_glue
        self.selection = selection
        self.max_queries = max_queries
        self.max_depth = max_depth
        self._rng = rng or random.Random(0)
        # Apex NS answers are a property of the zone (the simulated network
        # is deterministic), so the zone-cut walk shares them across names:
        # every chain through "com" would otherwise re-issue the same NS
        # query.  Keyed on the target list as well so a walk arriving with
        # different candidate servers cannot be served a stale answer.
        self._apex_ns_cache: Dict[Tuple[DomainName, Tuple[NameLike, ...]],
                                  List[DomainName]] = {}
        # Zone-cut chain prefixes: for every referral cut discovered by a
        # live walk, the chain from the top down to that cut plus the exact
        # candidate servers the walk would query next.  Later walks for
        # names under the same zone replay the prefix instead of re-walking
        # root -> TLD -> ... (only with deterministic "first" selection).
        # Keyed on the cut's labels, so a walk probes its name's suffixes
        # without building a DomainName per ancestor.
        self._chain_prefix_cache: Dict[
            Tuple[str, ...],
            Tuple[List[ZoneCut],
                  List[Tuple[DomainName, Optional[str]]]]] = {}

    # -- public API -------------------------------------------------------------

    def clone(self, cache: Optional[ResolverCache] = None,
              share_cache: bool = False) -> "IterativeResolver":
        """A new resolver with the same configuration.

        By default the clone receives an independent snapshot of this
        resolver's cache (warm, but safe to use from another survey shard);
        pass ``share_cache=True`` to share the live cache object instead, or
        supply an explicit ``cache``.  The RNG state is copied so a cloned
        ``selection="random"`` resolver replays the same choices.
        """
        if cache is None:
            cache = self.cache if share_cache else self.cache.clone()
        rng = random.Random()
        rng.setstate(self._rng.getstate())
        return IterativeResolver(
            self.network,
            {name: list(addresses)
             for name, addresses in self.root_hints.items()},
            cache=cache, use_glue=self.use_glue, selection=self.selection,
            max_queries=self.max_queries, max_depth=self.max_depth, rng=rng)

    def invalidate_zones(self, apexes: Sequence[NameLike]) -> None:
        """Drop cached walk state that a change to the given zones stales.

        The delta-survey path: when a zone's NS set changes (or a new zone
        is cut below an existing one), every memoized chain prefix *on the
        edited apex's ancestor/descendant line* is dropped.  Descendant
        prefixes embed the old referral chain outright; ancestor prefixes
        must go too because a walk towards the edited zone resumes from
        them, and the zone's *new* servers may short-circuit that walk
        earlier than the cached candidates would (a server authoritative
        for both an ancestor-path zone and the edited zone answers
        directly instead of referring) — a cold walk from the root is the
        only state that reproduces the new termination behaviour.  Apex-NS
        memo entries for the apexes themselves are dropped likewise.  Walk
        state for unrelated subtrees (sibling branches, other TLDs) is
        kept: that carried warmth is what makes an incremental re-survey
        cheap, and each dropped ancestor prefix is rebuilt by one live
        walk.
        """
        apexes = [DomainName(apex) for apex in apexes]
        if not apexes:
            return
        # A prefix is on an edited apex's line when its zone is the apex,
        # an ancestor of it, or below it: set probes on label suffixes.
        edited = {apex.labels for apex in apexes}
        at_or_above = {labels[start:] for labels in edited
                       for start in range(len(labels) + 1)}
        self._chain_prefix_cache = {
            labels: entry
            for labels, entry in self._chain_prefix_cache.items()
            if labels not in at_or_above and
            not any(labels[start:] in edited
                    for start in range(1, len(labels) + 1))}
        dropped = set(apexes)
        self._apex_ns_cache = {
            key: value for key, value in self._apex_ns_cache.items()
            if key[0] not in dropped}
        self.cache.purge(subtrees=apexes)

    def resolve(self, name: NameLike, rtype: RRType = RRType.A) -> ResolutionTrace:
        """Resolve ``name`` iteratively and return the full trace."""
        qname = DomainName(name)
        trace = ResolutionTrace(qname=qname, rtype=rtype)
        budget = _Budget(self.max_queries)
        try:
            self._resolve_into(qname, rtype, trace, budget, depth=0,
                               in_progress=set())
        except ResolutionError:
            trace.rcode = RCode.SERVFAIL
        return trace

    def resolve_address(self, hostname: NameLike) -> ResolutionTrace:
        """Resolve the A record of a nameserver hostname."""
        return self.resolve(hostname, RRType.A)

    def zone_cut_chain(self, name: NameLike,
                       include_apex_ns: bool = True) -> List[ZoneCut]:
        """Enumerate the zones (and their NS sets) on the path to ``name``.

        The chain starts below the root (the root zone itself is excluded,
        matching the paper's decision to leave root servers out of TCBs) and
        ends at the deepest zone cut above or at ``name``.
        """
        qname = name if isinstance(name, DomainName) else DomainName(name)
        budget = _Budget(self.max_queries)
        cuts: List[ZoneCut] = []

        # The walk down to a shared ancestor zone (root -> com -> sld...) is
        # identical for every name below it, so replay the deepest cached
        # prefix and continue live from there.  Prefixes record the exact
        # candidate-server state of the live walk at that point, which keeps
        # the replayed walk byte-identical; caching is only sound for the
        # deterministic "first" selection and the apex-inclusive mode the
        # delegation builder uses.
        use_prefix_cache = include_apex_ns and self.selection == "first"
        current_servers: Optional[List[Tuple[DomainName, Optional[str]]]] = None
        visited_zones: Set[DomainName] = {ROOT_NAME}
        if use_prefix_cache:
            labels = qname.labels
            for start in range(len(labels) + 1):  # deepest suffix first
                prefix = self._chain_prefix_cache.get(labels[start:])
                if prefix is not None:
                    cuts = list(prefix[0])
                    current_servers = list(prefix[1])
                    visited_zones |= {cut.zone for cut in cuts}
                    break
        if current_servers is None:
            current_servers = self._root_server_candidates()

        for _ in range(self.max_depth):
            result = self._query_candidates(
                current_servers, qname, RRType.A, None, budget)
            if result is None:
                break
            response, _server = result
            if response.is_referral:
                child = self._referral_child_zone(response)
                if child is None or child in visited_zones:
                    break
                visited_zones.add(child)
                cut = ZoneCut(zone=child,
                              parent_nameservers=response.referral_nameservers())
                if include_apex_ns:
                    cut.apex_nameservers = self._lookup_apex_ns(
                        child, response, budget)
                cuts.append(cut)
                current_servers = self._candidates_from_referral(
                    response, None, budget, resolve_addresses=False)
                if use_prefix_cache and \
                        child.labels not in self._chain_prefix_cache:
                    self._chain_prefix_cache[child.labels] = (
                        list(cuts), list(current_servers))
                continue
            # Authoritative answer, NXDOMAIN, or NODATA: chain is complete.
            break

        # Zone cuts deeper than the last referral can be invisible to the
        # walk when the same server is authoritative for both the parent and
        # the child (it answers directly instead of referring).  Probe every
        # ancestor of the queried name below the last seen cut with an NS
        # query so such hidden cuts (e.g. cs.cornell.edu served by the
        # cornell.edu servers) still contribute their nameserver sets.
        if include_apex_ns and cuts and \
                qname.is_subdomain_of(cuts[-1].zone, proper=True):
            labels = qname.labels
            targets = cuts[-1].nameservers
            for depth in range(cuts[-1].zone.depth + 1, len(labels) + 1):
                ancestor = DomainName._from_labels(labels[-depth:])
                apex_ns = self._lookup_apex_ns_from_servers(
                    ancestor, targets, budget)
                if apex_ns:
                    cuts.append(ZoneCut(zone=ancestor, parent_nameservers=[],
                                        apex_nameservers=apex_ns))
                    targets = apex_ns
        return cuts

    # -- internals: full resolution -----------------------------------------------

    def _resolve_into(self, qname: DomainName, rtype: RRType,
                      trace: ResolutionTrace, budget: "_Budget", depth: int,
                      in_progress: Set[Tuple[DomainName, RRType]]) -> None:
        """Resolve ``qname`` and populate ``trace`` (answers + rcode)."""
        if depth > self.max_depth:
            raise ResolutionError(f"max depth exceeded resolving {qname}")
        key = (qname, rtype)
        if key in in_progress:
            raise ResolutionError(f"resolution cycle detected at {qname}")
        in_progress = in_progress | {key}

        cached = self.cache.get(qname, rtype, now=self.network.now)
        if cached is not None:
            trace.answers = list(cached.records)
            trace.rcode = cached.rcode
            return

        current_servers = self._root_server_candidates()
        for _ in range(self.max_depth):
            result = self._query_candidates(current_servers, qname, rtype,
                                            trace, budget)
            if result is None:
                trace.rcode = RCode.SERVFAIL
                return
            response, _server = result

            if response.is_referral:
                current_servers = self._candidates_from_referral(
                    response, trace, budget, depth=depth,
                    in_progress=in_progress)
                if not current_servers:
                    trace.rcode = RCode.SERVFAIL
                    return
                continue

            if response.rcode is RCode.NXDOMAIN:
                trace.rcode = RCode.NXDOMAIN
                self.cache.put(qname, rtype, [], rcode=RCode.NXDOMAIN,
                               now=self.network.now)
                return

            answers = list(response.answers)
            # Follow a terminal CNAME that points outside the answering zone.
            cname_target = self._pending_cname_target(answers, qname, rtype)
            trace.answers.extend(answers)
            if cname_target is not None:
                trace.cname_chain.append(cname_target)
                sub = ResolutionTrace(qname=cname_target, rtype=rtype)
                self._resolve_into(cname_target, rtype, sub, budget,
                                   depth + 1, in_progress)
                trace.merge(sub)
                trace.answers.extend(sub.answers)
                trace.rcode = sub.rcode
            else:
                trace.rcode = response.rcode
            if trace.rcode is RCode.NOERROR:
                self.cache.put(qname, rtype, trace.answers,
                               now=self.network.now)
            return
        raise ResolutionError(f"too many referrals resolving {qname}")

    def _pending_cname_target(self, answers: List[ResourceRecord],
                              qname: DomainName,
                              rtype: RRType) -> Optional[DomainName]:
        """If the answer is a bare CNAME chain, return the unresolved target."""
        if rtype is RRType.CNAME:
            return None
        has_final = any(r.rtype is rtype for r in answers)
        if has_final:
            return None
        cnames = [r for r in answers if r.rtype is RRType.CNAME]
        if not cnames:
            return None
        target = cnames[-1].rdata
        return target if isinstance(target, DomainName) else None

    # -- internals: candidate servers ----------------------------------------------

    def _root_server_candidates(self) -> List[Tuple[DomainName, Optional[str]]]:
        """(hostname, address) pairs for the configured root servers."""
        candidates = []
        for hostname, addresses in self.root_hints.items():
            candidates.append((hostname, addresses[0] if addresses else None))
        return self._order(candidates)

    def _order(self, candidates: List[Tuple[DomainName, Optional[str]]]
               ) -> List[Tuple[DomainName, Optional[str]]]:
        if self.selection == "random":
            candidates = list(candidates)
            self._rng.shuffle(candidates)
        return candidates

    def _candidates_from_referral(self, response: Message,
                                  trace: Optional[ResolutionTrace],
                                  budget: "_Budget",
                                  depth: int = 0,
                                  in_progress: Optional[Set] = None,
                                  resolve_addresses: bool = True
                                  ) -> List[Tuple[DomainName, Optional[str]]]:
        """Turn a referral into a list of contactable (hostname, address) pairs.

        Glue addresses are used when allowed; otherwise the nameserver
        hostnames are resolved recursively (those lookups are merged into the
        trace, because they are part of the dependency structure).  With
        ``resolve_addresses=False`` missing glue is left as ``None`` and the
        transport falls back to hostname routing — used by the zone-cut walk,
        which only needs the delegation structure, not the address chase
        and so passes no ``trace``.
        """
        in_progress = in_progress or set()
        candidates: List[Tuple[DomainName, Optional[str]]] = []
        for nameserver in response.referral_nameservers():
            address: Optional[str] = None
            if self.use_glue:
                glue = response.glue_addresses(nameserver)
                if glue:
                    address = glue[0]
            if address is None and resolve_addresses:
                address = self._resolve_nameserver_address(
                    nameserver, trace, budget, depth, in_progress)
            candidates.append((nameserver, address))
        return self._order(candidates)

    def _resolve_nameserver_address(self, nameserver: DomainName,
                                    trace: ResolutionTrace, budget: "_Budget",
                                    depth: int,
                                    in_progress: Set) -> Optional[str]:
        """Resolve a nameserver's address via a nested iterative lookup."""
        if (nameserver, RRType.A) in in_progress:
            return None
        cached = self.cache.get(nameserver, RRType.A, now=self.network.now)
        if cached is not None and not cached.is_negative:
            addresses = [str(r.rdata) for r in cached.records
                         if r.rtype is RRType.A]
            if addresses:
                return addresses[0]
        sub = ResolutionTrace(qname=nameserver, rtype=RRType.A)
        try:
            self._resolve_into(nameserver, RRType.A, sub, budget,
                               depth + 1, in_progress)
        except ResolutionError:
            trace.merge(sub)
            return None
        trace.merge(sub)
        addresses = sub.addresses
        return addresses[0] if addresses else None

    def _query_candidates(self, candidates: List[Tuple[DomainName, Optional[str]]],
                          qname: DomainName, rtype: RRType,
                          trace: Optional[ResolutionTrace], budget: "_Budget"
                          ) -> Optional[Tuple[Message, DomainName]]:
        """Query candidate servers in order until one gives a usable response.

        Each exchange is logged as a :class:`ResolutionStep` in ``trace``;
        the zone-cut walk, which keeps no trace, passes ``None``.  A
        candidate without an address is reached by its parsed hostname.
        """
        for hostname, address in candidates:
            budget.spend(qname)
            query = make_query(qname, rtype)
            try:
                response = self.network.send_query(
                    hostname if address is None else address, query)
            except ServerFailureError:
                if trace is not None:
                    trace.steps.append(ResolutionStep(
                        server=hostname, server_address=address, qname=qname,
                        rtype=rtype, rcode=RCode.SERVFAIL, kind="failure"))
                continue
            if trace is not None:
                trace.steps.append(ResolutionStep(
                    server=hostname, server_address=address, qname=qname,
                    rtype=rtype, rcode=response.rcode,
                    kind=self._classify(response),
                    zone=self._referral_child_zone(response)))
            if response.rcode is RCode.REFUSED:
                continue
            return response, hostname
        return None

    @staticmethod
    def _classify(response: Message) -> str:
        if response.rcode is RCode.REFUSED:
            return "refused"
        if response.is_referral:
            return "referral"
        if response.rcode is RCode.NXDOMAIN:
            return "nxdomain"
        if response.answers:
            return "answer"
        return "nodata"

    @staticmethod
    def _referral_child_zone(response: Message) -> Optional[DomainName]:
        """The child zone apex named by a referral's authority section."""
        for record in response.authority:
            if record.rtype is RRType.NS:
                return record.name
        return None

    # -- internals: apex NS lookups --------------------------------------------------

    def _lookup_apex_ns(self, zone: DomainName, referral: Message,
                        budget: "_Budget") -> List[DomainName]:
        """Query the zone's own servers for its apex NS set."""
        targets: List[NameLike] = []
        for nameserver in referral.referral_nameservers():
            glue = referral.glue_addresses(nameserver)
            targets.append(glue[0] if glue else nameserver)
        return self._lookup_apex_ns_from_servers(zone, targets, budget)

    def _lookup_apex_ns_from_servers(self, zone: DomainName,
                                     targets: List[NameLike],
                                     budget: "_Budget") -> List[DomainName]:
        # Targets mix address text and parsed hostnames; a DomainName
        # hashes and compares like its text, so the memo key is the same
        # either way.
        key = (zone, tuple(targets))
        cached = self._apex_ns_cache.get(key)
        if cached is not None:
            return list(cached)
        nameservers = self._lookup_apex_ns_uncached(zone, targets, budget)
        self._apex_ns_cache[key] = list(nameservers)
        return nameservers

    def _lookup_apex_ns_uncached(self, zone: DomainName,
                                 targets: List[NameLike], budget: "_Budget"
                                 ) -> List[DomainName]:
        for target in targets:
            budget.spend(zone)
            query = make_query(zone, RRType.NS)
            try:
                response = self.network.send_query(target, query)
            except ServerFailureError:
                continue
            nameservers = [r.rdata for r in response.answers
                           if r.rtype is RRType.NS and
                           isinstance(r.rdata, DomainName)]
            if nameservers:
                return nameservers
        return []


class _Budget:
    """Per-resolution query budget guarding against runaway recursion."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, qname: DomainName) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise ResolutionError(
                f"query budget ({self.limit}) exhausted while resolving {qname}")
