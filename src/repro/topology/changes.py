"""A change journal for synthetic Internets: who changed what, when.

The paper's central observation is that a name's effective TCB *churns* as
zones change hands: a registry recruits a new off-site secondary, a
university decommissions a box, an operator upgrades (or fails to upgrade)
BIND.  The interesting workload is therefore *repeated* surveys of a slowly
mutating namespace — and re-surveying everything after every edit wastes
almost all of the work.

:class:`ChangeJournal` is the mutation boundary that makes incremental
re-survey possible: every supported world edit goes through a journal
method, which

1. applies the change consistently across the layers that encode it (zone
   apex NS RRSets, the parent zone's delegation + glue, the authoritative
   servers' zone attachments, the organisation registry, the network), and
2. records a :class:`ChangeEvent` capturing the before/after footprint.

:meth:`ChangeJournal.changes` folds the event log into a :class:`ChangeSet`
— the compact summary the survey engine's delta path consumes: which zones
were re-delegated (with their new canonical NS order), which zones were
newly cut, and which hosts were touched.  The engine maps that footprint
back to dirty directory names through the previous run's TCBs (every name
that depends on a zone holds that zone's nameservers in its TCB, because
the TCB is the transitive closure), re-surveys only those, and patches the
rest straight from the previous snapshot.

Supported mutations: zone NS-set edits (replace / add / remove one server),
cutting a brand-new zone out of an existing one, server addition and
decommissioning, software (banner) changes, region moves, and extending a
DNSSEC deployment.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.dns.errors import DNSError
from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
# The one non-dns import: core.delegation is import-cycle-free from here
# (it pulls in only dns.* and core.graphcore), and sharing the constant
# keeps the journal's TCB-footprint reasoning aligned with the builder's
# exclusion list instead of drifting behind a hand-maintained copy.
from repro.core.delegation import DEFAULT_EXCLUDED_SUFFIXES

#: Hostname suffixes whose servers never enter TCBs.  Journals attached to
#: engines whose builders use a *custom* exclusion list must be given the
#: same list, or the dirty-all safety guard for footprint-free zone edits
#: cannot see which old nameservers left no TCB trace.
EXCLUDED_SUFFIXES: Tuple[str, ...] = DEFAULT_EXCLUDED_SUFFIXES


@dataclasses.dataclass
class ChangeEvent:
    """One journalled world mutation.

    ``touched_hosts`` is the event's TCB footprint: the hosts whose
    presence in a previous survey's TCB marks that name as needing
    re-survey.  For zone events it is the union of the zone's pre- and
    post-mutation nameserver sets — any name depending on the zone holds
    the *old* set in its TCB, which is what makes the mapping sound.
    """

    kind: str  # "zone-ns", "zone-created", "server-add", "server-remove",
               # "software", "region", "dnssec"
    zone: Optional[DomainName] = None
    hosts_before: Tuple[DomainName, ...] = ()
    hosts_after: Tuple[DomainName, ...] = ()
    touched_hosts: FrozenSet[DomainName] = frozenset()
    created_zone: bool = False
    details: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        subject = self.zone if self.zone is not None else \
            ",".join(str(h) for h in sorted(self.touched_hosts))
        return f"{self.kind}({subject})"

    def to_spec(self) -> str:
        """This event as a replayable CLI mutation spec.

        The distributed coordinator ships world mutations to its workers
        as spec strings; replaying a journal's events in order through
        :func:`apply_mutation_spec` on an identically-generated world
        reproduces the same world state *and* the same event sequence
        (a replayed ``remove-server`` finds its zones already
        re-delegated by the preceding ``set-ns`` events and journals only
        itself, exactly mirroring the original event log).
        """
        def safe(value: str) -> str:
            if ";" in value or value != value.strip():
                raise ValueError(
                    f"cannot encode {value!r} in a mutation spec")
            return value

        details = self.details
        if self.kind in ("zone-ns", "zone-created"):
            hosts = "+".join(safe(h) for h in details["nameservers"])
            return f"set-ns:zone={self.zone};ns={hosts}"
        if self.kind == "server-add":
            parts = [f"add-server:host={self.hosts_after[0]}"]
            if details.get("software") is not None:
                parts.append(f"software={safe(details['software'])}")
            region = details.get("region")
            if region is not None and region != "us":
                parts.append(f"region={safe(region)}")
            if details.get("organization") is not None:
                parts.append(f"org={safe(details['organization'])}")
            return ";".join(parts)
        if self.kind == "server-remove":
            return f"remove-server:host={self.hosts_before[0]}"
        if self.kind == "software":
            host = details.get("host") or \
                next(iter(sorted(self.touched_hosts)))
            spec = f"set-software:host={host}"
            after = details.get("after")
            return spec if after is None else \
                f"{spec};software={safe(after)}"
        if self.kind == "region":
            host = details.get("host") or \
                next(iter(sorted(self.touched_hosts)))
            return f"move-region:host={host};region={safe(details['after'])}"
        if self.kind == "dnssec":
            sign_tlds = "true" if details.get("sign_tlds", True) else "false"
            seed = safe(str(details.get("seed", "repro-dnssec")))
            return (f"dnssec:fraction={details['fraction']!r}"
                    f";sign_tlds={sign_tlds};seed={seed}")
        raise ValueError(f"event kind {self.kind!r} has no spec encoding")


@dataclasses.dataclass
class ChangeSet:
    """The folded footprint of a journal, consumed by the delta engine."""

    #: Re-delegated zones -> their final canonical NS order (the order a
    #: cold discovery's ``ZoneCut.nameservers`` would report: the parent
    #: delegation and apex sets are kept identical by the journal).
    edited_zones: Dict[DomainName, List[DomainName]]
    #: Zones newly cut out of an existing zone (names below them gained a
    #: delegation level).
    created_zones: Tuple[DomainName, ...]
    #: Zones whose *chain-local* state changed (newly DNSSEC-signed): only
    #: names below them are affected — chain-of-trust validation walks a
    #: name's own ancestor chain, never the transitive dependency web — so
    #: they dirty by ancestry instead of by TCB footprint.
    chain_zones: Tuple[DomainName, ...]
    #: Every host whose role or record set changed (see ChangeEvent).
    touched_hosts: FrozenSet[DomainName]
    #: Hosts whose ``version.bind`` banner changed: cached fingerprints and
    #: vulnerability verdicts for them are stale.
    refingerprint_hosts: FrozenSet[DomainName]
    #: Hostnames that did not exist before (negative resolver-cache entries
    #: for them are stale).
    added_names: FrozenSet[DomainName]
    #: DNSSEC deployments applied through the journal, in order.
    dnssec_deployments: Tuple[object, ...]
    #: True when an event's footprint cannot be mapped through previous
    #: TCBs (e.g. a re-delegated zone whose old NS set had no non-excluded
    #: member) — every name must then be treated as dirty.
    dirty_all: bool
    #: Per re-delegated zone, the NS set it held when the previous survey
    #: ran (the first in-window edit's before-set; created zones have no
    #: entry — ancestry covers them).  A name depends on the zone iff its
    #: previous TCB holds *every* non-excluded member, so the delta engine
    #: dirties by dependant-set intersection instead of unioning every
    #: name that merely shares one (possibly heavily co-hosted) server.
    zone_footprints: Dict[DomainName, Tuple[DomainName, ...]] = \
        dataclasses.field(default_factory=dict)
    #: Hosts whose dependants are individually dirty (software, region,
    #: and server-lifecycle events).  ``None`` means "not computed" — a
    #: hand-built ChangeSet — and makes the delta engine fall back to
    #: unioning over :attr:`touched_hosts`.
    host_footprints: Optional[FrozenSet[DomainName]] = None

    @property
    def empty(self) -> bool:
        """True if the journal recorded no effective change."""
        return not (self.edited_zones or self.created_zones or
                    self.chain_zones or self.touched_hosts or
                    self.refingerprint_hosts or self.added_names or
                    self.dnssec_deployments or self.dirty_all)

    @property
    def analyses_stale(self) -> bool:
        """True when cached vulnerability / signature verdicts are stale."""
        return bool(self.refingerprint_hosts or self.dnssec_deployments)


def zone_nameserver_union(internet, apex: NameLike) -> List[DomainName]:
    """A zone's effective NS union in discovery order.

    Mirrors :attr:`repro.dns.resolver.ZoneCut.nameservers`: the parent
    delegation's preferential order first, then apex-only extras.  Shared
    by the journal (re-delegation bookkeeping) and the churn model
    (server-death eligibility), so "which zones does this host serve"
    can never diverge between the two.
    """
    if not isinstance(apex, DomainName):
        apex = DomainName(apex)
    zones = internet.zones
    zone = zones.get(apex)
    delegation = None
    labels = apex.labels
    for start in range(1, len(labels) + 1):  # the parent up to the root
        parent = zones.get(DomainName._from_labels(labels[start:]))
        if parent is not None:
            delegation = parent.get_delegation(apex)
            break
    merged: List[DomainName] = []
    seen: Set[DomainName] = set()
    sources = []
    if delegation is not None:
        sources.append(delegation.nameservers)
    if zone is not None:
        sources.append(zone.apex_nameservers())
    for source in sources:
        for hostname in source:
            if hostname not in seen:
                seen.add(hostname)
                merged.append(hostname)
    return merged


class ServedChanges:
    """What a :class:`ServedIndex` saw change since its holder last looked.

    ``apexes`` are zones whose NS union changed (or that were created),
    plus the home zones of organisations whose nameserver list changed;
    ``hosts`` are hosts whose served zones changed, plus servers brought
    online.  The holder reads and clears both.
    """

    __slots__ = ("apexes", "hosts", "__weakref__")

    def __init__(self) -> None:
        self.apexes: Set[DomainName] = set()
        self.hosts: Set[DomainName] = set()


class ServedIndex:
    """host -> zones whose effective NS union lists it, kept current.

    Built once from every zone's :func:`zone_nameserver_union`; attached
    to a world (:meth:`attach`), it is then kept current by every
    :class:`ChangeJournal` over that world, which re-derives the union of
    each zone it edits or creates — so a churn epoch costs its own edits,
    not a scan of every zone.  Worlds must then change only through
    journals, which is the mutation contract anyway.  Each
    :meth:`watch` handle collects what changed, so a reader of the
    index can keep its own derived state current the same way.
    """

    def __init__(self, internet):
        # No reference back to the world: the world holds the index, and
        # a cycle would keep a dropped world alive until a full collection.
        self._unions: Dict[DomainName, Tuple[DomainName, ...]] = {}
        self._served: Dict[DomainName, Set[DomainName]] = {}
        #: Each apex's place in ``internet.zones`` (new zones append).
        self._position: Dict[DomainName, int] = {}
        # Held weakly: a handle lives exactly as long as its holder.
        self._watchers: "weakref.WeakSet[ServedChanges]" = weakref.WeakSet()
        for apex in internet.zones:
            self.refresh(apex, zone_nameserver_union(internet, apex))

    @classmethod
    def attach(cls, internet) -> "ServedIndex":
        """The index journals keep current for ``internet``, built once."""
        index = getattr(internet, "served_index", None)
        if index is None:
            index = internet.served_index = cls(internet)
        return index

    @classmethod
    def of(cls, internet) -> "ServedIndex":
        """The attached index, or a throwaway one for an unindexed world."""
        index = getattr(internet, "served_index", None)
        return index if index is not None else cls(internet)

    def refresh(self, apex: DomainName,
                union: Sequence[DomainName]) -> None:
        """Record one zone's NS union (after an edit or a new cut)."""
        position = self._position
        if apex not in position:
            position[apex] = len(position)
        old = self._unions.get(apex, ())
        new = tuple(union)
        self._unions[apex] = new
        if self._watchers:
            self.note(apexes=(apex,), hosts=set(old).symmetric_difference(new))
        served = self._served
        for hostname in old:
            if hostname not in new:
                zones = served[hostname]
                zones.discard(apex)
                if not zones:
                    del served[hostname]
        for hostname in new:
            served.setdefault(hostname, set()).add(apex)

    def watch(self) -> ServedChanges:
        """A new handle that collects every change from now on."""
        changes = ServedChanges()
        self._watchers.add(changes)
        return changes

    def note(self, apexes: Iterable[DomainName] = (),
             hosts: Iterable[DomainName] = ()) -> None:
        """Tell every watcher that ``apexes`` and ``hosts`` changed."""
        apexes, hosts = tuple(apexes), tuple(hosts)
        for changes in self._watchers:
            changes.apexes.update(apexes)
            changes.hosts.update(hosts)

    def union(self, apex: DomainName) -> Tuple[DomainName, ...]:
        """The zone's NS union in discovery order."""
        return self._unions.get(apex, ())

    def zones_of(self, hostname: DomainName) -> AbstractSet[DomainName]:
        """The zones whose union lists ``hostname`` (unordered)."""
        return self._served.get(hostname, frozenset())

    def serving(self, hostname: DomainName) -> List[DomainName]:
        """The zones whose union lists ``hostname``, in world zone order."""
        return sorted(self.zones_of(hostname), key=self._position.__getitem__)


class ChangeJournal:
    """Applies and records mutations to a :class:`SyntheticInternet`.

    All mutations are applied synchronously and keep the world internally
    consistent, so a cold survey of the mutated Internet is always
    well-defined — the delta engine's byte-identity contract is stated
    against exactly that cold run.
    """

    def __init__(self, internet,
                 excluded_suffixes: Sequence[str] = EXCLUDED_SUFFIXES):
        self.internet = internet
        self.events: List[ChangeEvent] = []
        self._excluded = tuple(DomainName(s) for s in excluded_suffixes)
        self._address_counter = 0

    def __len__(self) -> int:
        return len(self.events)

    # -- zone NS-set edits -----------------------------------------------------------

    def set_zone_nameservers(self, apex: NameLike,
                             nameservers: Sequence[NameLike]) -> ChangeEvent:
        """Re-delegate a zone: replace its NS set (parent + apex) wholesale.

        The given order becomes the zone's canonical nameserver order
        everywhere it is encoded — apex NS RRSet, parent delegation, glue —
        so a discovery walk's ``ZoneCut.nameservers`` reports exactly this
        list.  If the zone does not exist yet it is cut out of its
        enclosing zone: records and deeper delegations below the new apex
        move into it (see :meth:`Zone.extract_subtree`).
        """
        apex = DomainName(apex)
        if apex.is_root:
            raise ValueError("cannot re-delegate the root zone")
        internet = self.internet
        zone = internet.zones.get(apex)
        created = zone is None
        before = () if created else tuple(self._zone_ns_union(apex))
        ns_list = self._dedup(nameservers)
        if not ns_list:
            raise ValueError(f"zone {apex} needs at least one nameserver")

        if created:
            zone = Zone(apex)
            internet.zones[apex] = zone
            enclosing = self._enclosing_zone(apex)
            if enclosing is not None:
                rrsets, delegations = enclosing.extract_subtree(apex)
                for rrset in rrsets:
                    for record in rrset:
                        zone.add_record(record)
                for delegation in delegations:
                    zone.delegate(delegation.child, delegation.nameservers,
                                  glue={str(host): list(addresses)
                                        for host, addresses
                                        in delegation.glue.items()})

        zone.replace_apex_nameservers(ns_list)
        self._rewire_delegation(apex, ns_list)
        self._reattach_servers(zone, before, ns_list)
        served = getattr(internet, "served_index", None)
        if served is not None:
            served.refresh(apex, self._zone_ns_union(apex))
        if created:
            # Imported lazily, as in deploy_dnssec below.
            from repro.core.dnssec_impact import sign_cut_zone
            sign_cut_zone(internet, apex)

        event = ChangeEvent(
            kind="zone-created" if created else "zone-ns", zone=apex,
            hosts_before=before, hosts_after=tuple(ns_list),
            touched_hosts=frozenset(before) | frozenset(ns_list),
            created_zone=created,
            details={"nameservers": [str(h) for h in ns_list]})
        self.events.append(event)
        return event

    def add_zone_nameserver(self, apex: NameLike,
                            hostname: NameLike) -> ChangeEvent:
        """Append one nameserver to a zone's NS set (a new secondary)."""
        apex = DomainName(apex)
        hostname = DomainName(hostname)
        current = self._zone_ns_union(apex)
        if hostname not in current:
            current.append(hostname)
        return self.set_zone_nameservers(apex, current)

    def remove_zone_nameserver(self, apex: NameLike,
                               hostname: NameLike) -> ChangeEvent:
        """Drop one nameserver from a zone's NS set."""
        apex = DomainName(apex)
        hostname = DomainName(hostname)
        current = self._zone_ns_union(apex)
        if hostname not in current:
            raise ValueError(f"{hostname} does not serve {apex}")
        return self.set_zone_nameservers(
            apex, [host for host in current if host != hostname])

    # -- server lifecycle -------------------------------------------------------------

    def add_server(self, hostname: NameLike, software: Optional[str] = None,
                   region: str = "us",
                   organization: Optional[str] = None) -> ChangeEvent:
        """Bring a brand-new nameserver online (addressed and registered).

        The server is created with a deterministic address, registered on
        the network, given an A record in the deepest existing zone that
        covers its hostname, and attached to ``organization`` (by name; an
        existing organisation is reused, otherwise only the operator label
        is set).  It serves nothing until a zone edit references it.
        """
        hostname = DomainName(hostname)
        internet = self.internet
        if internet.servers.get(hostname) is not None:
            raise ValueError(f"server {hostname} already exists")
        address = self._allocate_address()
        operator = organization or "journal"
        server = AuthoritativeServer(hostname, addresses=[address],
                                     software=software, operator=operator,
                                     region=region)
        internet.servers[hostname] = server
        internet.network.register_server(server)
        organizations = getattr(internet, "organizations", None)
        home_zones: List[DomainName] = []
        if organizations is not None and organization is not None:
            existing = organizations.by_name(organization)
            if existing is not None:
                existing.add_nameserver(hostname)
                organizations.index_nameserver(hostname, existing)
                server.region = existing.region if region == "us" else region
                home_zones.append(existing.domain)
        served = getattr(internet, "served_index", None)
        if served is not None:
            served.note(apexes=home_zones, hosts=(hostname,))
        home = self._enclosing_zone(hostname)
        if home is not None:
            home.add(hostname, RRType.A, address)
        # The hostname is the event's own footprint: normally no previous
        # TCB contains a brand-new server, but a zone that listed this
        # hostname as a ghost NS (lame delegation) put it into TCBs, and
        # every such name's fingerprint verdict changes when the server
        # comes online.
        event = ChangeEvent(kind="server-add", hosts_after=(hostname,),
                            touched_hosts=frozenset((hostname,)),
                            details={"address": address,
                                     "software": software,
                                     "region": region,
                                     "organization": organization})
        self.events.append(event)
        return event

    def remove_server(self, hostname: NameLike) -> ChangeEvent:
        """Decommission a server: every zone listing it is re-delegated.

        The server object stays registered (decommissioning does not
        un-route its address), but after this no delegation or apex NS set
        references it, so no resolution path reaches it.
        """
        hostname = DomainName(hostname)
        internet = self.internet
        if internet.servers.get(hostname) is None:
            raise ValueError(f"unknown server {hostname}")
        serving = ServedIndex.of(internet).serving(hostname)
        # Validate before mutating anything: a rejected decommission must
        # not leave the world half re-delegated.
        orphaned = [apex for apex in serving
                    if len(self._zone_ns_union(apex)) == 1]
        if orphaned:
            raise ValueError(
                f"cannot remove {hostname}: it is the only nameserver "
                f"of {sorted(orphaned)[0]}")
        for apex in serving:
            remaining = [host for host in self._zone_ns_union(apex)
                         if host != hostname]
            self.set_zone_nameservers(apex, remaining)
        organizations = getattr(internet, "organizations", None)
        if organizations is not None:
            operator = organizations.operator_of(hostname)
            organizations.forget_nameserver(hostname)
            served = getattr(internet, "served_index", None)
            if served is not None and operator is not None:
                served.note(apexes=(operator.domain,))
        event = ChangeEvent(kind="server-remove", hosts_before=(hostname,),
                            touched_hosts=frozenset((hostname,)),
                            details={"zones": [str(a) for a in serving]})
        self.events.append(event)
        return event

    def set_server_software(self, hostname: NameLike,
                            software: Optional[str]) -> ChangeEvent:
        """Change a server's ``version.bind`` banner (upgrade / downgrade)."""
        hostname = DomainName(hostname)
        server = self.internet.servers.get(hostname)
        if server is None:
            raise ValueError(f"unknown server {hostname}")
        before = server.software
        server.software = software
        event = ChangeEvent(kind="software",
                            touched_hosts=frozenset((hostname,)),
                            details={"host": str(hostname),
                                     "before": before, "after": software})
        self.events.append(event)
        return event

    def move_server_region(self, hostname: NameLike,
                           region: str) -> ChangeEvent:
        """Move a server to another geographic region."""
        hostname = DomainName(hostname)
        server = self.internet.servers.get(hostname)
        if server is None:
            raise ValueError(f"unknown server {hostname}")
        before = server.region
        server.region = region
        event = ChangeEvent(kind="region",
                            touched_hosts=frozenset((hostname,)),
                            details={"host": str(hostname),
                                     "before": before, "after": region})
        self.events.append(event)
        return event

    # -- DNSSEC ------------------------------------------------------------------------

    def deploy_dnssec(self, fraction: float = 1.0,
                      always_sign_tlds: bool = True,
                      seed: str = "repro-dnssec") -> ChangeEvent:
        """Extend the world's DNSSEC deployment to ``fraction``.

        Signing is additive; with the same ``seed`` a larger fraction signs
        a superset of a smaller one, so this models deployment *progress*
        (see :func:`repro.core.dnssec_impact.deploy_dnssec`, which rejects
        shrinking).  The event's footprint is the set of newly signed
        zones, mapped by *ancestry*: chain-of-trust validation only reads a
        name's own ancestor chain, so exactly the names below a newly
        signed apex can change verdict.
        """
        # Imported lazily: the topology layer must not depend on the core
        # survey machinery at module load time.
        from repro.core.dnssec_impact import deploy_dnssec
        internet = self.internet
        before = self._signed_zones()
        deployment = deploy_dnssec(internet, fraction=fraction,
                                   always_sign_tlds=always_sign_tlds,
                                   seed=seed)
        newly_signed = sorted(self._signed_zones() - before)
        event = ChangeEvent(
            kind="dnssec",
            details={"deployment": deployment,
                     "fraction": fraction,
                     "sign_tlds": always_sign_tlds,
                     "seed": seed,
                     "newly_signed": newly_signed})
        self.events.append(event)
        return event

    # -- folding -----------------------------------------------------------------------

    def changes(self, since: int = 0) -> ChangeSet:
        """Fold the event log (from event index ``since``) into a ChangeSet.

        ``since`` supports replay workflows: a caller that re-applied
        already-surveyed mutations to rebuild world state (the CLI's
        sidecar journal) folds only the events *after* the replay, so the
        dirty set stays proportional to the new changes instead of the
        whole history.  DNSSEC deployments are the one exception — they
        are cumulative world state a deployment-tracking pass must adopt
        in full for its metadata to match a cold engine, so the whole
        chain is always included (adoption is idempotent; the dirty
        mapping still uses only the new events' ``newly_signed`` zones).
        """
        edited: Dict[DomainName, List[DomainName]] = {}
        created: List[DomainName] = []
        chain_zones: List[DomainName] = []
        touched: Set[DomainName] = set()
        refingerprint: Set[DomainName] = set()
        added: Set[DomainName] = set()
        deployments: List[object] = []
        footprints: Dict[DomainName, Tuple[DomainName, ...]] = {}
        host_dirty: Set[DomainName] = set()
        dirty_all = False
        for index, event in enumerate(self.events):
            if event.kind == "dnssec":
                deployments.append(event.details["deployment"])
                if index >= since:
                    chain_zones.extend(event.details["newly_signed"])
                continue
            if index < since:
                continue
            touched.update(event.touched_hosts)
            if event.kind in ("zone-ns", "zone-created"):
                edited[event.zone] = list(event.hosts_after)
                if event.created_zone and event.zone not in created:
                    created.append(event.zone)
                if not event.created_zone and event.zone not in created \
                        and event.zone not in footprints:
                    # The first in-window edit's before-set is what the
                    # previous survey's TCBs reflect: a name depends on
                    # the zone iff it holds every countable member, so
                    # this set is the zone's precise dirty footprint.
                    # (Later edits see intermediate states no TCB holds;
                    # zones created in-window dirty by ancestry instead.)
                    footprints[event.zone] = tuple(event.hosts_before)
                if not event.created_zone and \
                        not self._has_countable_host(event.hosts_before):
                    # The old NS set leaves no trace in any TCB, so the
                    # event's footprint cannot be mapped to names.
                    dirty_all = True
            elif event.kind == "software":
                refingerprint.update(event.touched_hosts)
                host_dirty.update(event.touched_hosts)
            elif event.kind == "server-add":
                added.update(event.hosts_after)
                # A ghost NS coming online flips its fingerprint from
                # unreachable to a live banner; cached verdicts are stale.
                refingerprint.update(event.hosts_after)
                host_dirty.update(event.touched_hosts)
            else:  # server-remove, region, future host-scoped kinds
                host_dirty.update(event.touched_hosts)
        return ChangeSet(edited_zones=edited, created_zones=tuple(created),
                         chain_zones=tuple(chain_zones),
                         touched_hosts=frozenset(touched),
                         refingerprint_hosts=frozenset(refingerprint),
                         added_names=frozenset(added),
                         dnssec_deployments=tuple(deployments),
                         dirty_all=dirty_all,
                         zone_footprints=footprints,
                         host_footprints=frozenset(host_dirty))

    # -- internals ---------------------------------------------------------------------

    @staticmethod
    def _dedup(nameservers: Sequence[NameLike]) -> List[DomainName]:
        seen: Set[DomainName] = set()
        out: List[DomainName] = []
        for hostname in nameservers:
            hostname = DomainName(hostname)
            if hostname not in seen:
                seen.add(hostname)
                out.append(hostname)
        return out

    def _is_excluded(self, hostname: DomainName) -> bool:
        return any(hostname.is_subdomain_of(suffix)
                   for suffix in self._excluded)

    def _has_countable_host(self, hosts: Sequence[DomainName]) -> bool:
        return any(not self._is_excluded(host) for host in hosts)

    def _allocate_address(self) -> str:
        """A deterministic benchmark-range address unused by any server.

        Checked against every address already registered on the world, so
        consecutive journals over one internet (the carried-engine
        re-survey chaining pattern) never hand two servers the same
        address — the network routes by address and would silently
        deliver the first server's queries to the second.
        """
        used = {address for server in self.internet.servers.values()
                for address in server.addresses}
        while True:
            self._address_counter += 1
            index = self._address_counter
            address = f"198.18.{index // 250}.{index % 250 + 1}"
            if address not in used:
                return address

    def _signed_zones(self) -> Set[DomainName]:
        """Apexes currently carrying a DNSKEY RRSet."""
        return {apex for apex, zone in self.internet.zones.items()
                if zone.get_rrset(apex, RRType.DNSKEY) is not None}

    def _enclosing_zone(self, name: DomainName) -> Optional[Zone]:
        """The deepest existing zone strictly above ``name``."""
        zones = self.internet.zones
        for ancestor in name.ancestors(include_self=False):
            zone = zones.get(ancestor)
            if zone is not None:
                return zone
        return None

    def _parent_delegation(self, apex: DomainName):
        """(parent zone, delegation) currently covering ``apex``, if any."""
        parent = self._enclosing_zone(apex)
        if parent is None:
            return None, None
        return parent, parent.get_delegation(apex)

    def _zone_ns_union(self, apex: NameLike) -> List[DomainName]:
        """The zone's NS union in discovery order (parent set, then apex)."""
        return zone_nameserver_union(self.internet, apex)

    def _glue_for(self, nameservers: Sequence[DomainName]
                  ) -> Dict[DomainName, List[str]]:
        """Glue addresses for every listed server the world knows."""
        glue: Dict[DomainName, List[str]] = {}
        servers = self.internet.servers
        for hostname in nameservers:
            server = servers.get(hostname)
            if server is not None and server.addresses:
                glue[hostname] = list(server.addresses)
        return glue

    def _rewire_delegation(self, apex: DomainName,
                           ns_list: List[DomainName]) -> None:
        """Point the parent-side delegation for ``apex`` at ``ns_list``."""
        parent, delegation = self._parent_delegation(apex)
        if parent is None:
            return
        glue = self._glue_for(ns_list)
        if delegation is None:
            parent.delegate(apex, ns_list,
                            glue={str(host): addresses
                                  for host, addresses in glue.items()})
        else:
            delegation.set_nameservers(ns_list, glue=glue)

    def _reattach_servers(self, zone: Zone, before: Sequence[DomainName],
                          after: Sequence[DomainName]) -> None:
        """Attach/detach authoritative servers to match the new NS set."""
        servers = self.internet.servers
        after_set = set(after)
        for hostname in before:
            if hostname not in after_set:
                server = servers.get(hostname)
                if server is not None:
                    server.remove_zone(zone.apex)
        for hostname in after:
            server = servers.get(hostname)
            if server is not None:
                server.add_zone(zone)


# -- CLI mutation specs ---------------------------------------------------------------

def apply_mutation_spec(journal: ChangeJournal, spec: str) -> ChangeEvent:
    """Apply one CLI-style mutation spec to a journal.

    Specs follow the pass-spec grammar ``kind:key=value[;key=value...]``:

    * ``set-ns:zone=Z;ns=H1+H2+...`` — re-delegate ``Z`` to the listed hosts
    * ``add-ns:zone=Z;ns=H`` / ``drop-ns:zone=Z;ns=H``
    * ``add-server:host=H[;software=BANNER][;region=R][;org=NAME]``
    * ``remove-server:host=H``
    * ``set-software:host=H[;software=BANNER]`` (omitted banner = hidden)
    * ``move-region:host=H;region=R``
    * ``dnssec:fraction=F[;sign_tlds=BOOL][;seed=S]``

    A malformed spec (bad grammar, an unknown kind or option, a number or
    name that does not parse, a change the world refuses) raises a
    ``ValueError`` that names the spec.
    """
    text = spec.strip()
    try:
        return _apply_mutation(journal, text)
    except (ValueError, DNSError) as error:
        raise ValueError(f"bad mutation spec {text!r}: {error}") from error


def _apply_mutation(journal: ChangeJournal, text: str) -> ChangeEvent:
    kind, _, option_text = text.partition(":")
    kind = kind.strip()
    options: Dict[str, str] = {}
    if option_text:
        for item in option_text.split(";"):
            item = item.strip()
            if not item:
                continue
            key, separator, value = item.partition("=")
            if not separator:
                raise ValueError(f"malformed option {item!r} (expected "
                                 f"key=value)")
            options[key.strip()] = value.strip()

    def need(key: str) -> str:
        if key not in options:
            raise ValueError(f"mutation {kind!r} needs {key}=...")
        return options.pop(key)

    def finish(event: ChangeEvent) -> ChangeEvent:
        if options:
            raise ValueError(f"unknown option(s) {sorted(options)} for "
                             f"mutation {kind!r}")
        return event

    if kind == "set-ns":
        zone = need("zone")
        hosts = [h for h in need("ns").split("+") if h]
        return finish(journal.set_zone_nameservers(zone, hosts))
    if kind == "add-ns":
        return finish(journal.add_zone_nameserver(need("zone"), need("ns")))
    if kind == "drop-ns":
        return finish(journal.remove_zone_nameserver(need("zone"),
                                                     need("ns")))
    if kind == "add-server":
        host = need("host")
        return finish(journal.add_server(
            host, software=options.pop("software", None),
            region=options.pop("region", "us"),
            organization=options.pop("org", None)))
    if kind == "remove-server":
        return finish(journal.remove_server(need("host")))
    if kind == "set-software":
        return finish(journal.set_server_software(
            need("host"), options.pop("software", None)))
    if kind == "move-region":
        return finish(journal.move_server_region(need("host"),
                                                 need("region")))
    if kind == "dnssec":
        fraction = float(need("fraction"))
        sign_tlds = options.pop("sign_tlds", "true").lower() in \
            ("1", "true", "yes", "on")
        seed = options.pop("seed", "repro-dnssec")
        return finish(journal.deploy_dnssec(fraction=fraction,
                                            always_sign_tlds=sign_tlds,
                                            seed=seed))
    raise ValueError(
        f"unknown mutation kind {kind!r} (expected one of set-ns, add-ns, "
        f"drop-ns, add-server, remove-server, set-software, move-region, "
        f"dnssec)")
