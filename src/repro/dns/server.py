"""Authoritative nameservers.

An :class:`AuthoritativeServer` is a host that serves one or more zones.  It
answers queries exactly the way an authoritative-only BIND instance would:

* authoritative answers for names it owns,
* referrals (NS records plus glue in the additional section) for names below
  one of its zone cuts,
* NXDOMAIN for names inside its zones that do not exist,
* REFUSED for names it is not authoritative for,
* and a ``TXT`` answer for ``version.bind`` in class CH, which is how the
  survey fingerprints the software version a server runs.

Servers also carry operational state used by the analyses: a BIND version
banner, an operator label (university, ISP, registry, ...), a status that can
be flipped to ``DOWN`` or ``COMPROMISED`` for what-if experiments, and the
set of hijacked names an attacker has planted on a compromised server.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.errors import ZoneError
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import RCode, RRClass, RRType
from repro.dns.records import ResourceRecord
from repro.dns.zone import Zone

#: The special name used to fingerprint BIND servers.
VERSION_BIND = DomainName("version.bind")


class ServerStatus(enum.Enum):
    """Operational status of a nameserver."""

    UP = "up"
    DOWN = "down"
    COMPROMISED = "compromised"


@dataclasses.dataclass
class ServerStats:
    """Counters the server maintains about the queries it has answered."""

    queries: int = 0
    answers: int = 0
    referrals: int = 0
    nxdomains: int = 0
    refused: int = 0
    failures: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class AuthoritativeServer:
    """A DNS nameserver serving a set of authoritative zones.

    Parameters
    ----------
    hostname:
        The server's own DNS name (e.g. ``cudns.cit.cornell.edu``).
    addresses:
        IP addresses the server listens on.
    software:
        Version banner returned for ``version.bind`` queries, e.g.
        ``"BIND 8.2.4"``.  ``None`` models servers that refuse the query.
    operator:
        Free-form label describing who runs the server (used by the paper's
        ".edu / .org operators" analysis).
    region:
        Geographic region label, used by the latency model and by the
        "globe-spanning TCB" anecdotes.
    """

    def __init__(self, hostname: NameLike, addresses: Iterable[str] = (),
                 software: Optional[str] = None, operator: str = "unknown",
                 region: str = "us"):
        self.hostname = DomainName(hostname)
        self.addresses: List[str] = list(addresses)
        self.software = software
        self.operator = operator
        self.region = region
        self.status = ServerStatus.UP
        self.stats = ServerStats()
        #: Apex labels -> zone; suffix walks probe label tuples.
        self._zones: Dict[Tuple[str, ...], Zone] = {}
        #: Names an attacker has planted after compromising this server.
        self.hijacked_records: Dict[Tuple[DomainName, RRType], str] = {}

    # -- zone management -----------------------------------------------------

    def add_zone(self, zone: Zone) -> None:
        """Attach a zone this server is authoritative for."""
        self._zones[zone.apex.labels] = zone

    def remove_zone(self, apex: NameLike) -> None:
        """Detach the zone rooted at ``apex`` (no-op if absent)."""
        self._zones.pop(DomainName(apex).labels, None)

    def zones(self) -> List[Zone]:
        """All zones served, deepest apex first."""
        return sorted(self._zones.values(), key=lambda z: -z.apex.depth)

    def zone_apexes(self) -> List[DomainName]:
        """Apex names of all zones served."""
        return [zone.apex for zone in self.zones()]

    def find_zone(self, name: NameLike) -> Optional[Zone]:
        """The deepest zone containing ``name``, or ``None``.

        Walks the name's ancestor suffixes deepest-first against the zone
        dictionary — O(depth) lookups instead of a scan over every zone
        this server carries (TLD registries carry thousands).
        """
        if not isinstance(name, DomainName):
            name = DomainName(name)
        zones = self._zones
        labels = name.labels
        for start in range(len(labels) + 1):
            zone = zones.get(labels[start:])
            if zone is not None:
                return zone
        return None

    def is_authoritative_for(self, name: NameLike) -> bool:
        """True if this server can answer authoritatively for ``name``."""
        zone = self.find_zone(name)
        return zone is not None and zone.is_authoritative_for(name)

    # -- operational state ------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """True unless the server has been failed."""
        return self.status is not ServerStatus.DOWN

    @property
    def is_compromised(self) -> bool:
        """True if an attacker controls this server."""
        return self.status is ServerStatus.COMPROMISED

    def fail(self) -> None:
        """Mark the server as down (it will stop answering queries)."""
        self.status = ServerStatus.DOWN

    def restore(self) -> None:
        """Return the server to normal operation and clear hijacked data."""
        self.status = ServerStatus.UP
        self.hijacked_records.clear()

    def compromise(self) -> None:
        """Mark the server as attacker-controlled.

        A compromised server keeps answering queries (so resolution still
        "works") but will serve any records the attacker plants via
        :meth:`hijack`.
        """
        self.status = ServerStatus.COMPROMISED

    def hijack(self, name: NameLike, address: str,
               rtype: RRType = RRType.A) -> None:
        """Plant a forged record, as an attacker would after compromise.

        Raises :class:`ZoneError` unless the server is compromised, because a
        healthy server only serves its configured zones.
        """
        if not self.is_compromised:
            raise ZoneError(
                f"cannot hijack {name} on {self.hostname}: server not compromised")
        self.hijacked_records[(DomainName(name), rtype)] = address

    # -- query handling -----------------------------------------------------------

    def handle_query(self, query: Message) -> Message:
        """Answer a DNS query.

        The answer logic follows RFC 1034 section 4.3.2 restricted to the
        record types the substrate models.  Servers that are ``DOWN`` raise
        at the network layer before this method is reached; this method only
        deals with protocol-level behaviour.
        """
        self.stats.queries += 1
        question = query.question

        if question.rclass is RRClass.CH:
            return self._answer_chaos(query)

        # A compromised server serves the attacker's records first.
        if self.is_compromised:
            forged = self.hijacked_records.get((question.name, question.rtype))
            if forged is not None:
                response = make_response(query, authoritative=True)
                response.answers.append(ResourceRecord.create(
                    question.name, question.rtype, forged, ttl=300))
                self.stats.answers += 1
                return response

        zone = self.find_zone(question.name)
        if question.rtype is RRType.DS and zone is not None and \
                zone.apex == question.name:
            # DS queries for a zone apex are answered from the parent side of
            # the cut; when this server hosts both parent and child, prefer
            # the parent zone's data (RFC 4035 section 3.1.4.1).
            parent_zone = self.find_zone(question.name.parent())
            if parent_zone is not None and parent_zone.apex != zone.apex:
                zone = parent_zone
        if zone is None:
            self.stats.refused += 1
            return make_response(query, rcode=RCode.REFUSED)

        delegation = zone.find_covering_delegation(question.name)
        if delegation is not None:
            # DS records live on the *parent* side of a zone cut (RFC 4035):
            # a query for the delegated name's DS is answered from this
            # zone's own data rather than referred to the child.
            at_zone_cut = delegation.child == question.name
            if not (at_zone_cut and question.rtype in (RRType.DS,
                                                       RRType.RRSIG)):
                response = make_response(query, authoritative=False)
                response.authority.extend(delegation.ns_records())
                response.additional.extend(delegation.glue_records())
                self.stats.referrals += 1
                return response

        return self._answer_authoritative(query, zone)

    def _answer_authoritative(self, query: Message, zone: Zone) -> Message:
        """Produce an authoritative answer (or NXDOMAIN) from ``zone``."""
        question = query.question
        response = make_response(query, authoritative=True)

        # Follow CNAME chains within the zone.
        name = question.name
        for _ in range(8):
            cname_rrset = zone.get_rrset(name, RRType.CNAME)
            if cname_rrset is None or question.rtype is RRType.CNAME:
                break
            response.answers.extend(cname_rrset.records)
            targets = cname_rrset.targets()
            if not targets:
                break
            name = targets[0]
            if not name.is_subdomain_of(zone.apex):
                break

        rrset = zone.get_rrset(name, question.rtype)
        if rrset:
            response.answers.extend(rrset.records)
            self.stats.answers += 1
            return response

        if response.answers:
            # CNAME chain that left the zone or dead-ends: partial answer.
            self.stats.answers += 1
            return response

        if zone.has_name(question.name):
            # Name exists but not with the requested type (NODATA).
            self.stats.answers += 1
            return response

        response.rcode = RCode.NXDOMAIN
        self.stats.nxdomains += 1
        return response

    def _answer_chaos(self, query: Message) -> Message:
        """Answer CHAOS-class queries (``version.bind`` fingerprinting)."""
        question = query.question
        response = make_response(query, authoritative=True)
        if question.name == VERSION_BIND and question.rtype is RRType.TXT:
            if self.software:
                response.answers.append(ResourceRecord.create(
                    VERSION_BIND, RRType.TXT, self.software,
                    rclass=RRClass.CH, ttl=0))
                self.stats.answers += 1
            else:
                response.rcode = RCode.REFUSED
                self.stats.refused += 1
            return response
        response.rcode = RCode.NOTIMP
        return response

    def query(self, name: NameLike, rtype: RRType = RRType.A,
              rclass: RRClass = RRClass.IN) -> Message:
        """Convenience: build a query for (name, type) and answer it locally."""
        return self.handle_query(make_query(name, rtype, rclass))

    def __repr__(self) -> str:
        return (f"AuthoritativeServer({self.hostname!s}, "
                f"zones={len(self._zones)}, software={self.software!r}, "
                f"status={self.status.value})")
