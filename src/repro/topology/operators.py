"""Operator organisations: who runs nameservers and for whom.

The paper's Section 3.3 distinguishes operators by what they are — gTLD
registries, ISPs with a fiduciary relationship to their customers, and
universities or non-profits that serve zones as a favour.  The generator
models every nameserver as belonging to an :class:`Organization` of a
particular :class:`OperatorKind`, which determines how many servers it runs,
where they sit in the namespace, how its BIND versions are chosen, and how
willing it is to act as an off-site secondary for others.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from repro.dns.name import DomainName, NameLike


class OperatorKind(enum.Enum):
    """Classes of nameserver operators used by the generator."""

    ROOT = "root"                  # root-server operators
    GTLD_REGISTRY = "gtld-registry"
    CCTLD_REGISTRY = "cctld-registry"
    HOSTING_PROVIDER = "hosting"   # commercial DNS/web hosting
    ISP = "isp"                    # access providers running customer DNS
    UNIVERSITY = "university"      # .edu and foreign academic institutions
    ENTERPRISE = "enterprise"      # self-hosting companies
    GOVERNMENT = "government"      # civilian government agencies
    NONPROFIT = "nonprofit"        # .org style organisations
    SMALL_BUSINESS = "small-business"

    @property
    def is_registry(self) -> bool:
        """True for TLD registry operators."""
        return self in (OperatorKind.GTLD_REGISTRY, OperatorKind.CCTLD_REGISTRY)

    @property
    def provides_secondary_service(self) -> bool:
        """True if the operator commonly slaves zones for outside parties.

        Universities and ISPs historically did this informally, which is
        exactly the behaviour that creates long transitive trust chains.
        """
        return self in (OperatorKind.UNIVERSITY, OperatorKind.ISP,
                        OperatorKind.HOSTING_PROVIDER, OperatorKind.NONPROFIT)


@dataclasses.dataclass
class Organization:
    """An organisation operating DNS infrastructure.

    Attributes
    ----------
    name:
        Human-readable identifier (also used to derive hostnames).
    kind:
        The operator class.
    domain:
        The organisation's own domain (its nameservers usually live here).
    region:
        Geographic region, used for latency and for "far-flung secondary"
        anecdotes.
    nameservers:
        Hostnames of the nameservers this organisation operates.
    hosted_zones:
        Apex names of zones this organisation's servers are authoritative
        for (its own zone plus any customer / secondary zones).
    hygiene:
        0..1 score describing patching discipline; feeds BIND assignment.
    """

    name: str
    kind: OperatorKind
    domain: DomainName
    region: str = "us"
    nameservers: List[DomainName] = dataclasses.field(default_factory=list)
    hosted_zones: List[DomainName] = dataclasses.field(default_factory=list)
    hygiene: float = 0.8

    def add_nameserver(self, hostname: NameLike) -> DomainName:
        """Register a nameserver hostname as belonging to this organisation."""
        hostname = DomainName(hostname)
        if hostname not in self.nameservers:
            self.nameservers.append(hostname)
        return hostname

    def remove_nameserver(self, hostname: NameLike) -> bool:
        """Forget a nameserver hostname (e.g. decommissioned); True if known."""
        hostname = DomainName(hostname)
        if hostname in self.nameservers:
            self.nameservers.remove(hostname)
            return True
        return False

    def add_hosted_zone(self, apex: NameLike) -> DomainName:
        """Record that this organisation serves the zone rooted at ``apex``."""
        apex = DomainName(apex)
        if apex not in self.hosted_zones:
            self.hosted_zones.append(apex)
        return apex

    @property
    def tld(self) -> Optional[str]:
        """The TLD the organisation's own domain lives under."""
        return self.domain.tld

    @property
    def is_educational(self) -> bool:
        """True for .edu-style operators (Figure 9's population)."""
        return self.kind is OperatorKind.UNIVERSITY

    def __repr__(self) -> str:
        return (f"Organization({self.name!r}, {self.kind.value}, "
                f"domain={self.domain!s}, ns={len(self.nameservers)})")


class OrganizationRegistry:
    """Index of all organisations in a synthetic Internet."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Organization] = {}
        self._by_domain: Dict[DomainName, Organization] = {}
        self._by_nameserver: Dict[DomainName, Organization] = {}

    def add(self, organization: Organization) -> Organization:
        """Register an organisation (idempotent by name)."""
        existing = self._by_name.get(organization.name)
        if existing is not None:
            return existing
        self._by_name[organization.name] = organization
        self._by_domain[organization.domain] = organization
        for nameserver in organization.nameservers:
            self._by_nameserver[nameserver] = organization
        return organization

    def index_nameserver(self, hostname: NameLike,
                         organization: Organization) -> None:
        """Associate a nameserver hostname with its operator."""
        self._by_nameserver[DomainName(hostname)] = organization

    def forget_nameserver(self, hostname: NameLike) -> None:
        """Drop a nameserver's operator association (and org membership)."""
        hostname = DomainName(hostname)
        organization = self._by_nameserver.pop(hostname, None)
        if organization is not None:
            organization.remove_nameserver(hostname)

    def by_name(self, name: str) -> Optional[Organization]:
        """Look up an organisation by its identifier."""
        return self._by_name.get(name)

    def by_domain(self, domain: NameLike) -> Optional[Organization]:
        """Look up an organisation by its own domain."""
        if not isinstance(domain, DomainName):
            domain = DomainName(domain)
        return self._by_domain.get(domain)

    def operator_of(self, nameserver: NameLike) -> Optional[Organization]:
        """The organisation operating ``nameserver``, if known."""
        return self._by_nameserver.get(DomainName(nameserver))

    def of_kind(self, kind: OperatorKind) -> List[Organization]:
        """All organisations of the given kind."""
        return [org for org in self._by_name.values() if org.kind is kind]

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())
