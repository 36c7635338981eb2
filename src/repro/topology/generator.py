"""Synthetic Internet generator.

:class:`InternetGenerator` builds a complete, resolvable DNS deployment — the
substitute for the live Internet the paper surveyed — and returns it as a
:class:`SyntheticInternet`: a registered :class:`SimulatedNetwork` of
authoritative servers, the zone objects they serve, the organisations that
operate them, root hints, and a :class:`WebDirectory` of externally-visible
web-server names to survey.

The generator reproduces the structural mechanisms the paper identifies:

* registries whose infrastructure is self-contained (``com``/``net``) versus
  registries that delegate to far-flung off-site servers (``aero``, ``int``,
  and the worst ccTLDs such as ``ua`` and ``by``);
* hosting providers and ISPs that concentrate many customer zones on a few
  servers (the "most valuable nameservers" of Section 3.3);
* universities that run their own servers, slave zones for one another in
  mutual-secondary webs, and thereby create long transitive trust chains
  (the Cornell → Rochester → Wisconsin → Michigan example of Figure 1);
* per-organisation BIND hygiene calibrated so that roughly 17 % of servers
  carry a well-documented vulnerability, skewed towards educational and
  small-registry operators.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.name import DomainName, NameLike, ROOT_NAME
from repro.dns.rdtypes import RRType
from repro.dns.resolver import IterativeResolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.netsim.ip import IPv4Allocator
from repro.netsim.network import SimulatedNetwork
from repro.topology.bindpolicy import BindVersionPolicy
from repro.topology.distributions import ZipfSampler, truncated_geometric
from repro.topology.operators import Organization, OperatorKind, \
    OrganizationRegistry
from repro.topology.tlds import CCTLD_PROFILES, GTLD_PROFILES, TLDProfile
from repro.topology.webdirectory import DirectoryEntry, WebDirectory

#: Alphabet used for root/gTLD server letters (a.gtld-servers.net ...).
_LETTERS = "abcdefghijklm"


@dataclasses.dataclass
class GeneratorConfig:
    """Knobs controlling the size and shape of the synthetic Internet.

    The defaults produce a survey of a few thousand names resolving against
    a few thousand nameservers — a scale that keeps the full pipeline under
    a minute while preserving the distributional shapes of the paper's
    593k-name survey.  Benchmarks shrink ``sld_count`` further.
    """

    seed: int = 20040722
    #: Number of second-level domains generated from the generic population
    #: (universities, providers, and registries are created on top of this).
    sld_count: int = 2000
    #: Soft target for the number of names in the web directory.
    directory_name_count: int = 3200
    #: Size of the "Alexa" popular-names cohort.
    alexa_count: int = 500
    hosting_provider_count: int = 40
    isp_count: int = 30
    university_count: int = 130
    #: Fraction of generic SLDs owned by self-hosting enterprises.
    enterprise_fraction: float = 0.12
    #: Fraction of generic SLDs that are government agencies (forced to .gov).
    government_fraction: float = 0.02
    #: Fraction of generic SLDs that are non-profits (forced to .org).
    nonprofit_fraction: float = 0.08
    #: Probability that a university adds an off-site secondary from each of
    #: its exchange partners (the knob the ablation bench sweeps).
    offsite_secondary_prob: float = 0.85
    #: Sizes and weights of university "secondary exchange" groups.  Most
    #: groups are small; the heavy tail creates the 200+ node TCBs.
    university_group_sizes: Tuple[int, ...] = (2, 3, 4, 6, 9, 14, 20, 28, 40)
    university_group_weights: Tuple[float, ...] = (
        0.24, 0.21, 0.17, 0.13, 0.10, 0.07, 0.04, 0.025, 0.015)
    #: Fraction of universities under US .edu (the rest sit under
    #: self-contained foreign ccTLDs).
    us_university_fraction: float = 0.8
    #: Fraction of provider-hosted small organisations that run their own
    #: primary nameservers in-house (a common 2004 pattern; these are the
    #: names whose entire bottleneck is a single sloppy organisation).
    self_hosted_small_fraction: float = 0.28
    #: Number of nstld-style servers backing the gtld-servers.net zone,
    #: adding one level of registry depth to every com/net closure.
    nstld_server_count: int = 6
    #: Probability that an enterprise spreads its zone over two providers in
    #: addition to its own servers (popular sites do this for resilience).
    multi_provider_prob: float = 0.30
    #: Probability that a university delegates a department sub-zone.
    department_subzone_prob: float = 0.3
    #: Whether parent zones carry glue for in-bailiwick nameservers.
    glue_enabled: bool = True
    #: Global multiplier on BIND hygiene (1.0 reproduces ~17 % vulnerable).
    hygiene_scale: float = 1.0
    #: Fraction of servers hiding their version banner.
    hidden_version_fraction: float = 0.06
    #: Probability that a server inherits its organisation's base BIND
    #: version rather than re-rolling (vulnerabilities cluster per admin:
    #: an organisation that runs BIND 8.2.x runs it on all of its boxes).
    org_version_correlation: float = 0.96
    #: Number of com/net registry servers.
    gtld_server_count: int = 13
    #: Restrict the ccTLDs / gTLDs built (None = full catalogue).
    include_cctlds: Optional[Sequence[str]] = None
    include_gtlds: Optional[Sequence[str]] = None
    #: Whether to plant the paper's case-study domains (fbi.gov, rkc.lviv.ua).
    plant_anecdotes: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.sld_count < 0 or self.directory_name_count < 0:
            raise ValueError("counts must be non-negative")
        if len(self.university_group_sizes) != len(self.university_group_weights):
            raise ValueError("group sizes and weights must align")
        if not 0.0 <= self.offsite_secondary_prob <= 1.0:
            raise ValueError("offsite_secondary_prob must be in [0, 1]")
        if not 0.0 <= self.multi_provider_prob <= 1.0:
            raise ValueError("multi_provider_prob must be in [0, 1]")
        if self.university_count < 0 or self.hosting_provider_count < 1:
            raise ValueError("need at least one hosting provider")


@dataclasses.dataclass
class SyntheticInternet:
    """Everything the survey needs: network, zones, operators, directory."""

    config: GeneratorConfig
    network: SimulatedNetwork
    zones: Dict[DomainName, Zone]
    servers: Dict[DomainName, AuthoritativeServer]
    organizations: OrganizationRegistry
    root_hints: Dict[DomainName, List[str]]
    directory: WebDirectory
    #: The :class:`~repro.topology.changes.ServedIndex` journals keep
    #: current once a churn model has attached one.
    served_index: Optional[object] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    #: The :class:`~repro.core.dnssec_impact.DNSSECDeployment` last
    #: applied to this Internet; zones a journal cuts later sign by it.
    dnssec_deployment: Optional[object] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def make_resolver(self, use_glue: bool = True, selection: str = "first",
                      max_queries: int = 4000,
                      cache=None) -> IterativeResolver:
        """Create an iterative resolver wired to this Internet's root."""
        return IterativeResolver(self.network, self.root_hints, cache=cache,
                                 use_glue=use_glue, selection=selection,
                                 max_queries=max_queries)

    def zone(self, apex: NameLike) -> Optional[Zone]:
        """The zone rooted at ``apex``, if it exists."""
        return self.zones.get(DomainName(apex))

    def server(self, hostname: NameLike) -> Optional[AuthoritativeServer]:
        """The server with the given hostname, if it exists."""
        return self.servers.get(DomainName(hostname))

    def server_count(self) -> int:
        """Number of authoritative servers (root servers included)."""
        return len(self.servers)

    def non_root_server_count(self) -> int:
        """Number of servers excluding the root servers."""
        return sum(1 for hostname in self.servers
                   if not hostname.is_subdomain_of("root-servers.net"))

    def summary(self) -> Dict[str, int]:
        """Headline counts for reporting."""
        return {
            "servers": self.server_count(),
            "zones": len(self.zones),
            "organizations": len(self.organizations),
            "directory_names": len(self.directory),
            "tlds": len(self.directory.tld_counts()),
        }


class InternetGenerator:
    """Builds a :class:`SyntheticInternet` from a :class:`GeneratorConfig`."""

    def __init__(self, config: Optional[GeneratorConfig] = None):
        self.config = config or GeneratorConfig()
        self.config.validate()
        self._rng = random.Random(self.config.seed)
        self._ip = IPv4Allocator()
        self._policy = BindVersionPolicy(
            rng=random.Random(self.config.seed + 1),
            hidden_fraction=self.config.hidden_version_fraction,
            hygiene_scale=self.config.hygiene_scale)
        self._network = SimulatedNetwork()
        self._zones: Dict[DomainName, Zone] = {}
        self._servers: Dict[DomainName, AuthoritativeServer] = {}
        self._orgs = OrganizationRegistry()
        self._root_hints: Dict[DomainName, List[str]] = {}
        self._directory = WebDirectory()
        self._org_base_banner: Dict[str, Optional[str]] = {}
        self._gtld_profiles = self._select_profiles(GTLD_PROFILES,
                                                    self.config.include_gtlds)
        self._cctld_profiles = self._select_profiles(CCTLD_PROFILES,
                                                     self.config.include_cctlds)
        self._universities: List[Organization] = []
        self._university_groups: List[List[Organization]] = []
        self._providers: List[Organization] = []
        self._provider_sampler: Optional[ZipfSampler] = None
        self._isps: List[Organization] = []
        self._popularity = ZipfSampler(1000, exponent=0.9)

    # ------------------------------------------------------------------ public

    def generate(self) -> SyntheticInternet:
        """Build the full synthetic Internet."""
        self._build_root()
        self._build_com_net_registry()
        self._build_other_gtlds()
        self._build_cctlds()
        self._build_hosting_providers()
        self._build_isps()
        self._build_universities()
        self._augment_tlds_with_offsite_servers()
        self._build_generic_slds()
        internet = SyntheticInternet(
            config=self.config, network=self._network, zones=dict(self._zones),
            servers=dict(self._servers), organizations=self._orgs,
            root_hints=dict(self._root_hints), directory=self._directory)
        if self.config.plant_anecdotes:
            # Imported here to avoid a circular import at module load time.
            from repro.topology.anecdotes import AnecdotePlanter
            AnecdotePlanter(self).plant(internet)
            # Planting adds zones and servers after the snapshot above was
            # taken; refresh the views so the case-study infrastructure is
            # visible through the SyntheticInternet accessors too.
            internet.zones = dict(self._zones)
            internet.servers = dict(self._servers)
        return internet

    # --------------------------------------------------------------- primitives

    @staticmethod
    def _select_profiles(catalogue: Dict[str, TLDProfile],
                         include: Optional[Sequence[str]]
                         ) -> Dict[str, TLDProfile]:
        if include is None:
            return dict(catalogue)
        return {label: catalogue[label] for label in include}

    def _get_zone(self, apex: NameLike) -> Zone:
        apex = DomainName(apex)
        zone = self._zones.get(apex)
        if zone is None:
            zone = Zone(apex)
            self._zones[apex] = zone
        return zone

    def _tld_profile(self, label: Optional[str]) -> Optional[TLDProfile]:
        if label is None:
            return None
        return self._gtld_profiles.get(label) or self._cctld_profiles.get(label)

    #: Operator kinds whose servers are always current (root and com/net
    #: registry infrastructure, which the paper found well maintained).
    _ALWAYS_SAFE_KINDS = (OperatorKind.ROOT, OperatorKind.GTLD_REGISTRY)

    def _org_banner(self, org: Organization) -> Optional[str]:
        """The organisation's base BIND banner (drawn once, then reused)."""
        if org.name not in self._org_base_banner:
            profile = self._tld_profile(org.tld)
            if org.kind in self._ALWAYS_SAFE_KINDS:
                banner = self._policy.safe_pool()[0]
            elif profile is not None and profile.hygiene <= 0.1:
                # Communities the paper singles out (the .ws registry and its
                # registrants) run nothing but old, exploitable BIND; these
                # are the names whose entire TCB is vulnerable in Figure 6.
                banner = self._policy.vulnerable_pool()[2]
            else:
                tld_hygiene = profile.hygiene if profile else 0.9
                banner = self._policy.assign(org.kind, tld_hygiene=tld_hygiene,
                                             org_hygiene=org.hygiene)
            self._org_base_banner[org.name] = banner
        return self._org_base_banner[org.name]

    def _create_server(self, hostname: NameLike, org: Organization,
                       home_zone: Optional[Zone] = None) -> AuthoritativeServer:
        """Create, address, version, and register one nameserver.

        ``home_zone`` is the zone that should carry the server's A record; it
        defaults to the zone rooted at the organisation's domain.
        """
        hostname = DomainName(hostname)
        existing = self._servers.get(hostname)
        if existing is not None:
            return existing
        address = self._ip.allocate(pool=org.name, owner=str(hostname))
        profile = self._tld_profile(org.tld)
        forced_banner = org.kind in self._ALWAYS_SAFE_KINDS or \
            (profile is not None and profile.hygiene <= 0.1)
        if forced_banner or \
                self._rng.random() < self.config.org_version_correlation:
            banner = self._org_banner(org)
        else:
            profile = self._tld_profile(org.tld)
            tld_hygiene = profile.hygiene if profile else 0.9
            banner = self._policy.assign(org.kind, tld_hygiene=tld_hygiene,
                                         org_hygiene=org.hygiene)
        server = AuthoritativeServer(hostname, addresses=[address],
                                     software=banner, operator=org.name,
                                     region=org.region)
        self._servers[hostname] = server
        self._network.register_server(server)
        org.add_nameserver(hostname)
        self._orgs.index_nameserver(hostname, org)
        if home_zone is None:
            home_zone = self._zones.get(org.domain)
        if home_zone is not None and hostname.is_subdomain_of(home_zone.apex):
            home_zone.add(hostname, RRType.A, address)
        return server

    def _attach_zone(self, zone: Zone, nameservers: Sequence[NameLike]) -> None:
        """Make every named server authoritative for ``zone``."""
        for hostname in nameservers:
            server = self._servers.get(DomainName(hostname))
            if server is not None:
                server.add_zone(zone)

    def _glue_map(self, zone_apex: DomainName,
                  nameservers: Sequence[DomainName]) -> Dict[str, List[str]]:
        """Glue addresses for the nameservers that sit inside ``zone_apex``."""
        if not self.config.glue_enabled:
            return {}
        glue: Dict[str, List[str]] = {}
        for hostname in nameservers:
            if not hostname.is_subdomain_of(zone_apex):
                continue
            server = self._servers.get(hostname)
            if server is not None and server.addresses:
                glue[str(hostname)] = list(server.addresses)
        return glue

    def _delegate(self, parent_apex: NameLike, child_apex: NameLike,
                  nameservers: Sequence[NameLike],
                  always_glue: bool = False) -> None:
        """Add a delegation (and glue) from parent to child."""
        parent = self._get_zone(parent_apex)
        child_apex = DomainName(child_apex)
        nameservers = [DomainName(ns) for ns in nameservers]
        if always_glue and self.config.glue_enabled:
            glue = {}
            for hostname in nameservers:
                server = self._servers.get(hostname)
                if server is not None and server.addresses:
                    glue[str(hostname)] = list(server.addresses)
        else:
            glue = self._glue_map(child_apex, nameservers)
        parent.delegate(child_apex, nameservers, glue=glue)

    def _publish_zone(self, org: Organization, apex: NameLike,
                      nameservers: Sequence[NameLike],
                      parent_apex: Optional[NameLike] = None) -> Zone:
        """Create a zone, set its apex NS, attach servers, and delegate it."""
        apex = DomainName(apex)
        zone = self._get_zone(apex)
        nameservers = [DomainName(ns) for ns in nameservers]
        zone.set_apex_nameservers(nameservers)
        self._attach_zone(zone, nameservers)
        org.add_hosted_zone(apex)
        if parent_apex is None:
            parent_apex = apex.parent()
        self._delegate(parent_apex, apex, nameservers)
        return zone

    def _add_web_host(self, zone: Zone, label: str, org: Organization,
                      category: str, popularity: float,
                      source: str = "dmoz") -> DomainName:
        """Add an A record for a web host and list it in the directory."""
        hostname = zone.apex.child(label) if label else zone.apex
        address = self._ip.allocate(pool=f"web-{org.name}", owner=str(hostname))
        zone.add(hostname, RRType.A, address)
        self._directory.add(DirectoryEntry(
            name=hostname, tld=hostname.tld or "", category=category,
            popularity=popularity, source=source))
        return hostname

    def _popularity_draw(self, boost: float = 1.0) -> float:
        """Heavy-tailed popularity score used for the Alexa cohort.

        The rank component is compressed (exponent < 1) so that the
        structural ``boost`` — which encodes *why* a site is popular
        (multi-provider enterprise, major university, well-known foreign
        site) — dominates cohort membership rather than pure noise.
        """
        rank = self._popularity.sample(self._rng)
        return boost * (1000.0 / rank) ** 0.45

    # ------------------------------------------------------------------- stages

    def _build_root(self) -> None:
        """The root zone and the 13 root servers (excluded from TCBs)."""
        root_org = Organization(name="root-operators", kind=OperatorKind.ROOT,
                                domain=DomainName("root-servers.net"),
                                region="us", hygiene=1.0)
        self._orgs.add(root_org)
        root_zone = self._get_zone(ROOT_NAME)
        rs_zone = self._get_zone("root-servers.net")
        hostnames = []
        for letter in _LETTERS:
            hostname = DomainName(f"{letter}.root-servers.net")
            self._create_server(hostname, root_org, home_zone=rs_zone)
            hostnames.append(hostname)
        root_zone.set_apex_nameservers(hostnames)
        rs_zone.set_apex_nameservers(hostnames)
        self._attach_zone(root_zone, hostnames)
        self._attach_zone(rs_zone, hostnames)
        root_org.add_hosted_zone(ROOT_NAME)
        root_org.add_hosted_zone(rs_zone.apex)
        for hostname in hostnames:
            server = self._servers[hostname]
            self._root_hints[hostname] = list(server.addresses)

    def _build_com_net_registry(self) -> None:
        """com/net and the gtld-servers.net infrastructure that serves them."""
        org = Organization(name="gtld-registry", kind=OperatorKind.GTLD_REGISTRY,
                           domain=DomainName("gtld-servers.net"), region="us",
                           hygiene=0.98)
        self._orgs.add(org)
        infra_zone = self._get_zone("gtld-servers.net")
        hostnames = []
        for index in range(self.config.gtld_server_count):
            letter = _LETTERS[index % len(_LETTERS)]
            suffix = "" if index < len(_LETTERS) else str(index // len(_LETTERS))
            hostname = DomainName(f"{letter}{suffix}.gtld-servers.net")
            self._create_server(hostname, org, home_zone=infra_zone)
            hostnames.append(hostname)
        org.add_hosted_zone(infra_zone.apex)

        # gtld-servers.net itself is served by a second tier of registry
        # servers under nstld.com (as in the paper's Figure 1), which adds
        # one level of registry depth to every com/net closure.
        nstld_zone = self._get_zone("nstld.com")
        nstld_hostnames = []
        for index in range(self.config.nstld_server_count):
            letter = _LETTERS[index % len(_LETTERS)]
            hostname = DomainName(f"{letter}2.nstld.com")
            self._create_server(hostname, org, home_zone=nstld_zone)
            nstld_hostnames.append(hostname)
        nstld_zone.set_apex_nameservers(nstld_hostnames)
        self._attach_zone(nstld_zone, nstld_hostnames)
        org.add_hosted_zone(nstld_zone.apex)

        infra_zone.set_apex_nameservers(nstld_hostnames)
        self._attach_zone(infra_zone, nstld_hostnames)

        for label in ("com", "net"):
            if label not in self._gtld_profiles:
                continue
            tld_zone = self._get_zone(label)
            tld_zone.set_apex_nameservers(hostnames)
            self._attach_zone(tld_zone, hostnames)
            org.add_hosted_zone(tld_zone.apex)
            self._delegate(ROOT_NAME, label, hostnames, always_glue=True)
        if "net" in self._gtld_profiles:
            self._delegate("net", "gtld-servers.net", nstld_hostnames,
                           always_glue=True)
        if "com" in self._gtld_profiles:
            self._delegate("com", "nstld.com", nstld_hostnames,
                           always_glue=True)

    def _build_other_gtlds(self) -> None:
        """Registries for the remaining gTLDs (org, edu, info, aero, ...)."""
        for label, profile in self._gtld_profiles.items():
            if label in ("com", "net"):
                continue
            org = Organization(name=f"nic-{label}",
                               kind=OperatorKind.GTLD_REGISTRY,
                               domain=DomainName(f"{label}nic.net"),
                               region=profile.region, hygiene=profile.hygiene)
            self._orgs.add(org)
            infra_zone = self._get_zone(org.domain)
            hostnames = []
            for index in range(profile.registry_ns_count):
                hostname = org.domain.child(f"ns{index + 1}")
                self._create_server(hostname, org, home_zone=infra_zone)
                hostnames.append(hostname)
            infra_zone.set_apex_nameservers(hostnames)
            self._attach_zone(infra_zone, hostnames)
            org.add_hosted_zone(infra_zone.apex)
            if "net" in self._gtld_profiles:
                self._delegate("net", org.domain, hostnames)

            tld_zone = self._get_zone(label)
            tld_zone.set_apex_nameservers(hostnames)
            self._attach_zone(tld_zone, hostnames)
            org.add_hosted_zone(tld_zone.apex)
            self._delegate(ROOT_NAME, label, hostnames, always_glue=True)

    def _build_cctlds(self) -> None:
        """ccTLD registries, each initially self-contained under nic.<cc>."""
        for label, profile in self._cctld_profiles.items():
            org = Organization(name=f"nic-{label}",
                               kind=OperatorKind.CCTLD_REGISTRY,
                               domain=DomainName(f"nic.{label}"),
                               region=profile.region, hygiene=profile.hygiene)
            self._orgs.add(org)
            infra_zone = self._get_zone(org.domain)
            hostnames = []
            for index in range(profile.registry_ns_count):
                hostname = org.domain.child(f"ns{index + 1}")
                self._create_server(hostname, org, home_zone=infra_zone)
                hostnames.append(hostname)
            infra_zone.set_apex_nameservers(hostnames)
            self._attach_zone(infra_zone, hostnames)
            org.add_hosted_zone(infra_zone.apex)

            tld_zone = self._get_zone(label)
            tld_zone.set_apex_nameservers(hostnames)
            self._attach_zone(tld_zone, hostnames)
            org.add_hosted_zone(tld_zone.apex)
            self._delegate(ROOT_NAME, label, hostnames, always_glue=True)
            self._delegate(label, org.domain, hostnames)

    def _build_hosting_providers(self) -> None:
        """Commercial hosting providers under .com (and a few under .net)."""
        for index in range(self.config.hosting_provider_count):
            tld = "com" if index % 5 else "net"
            if tld not in self._gtld_profiles:
                tld = next(iter(self._gtld_profiles))
            domain = DomainName(f"webhost{index + 1}.{tld}")
            org = Organization(name=f"webhost{index + 1}",
                               kind=OperatorKind.HOSTING_PROVIDER,
                               domain=domain, region="us" if index % 3 else "eu",
                               hygiene=0.35 + 0.6 * self._rng.random())
            self._orgs.add(org)
            zone = self._get_zone(domain)
            ns_count = truncated_geometric(self._rng, 0.6, 2, 4)
            hostnames = []
            for ns_index in range(ns_count):
                hostname = domain.child(f"ns{ns_index + 1}")
                self._create_server(hostname, org, home_zone=zone)
                hostnames.append(hostname)
            # A minority of providers outsource part of their own DNS to an
            # earlier provider, creating provider-to-provider chains.
            if self._providers and self._rng.random() < 0.10:
                partner = self._rng.choice(self._providers)
                if partner.nameservers:
                    hostnames.append(partner.nameservers[0])
            self._publish_zone(org, domain, hostnames, parent_apex=tld)
            self._add_web_host(zone, "www", org, category="hosting",
                               popularity=self._popularity_draw(1.2))
            self._providers.append(org)

    def _build_isps(self) -> None:
        """Regional ISPs under ccTLDs, serving local customers."""
        cctld_labels = list(self._cctld_profiles)
        if not cctld_labels:
            return
        weights = [self._cctld_profiles[label].sld_share
                   for label in cctld_labels]
        for index in range(self.config.isp_count):
            label = self._rng.choices(cctld_labels, weights=weights, k=1)[0]
            profile = self._cctld_profiles[label]
            domain = DomainName(f"isp{index + 1}.{label}")
            org = Organization(name=f"isp{index + 1}-{label}",
                               kind=OperatorKind.ISP, domain=domain,
                               region=profile.region,
                               hygiene=0.55 + 0.4 * profile.hygiene)
            self._orgs.add(org)
            zone = self._get_zone(domain)
            hostnames = []
            for ns_index in range(truncated_geometric(self._rng, 0.65, 2, 3)):
                hostname = domain.child(f"ns{ns_index + 1}")
                self._create_server(hostname, org, home_zone=zone)
                hostnames.append(hostname)
            self._publish_zone(org, domain, hostnames, parent_apex=label)
            self._isps.append(org)

    # -- universities -----------------------------------------------------------

    def _build_universities(self) -> None:
        """Universities with mutual-secondary webs and department zones."""
        if not self.config.university_count:
            return
        # Universities are placed under self-contained registries (US .edu or
        # ccTLDs that do not themselves lean on off-site secondaries).  This
        # keeps each secondary-exchange web's closure bounded by the web
        # itself: if universities also sat under heavily-dependent ccTLDs,
        # every web would transitively pull in every other web through the
        # TLD zones and the whole survey would collapse into one giant
        # component, which the 2004 measurements do not show.
        foreign_cctlds = [label for label, profile in
                          self._cctld_profiles.items()
                          if profile.offsite_dependency_level <= 2]
        foreign_weights = [0.3 + 0.7 * self._cctld_profiles[label].hygiene
                          for label in foreign_cctlds]
        for index in range(self.config.university_count):
            is_us = self._rng.random() < self.config.us_university_fraction \
                and "edu" in self._gtld_profiles
            if is_us:
                tld = "edu"
                profile = self._gtld_profiles["edu"]
                domain = DomainName(f"univ{index + 1}.edu")
            else:
                tld = self._rng.choices(foreign_cctlds,
                                        weights=foreign_weights, k=1)[0] \
                    if foreign_cctlds else "com"
                profile = self._tld_profile(tld)
                domain = DomainName(f"univ{index + 1}.{tld}")
            org = Organization(name=f"univ{index + 1}",
                               kind=OperatorKind.UNIVERSITY, domain=domain,
                               region=profile.region if profile else "us",
                               hygiene=0.45 + 0.45 * self._rng.random())
            self._orgs.add(org)
            zone = self._get_zone(domain)
            for ns_index in range(truncated_geometric(self._rng, 0.55, 2, 4)):
                hostname = domain.child(f"dns{ns_index + 1}")
                self._create_server(hostname, org, home_zone=zone)
            self._universities.append(org)

        self._form_university_groups()
        self._wire_university_zones()

    def _form_university_groups(self) -> None:
        """Partition universities into secondary-exchange groups."""
        shuffled = list(self._universities)
        self._rng.shuffle(shuffled)
        groups: List[List[Organization]] = []
        index = 0
        while index < len(shuffled):
            size = self._rng.choices(self.config.university_group_sizes,
                                     weights=self.config.university_group_weights,
                                     k=1)[0]
            group = shuffled[index:index + size]
            if group:
                groups.append(group)
            index += size
        self._university_groups = groups

    def _wire_university_zones(self) -> None:
        """Publish each university zone with in-house and partner NS."""
        for group in self._university_groups:
            for position, org in enumerate(group):
                partners: List[Organization] = []
                if len(group) > 1:
                    partners.append(group[(position + 1) % len(group)])
                    if len(group) > 2 and self._rng.random() < 0.5:
                        extra = self._rng.choice(group)
                        if extra is not org and extra not in partners:
                            partners.append(extra)
                # Rare cross-group link (a particularly well-connected admin).
                if self._university_groups and self._rng.random() < 0.015:
                    other_group = self._rng.choice(self._university_groups)
                    candidate = self._rng.choice(other_group)
                    if candidate is not org and candidate not in partners:
                        partners.append(candidate)
                nameservers = list(org.nameservers)
                for partner in partners:
                    if not partner.nameservers:
                        continue
                    if self._rng.random() < self.config.offsite_secondary_prob:
                        nameservers.append(partner.nameservers[0])
                tld = org.domain.tld or "edu"
                zone = self._publish_zone(org, org.domain, nameservers,
                                          parent_apex=tld)
                self._add_web_host(zone, "www", org, category="university",
                                   popularity=self._popularity_draw(2.2))
                if self._rng.random() < self.config.department_subzone_prob:
                    self._build_department_zone(org, partners)

    def _build_department_zone(self, org: Organization,
                               partners: List[Organization]) -> None:
        """A cs.<university> sub-zone, as in the paper's Figure 1."""
        department = org.domain.child("cs")
        zone = self._get_zone(department)
        dept_ns = department.child("dns")
        self._create_server(dept_ns, org, home_zone=zone)
        nameservers: List[DomainName] = [dept_ns]
        if org.nameservers:
            nameservers.append(org.nameservers[0])
        if partners and partners[0].nameservers and \
                self._rng.random() < self.config.offsite_secondary_prob:
            nameservers.append(partners[0].nameservers[0])
        zone.set_apex_nameservers(nameservers)
        self._attach_zone(zone, nameservers)
        org.add_hosted_zone(department)
        self._delegate(org.domain, department, nameservers)
        self._add_web_host(zone, "www", org, category="university",
                           popularity=self._popularity_draw(1.2))

    # -- TLD off-site augmentation -------------------------------------------------

    def _augment_tlds_with_offsite_servers(self) -> None:
        """Add off-site NS (universities, ISPs) to TLD zones that use them.

        This is the mechanism behind the paper's Figure 4: a ccTLD that
        recruits secondaries from universities around the globe drags every
        name under it into those universities' dependency webs.
        """
        profiles = list(self._gtld_profiles.items()) + \
            list(self._cctld_profiles.items())
        for label, profile in profiles:
            if profile.offsite_dependency_level <= 0:
                continue
            partners = self._pick_offsite_partners(
                profile, profile.offsite_dependency_level)
            if not partners:
                continue
            tld_zone = self._get_zone(label)
            extra_ns = []
            for partner in partners:
                if not partner.nameservers:
                    continue
                hostname = partner.nameservers[0]
                extra_ns.append(hostname)
            if not extra_ns:
                continue
            tld_zone.set_apex_nameservers(extra_ns)
            self._attach_zone(tld_zone, extra_ns)
            root_zone = self._get_zone(ROOT_NAME)
            delegation = root_zone.get_delegation(label)
            if delegation is not None:
                for hostname in extra_ns:
                    delegation.add_nameserver(hostname)

    def _pick_offsite_partners(self, profile: TLDProfile,
                               count: int) -> List[Organization]:
        """Choose the external organisations backing a TLD's off-site NS.

        Low dependency levels draw from ISPs and hosting providers (compact
        closures); higher levels recruit universities, preferring exchange
        groups whose size scales with the level so that the worst TLDs
        inherit the largest dependency webs.
        """
        partners: List[Organization] = []
        if count <= 2:
            # Low dependency levels stay compact: hosting providers live
            # under com/net, whose registry closure is small and safe.
            candidates = list(self._providers)
            self._rng.shuffle(candidates)
            return candidates[:count]

        def clean_tld(org: Organization) -> bool:
            # Prefer secondaries whose own TLD is self-contained (US .edu,
            # well-run ccTLDs); otherwise the dependency webs of different
            # TLDs merge into one giant component, which the real topology
            # does not exhibit to that degree.
            tld_profile = self._tld_profile(org.tld)
            return tld_profile is None or \
                tld_profile.offsite_dependency_level <= 2 or org.tld == "edu"

        groups = sorted(self._university_groups, key=len)
        if groups:
            # The very worst TLDs (ua, by, ...) recruit from the largest
            # exchange webs; mid-level TLDs land in mid-sized groups.
            if count >= 10:
                chosen_groups = groups[-3:]
            else:
                target_size = count * 3
                chosen_groups = [min(groups,
                                     key=lambda g: abs(len(g) - target_size))]
            members = [org for group in chosen_groups for org in group]
            preferred = [org for org in members if clean_tld(org)]
            fallback = [org for org in members if not clean_tld(org)]
            self._rng.shuffle(preferred)
            self._rng.shuffle(fallback)
            partners.extend((preferred + fallback)[:max(1, count - 2)])
        remaining = count - len(partners)
        if remaining > 0 and self._providers:
            extras = list(self._providers)
            self._rng.shuffle(extras)
            partners.extend(extras[:remaining])
        return partners

    # -- generic second-level domains ------------------------------------------------

    def _build_generic_slds(self) -> None:
        """Enterprises, government, non-profits, and provider-hosted SLDs."""
        tld_labels = list(self._gtld_profiles) + list(self._cctld_profiles)
        # .edu is populated by the university builder, not the generic pool.
        tld_labels = [label for label in tld_labels if label != "edu"]
        weights = [self._tld_profile(label).sld_share for label in tld_labels]
        names_per_sld = max(1.0, self.config.directory_name_count /
                            max(1, self.config.sld_count))

        for index in range(self.config.sld_count):
            roll = self._rng.random()
            if roll < self.config.government_fraction and \
                    "gov" in self._gtld_profiles:
                self._build_government_sld(index)
            elif roll < self.config.government_fraction + \
                    self.config.nonprofit_fraction and \
                    "org" in self._gtld_profiles:
                self._build_nonprofit_sld(index)
            else:
                tld = self._rng.choices(tld_labels, weights=weights, k=1)[0]
                is_enterprise = self._rng.random() < self.config.enterprise_fraction
                if is_enterprise:
                    self._build_enterprise_sld(index, tld, names_per_sld)
                else:
                    self._build_hosted_sld(index, tld, names_per_sld)

    def _choose_provider(self, region: Optional[str] = None) -> Organization:
        """Pick a hosting provider, Zipf-biased toward the big ones.

        The exponent is kept moderate so the market has clear leaders (whose
        servers become the high-value targets of Figure 8) without a single
        provider's hygiene dominating every survey-wide statistic.
        """
        if self._provider_sampler is None or \
                self._provider_sampler.n != len(self._providers):
            self._provider_sampler = ZipfSampler(len(self._providers),
                                                 exponent=0.6)
        return self._providers[self._provider_sampler.sample_index(self._rng)]

    def _choose_isp(self, tld: str) -> Optional[Organization]:
        """Pick an ISP in the same ccTLD, if one exists."""
        local = [isp for isp in self._isps if isp.domain.tld == tld]
        if not local:
            return None
        return self._rng.choice(local)

    def _build_hosted_sld(self, index: int, tld: str,
                          names_per_sld: float) -> None:
        """A small organisation: DNS at a provider/ISP, or run in-house.

        Roughly :attr:`GeneratorConfig.self_hosted_small_fraction` of these
        sites run their own two nameservers (the dominant 2004 pattern for
        small sites), optionally with one provider secondary; the rest are
        fully hosted.  Self-hosted sites are the population whose entire
        bottleneck is a single, often sloppy, organisation.
        """
        domain = DomainName(f"site{index + 1}.{tld}")
        profile = self._tld_profile(tld)
        host_org: Optional[Organization] = None
        if profile and profile.kind == "cctld" and self._rng.random() < 0.6:
            host_org = self._choose_isp(tld)
        if host_org is None:
            host_org = self._choose_provider()
        owner = Organization(name=f"site{index + 1}",
                             kind=OperatorKind.SMALL_BUSINESS, domain=domain,
                             region=profile.region if profile else "us",
                             hygiene=0.45 + 0.4 * self._rng.random())
        self._orgs.add(owner)

        self_hosted = self._rng.random() < self.config.self_hosted_small_fraction
        if profile is not None and profile.hygiene <= 0.1:
            # The .ws-style communities run everything themselves.
            self_hosted = True
        if self_hosted:
            zone = self._get_zone(domain)
            nameservers = []
            for ns_index in range(2):
                hostname = domain.child(f"ns{ns_index + 1}")
                self._create_server(hostname, owner, home_zone=zone)
                nameservers.append(hostname)
            if self._rng.random() < 0.4 and host_org.nameservers:
                nameservers.append(host_org.nameservers[0])
            zone = self._publish_zone(owner, domain, nameservers,
                                      parent_apex=tld)
        else:
            nameservers = list(host_org.nameservers[:2]) or host_org.nameservers
            zone = self._publish_zone(host_org, domain, nameservers,
                                      parent_apex=tld)

        boost = 1.0
        if profile and profile.kind == "cctld" and self._rng.random() < 0.15:
            # A minority of foreign sites are genuinely popular worldwide,
            # which is how large-TCB names enter the Alexa-style cohort.
            boost = 5.0
        popularity = self._popularity_draw(boost)
        self._add_web_host(zone, "www", owner, category="small-business",
                           popularity=popularity)
        self._maybe_add_extra_hosts(zone, owner, "small-business",
                                    names_per_sld, popularity)

    def _build_enterprise_sld(self, index: int, tld: str,
                              names_per_sld: float) -> None:
        """A self-hosting enterprise, possibly spread over two providers."""
        domain = DomainName(f"corp{index + 1}.{tld}")
        profile = self._tld_profile(tld)
        org = Organization(name=f"corp{index + 1}",
                           kind=OperatorKind.ENTERPRISE, domain=domain,
                           region=profile.region if profile else "us",
                           hygiene=0.6 + 0.35 * self._rng.random())
        # Larger enterprises keep their BIND fleets more current.
        org.hygiene = min(1.0, org.hygiene + 0.1)
        self._orgs.add(org)
        zone = self._get_zone(domain)
        nameservers: List[DomainName] = []
        for ns_index in range(truncated_geometric(self._rng, 0.5, 2, 4)):
            hostname = domain.child(f"ns{ns_index + 1}")
            self._create_server(hostname, org, home_zone=zone)
            nameservers.append(hostname)
        provider = self._choose_provider()
        nameservers.append(provider.nameservers[0])
        multi_provider = self._rng.random() < self.config.multi_provider_prob
        if multi_provider:
            # Popular enterprises spread their delegation across additional
            # independent providers for resilience — the behaviour the paper
            # identifies as the reason the Alexa cohort has *larger* TCBs.
            extra_providers = 0
            for _ in range(2):
                second = self._choose_provider()
                if second is not provider and second.nameservers and \
                        second.nameservers[0] not in nameservers:
                    nameservers.append(second.nameservers[0])
                    extra_providers += 1
        self._publish_zone(org, domain, nameservers, parent_apex=tld)
        boost = 3.5 if multi_provider else 1.6
        popularity = self._popularity_draw(boost)
        self._add_web_host(zone, "www", org, category="enterprise",
                           popularity=popularity)
        self._maybe_add_extra_hosts(zone, org, "enterprise",
                                    names_per_sld + 1, popularity)

    def _build_government_sld(self, index: int) -> None:
        """A .gov agency; many outsource DNS to commercial providers."""
        domain = DomainName(f"agency{index + 1}.gov")
        org = Organization(name=f"agency{index + 1}",
                           kind=OperatorKind.GOVERNMENT, domain=domain,
                           region="us", hygiene=0.75)
        self._orgs.add(org)
        zone = self._get_zone(domain)
        nameservers: List[DomainName] = []
        if self._rng.random() < 0.5:
            for ns_index in range(2):
                hostname = domain.child(f"ns{ns_index + 1}")
                self._create_server(hostname, org, home_zone=zone)
                nameservers.append(hostname)
        provider = self._choose_provider()
        nameservers.extend(provider.nameservers[:2])
        self._publish_zone(org, domain, nameservers, parent_apex="gov")
        self._add_web_host(zone, "www", org, category="government",
                           popularity=self._popularity_draw(1.8))

    def _build_nonprofit_sld(self, index: int) -> None:
        """A .org non-profit; some are served by friendly universities."""
        domain = DomainName(f"nonprofit{index + 1}.org")
        org = Organization(name=f"nonprofit{index + 1}",
                           kind=OperatorKind.NONPROFIT, domain=domain,
                           region="us", hygiene=0.6)
        self._orgs.add(org)
        zone = self._get_zone(domain)
        nameservers: List[DomainName] = []
        if self._universities and self._rng.random() < 0.4:
            host = self._rng.choice(self._universities)
            nameservers.extend(host.nameservers[:2])
        else:
            provider = self._choose_provider()
            nameservers.extend(provider.nameservers[:2])
        if self._rng.random() < 0.3:
            hostname = domain.child("ns1")
            self._create_server(hostname, org, home_zone=zone)
            nameservers.append(hostname)
        self._publish_zone(org, domain, nameservers, parent_apex="org")
        self._add_web_host(zone, "www", org, category="nonprofit",
                           popularity=self._popularity_draw(1.0))

    def _maybe_add_extra_hosts(self, zone: Zone, org: Organization,
                               category: str, names_per_sld: float,
                               base_popularity: float) -> None:
        """Popular organisations publish more than one externally-visible host."""
        extra_labels = ("mail", "shop", "news", "login", "static", "images")
        expected_extra = max(0.0, names_per_sld - 1.0)
        probability = min(0.9, expected_extra / len(extra_labels))
        for label in extra_labels:
            if self._rng.random() < probability:
                self._add_web_host(zone, label, org, category=category,
                                   popularity=base_popularity *
                                   self._rng.uniform(0.3, 0.8))
