"""A seeded churn model: the world mutations that make trust change hands.

The paper's central claim is longitudinal: a name's trusted computing base
is not a fact about the name but about *this month's* Internet — zones get
re-delegated when their owners switch registrars or hosting providers,
servers die and are replaced, operators upgrade (or downgrade) BIND, boxes
move between data centres, and DNSSEC deployment creeps monotonically
forward.  :class:`ChurnModel` turns that story into a reproducible workload:
each epoch it draws a configurable number of events from each class and
applies them through a :class:`~repro.topology.changes.ChangeJournal`, so
the survey engine's delta path (:meth:`SurveyEngine.run_delta`) can re-survey
exactly what each epoch invalidated.

Determinism is a hard contract: the same ``seed`` and :class:`ChurnRates`
over the same synthetic Internet produce the *identical* sequence of journal
events, epoch after epoch — candidate pools are iterated in sorted order and
every random draw comes from one private :class:`random.Random`.  That is
what makes a churn timeline a reproducible experiment rather than a demo.

Event classes (all rates are *expected events per epoch*; fractional rates
are realised by stochastic rounding, so e.g. ``death=0.25`` kills a server
roughly every fourth epoch):

``transfer``
    Registrar / provider transfer: a second-level-or-deeper zone's NS set is
    re-pointed wholesale at another operator's nameservers (hosting
    providers and ISPs take transfers, mirroring the paper's "most valuable
    nameservers" concentration).
``death``
    Server death and replacement: a box is decommissioned; its operator
    brings up a replacement (same software, fresh hostname and address) and
    every zone the dead server carried is re-delegated to include the
    replacement first.
``upgrade`` / ``downgrade``
    Software churn: a server's ``version.bind`` banner moves to a modern,
    patched BIND or regresses to a vulnerable one (an admin restoring an
    old image — the mechanism behind the paper's 17 % vulnerable servers).
``region``
    Region migration: a server moves to another geographic region (the
    availability model's correlated-failure domain).
``dnssec``
    Monotone DNSSEC adoption: the target signed fraction grows by the rate
    each epoch (capped at 1.0) and the extension is deployed through the
    journal — signing is additive, so the fraction never shrinks.
"""

from __future__ import annotations

import bisect
import dataclasses
import operator
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dns.name import DomainName, name_key
from repro.topology.changes import ChangeEvent, ChangeJournal, ServedIndex
from repro.topology.operators import OperatorKind, Organization

#: Hostname / zone suffixes the churn model never touches: mutating the
#: root or gTLD registry infrastructure would dirty the whole directory
#: every epoch and drown the longitudinal signal in re-survey noise.
INFRASTRUCTURE_SUFFIXES: Tuple[str, ...] = ("root-servers.net",
                                            "gtld-servers.net")

#: Banners an ``upgrade`` event can install (patched, non-compromisable).
UPGRADE_BANNERS: Tuple[str, ...] = ("BIND 9.2.3", "BIND 9.3.0", "BIND 8.4.5")

#: Banners a ``downgrade`` event can regress to (well-documented holes).
DOWNGRADE_BANNERS: Tuple[str, ...] = ("BIND 8.2.2-P5", "BIND 8.3.1",
                                      "BIND 4.9.6")

#: Regions a ``region`` event can move a server between.
MIGRATION_REGIONS: Tuple[str, ...] = ("us", "eu", "asia", "oceania", "latam")

#: Operator kinds that accept registrar / provider transfers.
TRANSFER_TARGET_KINDS: Tuple[OperatorKind, ...] = (
    OperatorKind.HOSTING_PROVIDER, OperatorKind.ISP)

#: Operator kinds whose *home* zones never transfer: re-delegating a
#: hosting provider's (or registry's, or exchange-web university's) own
#: domain re-points the infrastructure every customer chain runs through —
#: a quasi-global event, not the long-tail registrar churn this models.
#: Enterprises, small businesses, and the like do transfer.
PINNED_HOME_ZONE_KINDS: Tuple[OperatorKind, ...] = (
    OperatorKind.ROOT, OperatorKind.GTLD_REGISTRY,
    OperatorKind.CCTLD_REGISTRY, OperatorKind.HOSTING_PROVIDER,
    OperatorKind.ISP, OperatorKind.UNIVERSITY)

#: A server serving more than this many zones is "too big to die": its
#: death would re-delegate every customer zone it carries in one epoch.
#: Long-tail boxes (self-hosted sites, university departments) stay mortal.
DEFAULT_DEATH_FANOUT_LIMIT = 6


@dataclasses.dataclass(frozen=True)
class ChurnRates:
    """Expected events per epoch for each churn class.

    ``dnssec`` is the odd one out: it is not an event count but the
    per-epoch *increment* of the target signed-zone fraction (0.05 means
    deployment grows five percentage points per epoch until saturated).
    """

    transfer: float = 1.0
    death: float = 0.5
    upgrade: float = 2.0
    downgrade: float = 0.5
    region: float = 1.0
    dnssec: float = 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` on negative or nonsensical rates."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"churn rate {field.name} must be >= 0, "
                                 f"got {value}")
        if self.dnssec > 1.0:
            raise ValueError("dnssec rate is a per-epoch fraction increment "
                             f"and must be <= 1.0, got {self.dnssec}")

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for timeline metadata."""
        return {field.name: float(getattr(self, field.name))
                for field in dataclasses.fields(self)}

    @classmethod
    def parse(cls, text: Optional[str]) -> "ChurnRates":
        """Parse the CLI form ``transfer=2,death=0.5,dnssec=0.05``.

        Unmentioned classes keep their defaults; an empty / ``None`` spec
        yields the default rates.
        """
        if not text or not text.strip():
            return cls()
        known = {field.name for field in dataclasses.fields(cls)}
        overrides: Dict[str, float] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, separator, value = item.partition("=")
            key = key.strip()
            if not separator:
                raise ValueError(f"malformed churn rate {item!r} "
                                 f"(expected class=rate)")
            if key not in known:
                raise ValueError(f"unknown churn class {key!r} "
                                 f"(expected one of {sorted(known)})")
            try:
                overrides[key] = float(value)
            except ValueError:
                raise ValueError(f"churn rate for {key!r} must be a number, "
                                 f"got {value!r}") from None
        rates = cls(**overrides)
        rates.validate()
        return rates


class ChurnModel:
    """Draws one epoch's worth of world mutations at a time.

    The model owns the evolution state that must persist across epochs: the
    RNG stream, the replacement-server counter, and the current DNSSEC
    target fraction.  It never touches the world directly — every mutation
    goes through the :class:`~repro.topology.changes.ChangeJournal` handed
    to :meth:`advance`, which is what keeps each epoch's footprint
    consumable by the delta engine.

    ``initial_dnssec`` must match the fraction the survey engine's ``dnssec``
    pass (if any) was configured with, so the first adoption step extends
    the deployment instead of replaying it; ``dnssec_seed`` and
    ``dnssec_sign_tlds`` likewise (see
    :func:`repro.core.timeline.dnssec_spec_options`, which extracts all
    three from a pass configuration).
    """

    def __init__(self, internet, rates: Optional[ChurnRates] = None,
                 seed: int = 0, initial_dnssec: float = 0.0,
                 dnssec_seed: str = "repro-dnssec",
                 dnssec_sign_tlds: bool = True,
                 death_fanout_limit: int = DEFAULT_DEATH_FANOUT_LIMIT):
        self.internet = internet
        self.rates = rates or ChurnRates()
        self.rates.validate()
        self.death_fanout_limit = death_fanout_limit
        # A string seed: random.Random hashes non-str/int seeds with the
        # interpreter's (PYTHONHASHSEED-salted) hash, which would break
        # cross-run determinism; str seeding is version-2 stable.
        self.rng = random.Random(f"churn-{seed}")
        self.seed = seed
        self.epoch_index = 0
        self.dnssec_fraction = initial_dnssec
        self.dnssec_seed = dnssec_seed
        self.dnssec_sign_tlds = dnssec_sign_tlds
        self._replacement_counter = 0
        #: The infrastructure suffixes' labels, and their lengths: a name
        #: lies under one when its labels end with it.
        self._infrastructure = frozenset(DomainName(suffix).labels
                                         for suffix in INFRASTRUCTURE_SUFFIXES)
        self._infrastructure_depths = sorted(
            {len(labels) for labels in self._infrastructure})
        # Candidate pools, built here from the world's served-zones index
        # (attached now, and kept current by every journal since) and
        # kept current from its change handle (see _refresh_pools), so
        # every epoch, the first included, re-checks only what changed.
        self._watched: Optional[ServedIndex] = None
        self._changes = None
        self._backbone_zones: Set[DomainName] = set()
        self._backbone: Set[DomainName] = set()
        self._transferable: List[DomainName] = []
        self._operators: List[Organization] = []
        self._mortal: List[DomainName] = []
        self._mutable: List[DomainName] = []
        self._refresh_pools(ServedIndex.attach(internet))

    # -- epoch driver ------------------------------------------------------------------

    def advance(self, journal: ChangeJournal) -> List[ChangeEvent]:
        """Apply one epoch of churn through ``journal``; returns its events.

        Event classes run in a fixed order (transfers, deaths, upgrades,
        downgrades, region moves, DNSSEC) and candidate pools are sorted,
        so the event sequence is a pure function of the model's seed,
        rates, and the world state evolved so far.
        """
        self.epoch_index += 1
        before = len(journal.events)
        # Candidate pools are drawn once per epoch from the served-zones
        # index: events applied later in the same epoch can go slightly
        # stale against them, which only shifts *selection*
        # (deterministically); mutation correctness always checks the
        # live world (see _kill_and_replace_server).
        self._refresh_pools(ServedIndex.attach(self.internet))
        for _ in range(self._draw_count(self.rates.transfer)):
            self._transfer_zone(journal, self._transferable, self._operators)
        for _ in range(self._draw_count(self.rates.death)):
            self._kill_and_replace_server(journal, self._mortal)
        for _ in range(self._draw_count(self.rates.upgrade)):
            self._change_software(journal, UPGRADE_BANNERS, self._mutable)
        for _ in range(self._draw_count(self.rates.downgrade)):
            self._change_software(journal, DOWNGRADE_BANNERS, self._mutable)
        for _ in range(self._draw_count(self.rates.region)):
            self._migrate_region(journal, self._mutable)
        self._advance_dnssec(journal)
        return list(journal.events[before:])

    def _draw_count(self, rate: float) -> int:
        """Stochastic rounding: E[count] == rate, deterministic per stream."""
        base = int(rate)
        remainder = rate - base
        if remainder > 0 and self.rng.random() < remainder:
            base += 1
        return base

    # -- candidate pools ---------------------------------------------------------------

    def _is_infrastructure(self, name: DomainName) -> bool:
        labels = name.labels
        for depth in self._infrastructure_depths:
            if labels[-depth:] in self._infrastructure:
                return True
        return False

    def _refresh_pools(self, served: ServedIndex) -> None:
        """Bring the candidate pools up to the world as it is now.

        The first call (from the constructor) builds every pool from a
        full scan, as does a call with a served index the pools were not
        built from.  Later calls re-check only what the served index saw
        change since the last one — the zones whose NS union changed or that were created, the
        hosts whose served zones changed, servers brought online, and the
        home zones of operators whose nameserver list changed (which
        decides pinning) — inserting or removing in sorted position.  A
        changed backbone moves every pool's eligibility, so it rebuilds
        them all.
        """
        if self._watched is not served:
            self._watched, self._changes = served, served.watch()
            self._backbone_zones = {apex for apex in self.internet.zones
                                    if self._is_backbone_zone(apex)}
            self._rebuild_pools(served)
            return
        apexes, hosts = self._changes.apexes, self._changes.hosts
        self._changes.apexes, self._changes.hosts = set(), set()
        grown = {apex for apex in apexes if self._is_backbone_zone(apex)}
        if grown:
            self._backbone_zones |= grown
            if self._backbone_hosts(served) != self._backbone:
                self._rebuild_pools(served)
                return
        zones = self.internet.zones
        organizations = getattr(self.internet, "organizations", None)
        for apex in apexes:
            _place(self._transferable, apex, name_key, apex in zones and
                   self._is_transferable(served, apex))
            owner = organizations.by_domain(apex) \
                if organizations is not None else None
            if owner is not None:
                _place(self._operators, owner, _ORG_KEY,
                       self._is_transfer_operator(owner))
        servers = self.internet.servers
        for hostname in hosts:
            mortal, mutable = self._server_roles(served, hostname) \
                if hostname in servers else (False, False)
            _place(self._mortal, hostname, name_key, mortal)
            _place(self._mutable, hostname, name_key, mutable)

    def _rebuild_pools(self, served: ServedIndex) -> None:
        """Every candidate pool from a full scan of the world."""
        self._backbone = self._backbone_hosts(served)
        self._transferable = sorted(
            (apex for apex in self.internet.zones
             if self._is_transferable(served, apex)), key=name_key)
        organizations = getattr(self.internet, "organizations", None)
        self._operators = [] if organizations is None else sorted(
            (org for kind in TRANSFER_TARGET_KINDS
             for org in organizations.of_kind(kind)
             if self._is_transfer_operator(org)), key=_ORG_KEY)
        mortal: List[DomainName] = []
        mutable: List[DomainName] = []
        for hostname in self.internet.servers:
            can_die, can_change = self._server_roles(served, hostname)
            if can_change:
                mutable.append(hostname)
                if can_die:
                    mortal.append(hostname)
        self._mortal = sorted(mortal, key=name_key)
        self._mutable = sorted(mutable, key=name_key)

    def _is_backbone_zone(self, apex: DomainName) -> bool:
        """The root, a TLD, or an infrastructure zone."""
        return apex.depth <= 1 or self._is_infrastructure(apex)

    def _backbone_hosts(self, served: ServedIndex) -> Set[DomainName]:
        """Hosts carrying root/TLD/registry infrastructure this epoch.

        Every server in the NS union of the root, a TLD, or an
        infrastructure zone.  Catches boxes the suffix list alone cannot:
        e.g. the nstld.com servers backing the gtld-servers.net zone sit
        under an innocuous apex but every com/net chain runs through them.
        """
        return {hostname for apex in self._backbone_zones
                for hostname in served.union(apex)}

    def _is_transferable(self, served: ServedIndex,
                         apex: DomainName) -> bool:
        """A second-level-or-deeper zone eligible for a registrar transfer.

        Infrastructure zones, zones on backbone servers (their NS union
        touches root/TLD/registry serving), and the home zones of
        :data:`PINNED_HOME_ZONE_KINDS` operators are pinned; everything
        else — hosted customer sites, enterprises, government and
        non-profit zones, delegated departments — is in play.
        """
        if apex.depth < 2 or self._is_infrastructure(apex):
            return False
        backbone = self._backbone
        if any(hostname in backbone for hostname in served.union(apex)):
            return False
        organizations = getattr(self.internet, "organizations", None)
        if organizations is not None:
            owner = organizations.by_domain(apex)
            if owner is not None and owner.nameservers and \
                    owner.kind in PINNED_HOME_ZONE_KINDS:
                return False
        return True

    def _server_roles(self, served: ServedIndex,
                      hostname: DomainName) -> Tuple[bool, bool]:
        """(can die, can churn software / region) for one server.

        Registry-grade infrastructure — root / gTLD boxes and any server
        carrying a root, TLD or infrastructure zone — is pinned: one
        banner flip there re-verdicts an entire TLD cohort, which is
        registry policy, not the long-tail operator churn this models,
        and its death would re-delegate a registry zone and dirty every
        name beneath it.  (Drive such events explicitly through a
        :class:`~repro.topology.changes.ChangeJournal` if you want them.)
        Boxes serving nothing — decommissioned by an earlier death event
        (``remove_server`` keeps them registered), or added but never
        delegated to — take no event slots: nothing depends on them.
        A hosting provider's workhorse is immortal too: its death would
        re-delegate every customer zone it carries, so only boxes serving
        at most ``death_fanout_limit`` zones can die.
        """
        zones = served.zones_of(hostname)
        if not zones or hostname in self._backbone or \
                self._is_infrastructure(hostname):
            return False, False
        return len(zones) <= self.death_fanout_limit, True

    @staticmethod
    def _is_transfer_operator(organization: Organization) -> bool:
        """An operator that takes transfers: a hosting provider or ISP
        running at least one nameserver."""
        return organization.kind in TRANSFER_TARGET_KINDS and \
            bool(organization.nameservers)

    # -- event classes -----------------------------------------------------------------

    def _transfer_zone(self, journal: ChangeJournal,
                       zones: Sequence[DomainName],
                       operators: Sequence[Organization]
                       ) -> Optional[ChangeEvent]:
        """Re-point one zone's NS set at another operator (or skip)."""
        if not zones or not operators:
            return None
        apex = self.rng.choice(zones)
        target = self.rng.choice(operators)
        organizations = self.internet.organizations
        ns_union = self.internet.served_index.union(apex)
        current = organizations.operator_of(ns_union[0]) if ns_union else None
        if current is not None and current.name == target.name:
            # Transferring to the incumbent is a no-op story; skip the
            # epoch's slot rather than rerolling (rerolls would make the
            # draw count depend on pool composition).
            return None
        new_set = [DomainName(host) for host in target.nameservers[:2]]
        if not new_set:
            return None
        return journal.set_zone_nameservers(apex, new_set)

    def _kill_and_replace_server(self, journal: ChangeJournal,
                                 mortal: Sequence[DomainName]
                                 ) -> Optional[ChangeEvent]:
        """Decommission one server after bringing up its replacement."""
        if not mortal:
            return None
        victim = self.rng.choice(mortal)
        # The live served index, not the epoch-start pools: an earlier
        # event this epoch may have re-pointed a zone at the victim (a
        # zone the pools missed whose only nameserver is the victim would
        # make remove_server rightly refuse to orphan it), or already
        # killed the victim (skip the slot instead of minting a pointless
        # replacement).
        serving = self.internet.served_index.serving(victim)
        if not serving:
            return None
        server = self.internet.servers[victim]
        organizations = getattr(self.internet, "organizations", None)
        operator = organizations.operator_of(victim) \
            if organizations is not None else None
        self._replacement_counter += 1
        replacement = victim.parent().child(
            f"ns-r{self._replacement_counter}")
        if self.internet.servers.get(replacement) is not None:
            return None  # pathological namespace collision; skip the slot
        journal.add_server(replacement, software=server.software,
                           region=server.region,
                           organization=operator.name
                           if operator is not None else None)
        for apex in sorted(serving, key=name_key):
            journal.add_zone_nameserver(apex, replacement)
        return journal.remove_server(victim)

    def _change_software(self, journal: ChangeJournal,
                         banners: Sequence[str],
                         pool: Sequence[DomainName]) -> Optional[ChangeEvent]:
        """Move one server's banner to a draw from ``banners``."""
        if not pool:
            return None
        hostname = self.rng.choice(pool)
        banner = self.rng.choice(list(banners))
        if self.internet.servers[hostname].software == banner:
            return None  # already running it; a journalled no-op would
            # still dirty every dependant for nothing
        return journal.set_server_software(hostname, banner)

    def _migrate_region(self, journal: ChangeJournal,
                        pool: Sequence[DomainName]) -> Optional[ChangeEvent]:
        """Move one server to a different region."""
        if not pool:
            return None
        hostname = self.rng.choice(pool)
        current = self.internet.servers[hostname].region
        destinations = [region for region in MIGRATION_REGIONS
                        if region != current]
        return journal.move_server_region(hostname,
                                          self.rng.choice(destinations))

    def _advance_dnssec(self, journal: ChangeJournal) -> Optional[ChangeEvent]:
        """Grow the signed fraction by the per-epoch rate (monotone)."""
        if self.rates.dnssec <= 0 or self.dnssec_fraction >= 1.0:
            return None
        self.dnssec_fraction = min(1.0,
                                   self.dnssec_fraction + self.rates.dnssec)
        return journal.deploy_dnssec(fraction=self.dnssec_fraction,
                                     always_sign_tlds=self.dnssec_sign_tlds,
                                     seed=self.dnssec_seed)


#: Sort key of the transfer-operator pool.
_ORG_KEY: Callable[[Organization], str] = operator.attrgetter("name")


def _place(pool: list, item, key: Callable, member: bool) -> None:
    """Insert ``item`` into, or remove it from, the ``key``-sorted
    ``pool`` so that its membership is ``member``."""
    wanted = key(item)
    at = bisect.bisect_left(pool, wanted, key=key)
    present = at < len(pool) and key(pool[at]) == wanted
    if member and not present:
        pool.insert(at, item)
    elif present and not member:
        del pool[at]
