"""Hijack feasibility analysis and end-to-end hijack simulation.

Two layers are provided:

* :class:`HijackAnalyzer` works purely on delegation graphs plus the
  vulnerability map: it classifies a name (safe / partially hijackable /
  hijackable with one DoS / completely hijackable), and extracts a readable
  *attack path* — the dependency chain from the name to a vulnerable server,
  like the paper's fbi.gov → sprintip.com → reston-ns2.telemail.net story.

* :class:`HijackSimulator` actually carries the attack out against the
  simulated network: it compromises the chosen bottleneck servers, stands up
  a rogue nameserver, plants forged records, and re-resolves the victim name
  to check whether clients are diverted.  This closes the loop between the
  graph-level prediction and the protocol-level outcome.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.core.delegation import DelegationGraph, NS_KIND, ZONE_KIND
from repro.core.mincut import BottleneckAnalyzer, BottleneckResult

#: Classifications the paper counts as hijackable (Section 3.2): the
#: min-cut is entirely vulnerable, or one DoS away from it.  The home of
#: the taxonomy — the survey engine, DNSSEC impact analysis, and analysis
#: passes all import it from here.
HIJACKABLE_CLASSIFICATIONS: tuple = ("complete", "dos-assisted")


@dataclasses.dataclass
class AttackStep:
    """One hop in an attack-path narrative."""

    kind: str          # "name", "zone", or "ns"
    entity: DomainName
    note: str = ""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.entity} {self.note}".rstrip()


@dataclasses.dataclass
class HijackAssessment:
    """Graph-level verdict for one name."""

    name: DomainName
    classification: str  # "safe", "partial", "dos-assisted", "complete"
    bottleneck: BottleneckResult
    vulnerable_in_tcb: int
    attack_path: List[AttackStep] = dataclasses.field(default_factory=list)

    @property
    def is_hijackable(self) -> bool:
        """True if some queries for the name can be diverted."""
        return self.classification in ("partial", "dos-assisted", "complete")

    @property
    def is_completely_hijackable(self) -> bool:
        """True if every query for the name can be diverted."""
        return self.classification == "complete"


@dataclasses.dataclass
class HijackOutcome:
    """Result of a simulated hijack attempt."""

    name: DomainName
    attacker_address: str
    trials: int
    diverted: int
    compromised_servers: List[DomainName]

    @property
    def diversion_rate(self) -> float:
        """Fraction of resolutions that returned the attacker's address."""
        return self.diverted / self.trials if self.trials else 0.0

    @property
    def complete(self) -> bool:
        """True if every trial was diverted."""
        return self.trials > 0 and self.diverted == self.trials


class HijackAnalyzer:
    """Classifies names by how easily they can be hijacked."""

    def __init__(self, vulnerability_map: Optional[Mapping[DomainName, bool]] = None):
        self.vulnerability_map = dict(vulnerability_map or {})
        self._bottleneck = BottleneckAnalyzer(self.vulnerability_map,
                                              vulnerability_aware=True)

    def assess(self, graph: DelegationGraph) -> HijackAssessment:
        """Produce the hijack verdict for one delegation graph."""
        bottleneck = self._bottleneck.analyze(graph)
        vulnerable_in_tcb = sum(1 for host in graph.tcb()
                                if self.vulnerability_map.get(host, False))
        if bottleneck.fully_vulnerable:
            classification = "complete"
        elif bottleneck.one_safe_server and bottleneck.vulnerable_in_cut > 0:
            classification = "dos-assisted"
        elif vulnerable_in_tcb > 0:
            classification = "partial"
        else:
            classification = "safe"
        path = self.attack_path(graph)
        return HijackAssessment(name=graph.target,
                                classification=classification,
                                bottleneck=bottleneck,
                                vulnerable_in_tcb=vulnerable_in_tcb,
                                attack_path=path)

    def attack_path(self, graph: DelegationGraph) -> List[AttackStep]:
        """Dependency chain from the target to its nearest vulnerable server.

        Returns an empty list when the TCB has no vulnerable member.  The
        path alternates zones and nameservers and reads as a narrative:
        the name is served by zone X, whose server Y lives in zone Z, which
        is served by the vulnerable machine W.  Of the nearest vulnerable
        servers, the one that sorts first wins.
        """
        vulnerable = sorted(host for host in graph.tcb()
                            if self.vulnerability_map.get(host, False))
        if not vulnerable:
            return []
        best_nodes: List = []
        for host in vulnerable:
            nodes = graph.dependency_path(host)
            if nodes and (not best_nodes or len(nodes) < len(best_nodes)):
                best_nodes = nodes
        steps: List[AttackStep] = []
        for kind, entity in best_nodes:
            if kind == ZONE_KIND:
                note = "zone on the resolution path"
            elif kind == NS_KIND:
                vulnerable_here = self.vulnerability_map.get(entity, False)
                note = ("VULNERABLE nameserver" if vulnerable_here
                        else "nameserver")
            else:
                note = "target name"
            steps.append(AttackStep(kind=kind, entity=entity, note=note))
        return steps


class HijackSimulator:
    """Carries out a hijack against the simulated network.

    Parameters
    ----------
    internet:
        The :class:`~repro.topology.generator.SyntheticInternet` under attack.
    attacker_address:
        Address the attacker wants victims to connect to.
    """

    ROGUE_HOSTNAME = DomainName("ns.attacker.example")

    def __init__(self, internet, attacker_address: str = "203.0.113.66"):
        self.internet = internet
        self.attacker_address = attacker_address
        self._rogue: Optional[AuthoritativeServer] = None
        self._compromised: List[AuthoritativeServer] = []

    # -- attack set-up ----------------------------------------------------------------

    def _ensure_rogue_server(self, victim: DomainName) -> AuthoritativeServer:
        """Stand up (or extend) the attacker's own nameserver."""
        if self._rogue is None:
            self._rogue = AuthoritativeServer(self.ROGUE_HOSTNAME,
                                              addresses=["203.0.113.53"],
                                              software="BIND 9.2.3",
                                              operator="attacker",
                                              region="us")
            self.internet.network.register_server(self._rogue)
        # The rogue claims authority for the victim's zone and answers every
        # query for the victim with the attacker's address.
        zone_apex = victim.parent() if victim.depth > 1 else victim
        zone = Zone(zone_apex)
        zone.set_apex_nameservers([self.ROGUE_HOSTNAME])
        zone.add(victim, RRType.A, self.attacker_address)
        self._rogue.add_zone(zone)
        return self._rogue

    def compromise(self, hostnames: Iterable[NameLike],
                   victim: NameLike,
                   diverted_names: Optional[Sequence[NameLike]] = None) -> int:
        """Compromise servers and plant records diverting resolution.

        On each compromised server the attacker plants:

        * a direct forged A record for the victim name, and
        * forged A records for any ``diverted_names`` (typically the
          hostnames of the victim's legitimate nameservers) pointing at the
          rogue server, which then answers for the victim.

        Returns the number of servers actually compromised.
        """
        victim = DomainName(victim)
        rogue = self._ensure_rogue_server(victim)
        count = 0
        for hostname in hostnames:
            server = self.internet.network.find_server(hostname)
            if server is None:
                continue
            server.compromise()
            server.hijack(victim, self.attacker_address)
            for diverted in diverted_names or ():
                server.hijack(diverted, rogue.addresses[0])
            self._compromised.append(server)
            count += 1
        return count

    def restore(self) -> None:
        """Undo every compromise performed by this simulator."""
        for server in self._compromised:
            server.restore()
        self._compromised.clear()

    # -- attack execution ---------------------------------------------------------------

    def attempt(self, victim: NameLike, trials: int = 50,
                rng: Optional[random.Random] = None) -> HijackOutcome:
        """Resolve the victim repeatedly and measure the diversion rate.

        Each trial uses a fresh randomised resolver with an empty cache,
        modelling independent clients whose nameserver selection differs.
        """
        victim = DomainName(victim)
        rng = rng or random.Random(7)
        diverted = 0
        for trial in range(trials):
            resolver = self.internet.make_resolver(
                selection="random", use_glue=True)
            resolver._rng = random.Random(rng.random())
            trace = resolver.resolve(victim)
            if self.attacker_address in trace.addresses:
                diverted += 1
        return HijackOutcome(
            name=victim, attacker_address=self.attacker_address,
            trials=trials, diverted=diverted,
            compromised_servers=[s.hostname for s in self._compromised])

    def execute(self, assessment: HijackAssessment, trials: int = 50,
                diverted_names: Optional[Sequence[NameLike]] = None
                ) -> HijackOutcome:
        """Compromise the assessed bottleneck and measure the outcome."""
        self.compromise(assessment.bottleneck.cut_servers, assessment.name,
                        diverted_names=diverted_names)
        return self.attempt(assessment.name, trials=trials)
