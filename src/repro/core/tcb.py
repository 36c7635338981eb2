"""Trusted computing base analysis (Figures 2-6 of the paper).

A name's TCB is the transitive closure of the nameservers reachable from
the name in its delegation graph.  This module turns a per-name view (a
:class:`~repro.core.delegation.TCBView` or
:class:`~repro.core.delegation.DelegationGraph`, whose TCB is that closure
as a bitset) plus a per-server vulnerability map into a
:class:`TCBReport`: the per-name record the survey
aggregates into the TCB-size CDF (Figure 2), the per-TLD averages (Figures 3
and 4), the vulnerable-servers-in-TCB CDF (Figure 5), and the TCB safety
percentage CDF (Figure 6).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Set

from repro.dns.name import DomainName
from repro.core.delegation import TCBView


@dataclasses.dataclass
class TCBReport:
    """Per-name trusted computing base summary.

    Attributes
    ----------
    name:
        The surveyed domain name.
    servers:
        Hostnames of every nameserver in the TCB (root servers excluded).
    in_bailiwick:
        The subset of ``servers`` administered by the name's own zone — the
        only part of the TCB the name owner directly controls.
    vulnerable:
        TCB members whose fingerprint matched at least one known exploit.
    compromisable:
        The subset of ``vulnerable`` whose exploits grant answer control
        (code execution or cache/answer corruption, not just DoS).
    """

    name: DomainName
    servers: Set[DomainName]
    in_bailiwick: Set[DomainName]
    vulnerable: Set[DomainName]
    compromisable: Set[DomainName]

    # -- sizes -------------------------------------------------------------------

    @property
    def size(self) -> int:
        """TCB size: how many nameservers the name depends on."""
        return len(self.servers)

    @property
    def in_bailiwick_count(self) -> int:
        """Number of TCB servers the name owner administers itself."""
        return len(self.in_bailiwick)

    @property
    def external_count(self) -> int:
        """Number of TCB servers outside the owner's control."""
        return self.size - self.in_bailiwick_count

    @property
    def vulnerable_count(self) -> int:
        """Number of TCB servers with at least one known vulnerability."""
        return len(self.vulnerable)

    @property
    def compromisable_count(self) -> int:
        """Number of TCB servers an attacker could take control of."""
        return len(self.compromisable)

    @property
    def safe_count(self) -> int:
        """Number of TCB servers with no known vulnerability."""
        return self.size - self.vulnerable_count

    @property
    def safety_percentage(self) -> float:
        """Percentage of the TCB with no known vulnerability (Figure 6)."""
        if not self.size:
            return 100.0
        return 100.0 * self.safe_count / self.size

    @property
    def has_vulnerable_dependency(self) -> bool:
        """True if at least one TCB member is vulnerable (Figure 5's 45 %)."""
        return bool(self.vulnerable)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation used by snapshots."""
        return {
            "name": str(self.name),
            "size": self.size,
            "in_bailiwick": self.in_bailiwick_count,
            "vulnerable": self.vulnerable_count,
            "compromisable": self.compromisable_count,
            "safety_percentage": round(self.safety_percentage, 3),
            "servers": sorted(str(s) for s in self.servers),
        }


def compute_tcb_report(graph: TCBView,
                       vulnerability_map: Optional[Mapping[DomainName, bool]] = None,
                       compromisable_map: Optional[Mapping[DomainName, bool]] = None
                       ) -> TCBReport:
    """Build a :class:`TCBReport` from a delegation graph or zero-copy view.

    Parameters
    ----------
    graph:
        The name's view: the engine's zero-copy
        :class:`~repro.core.delegation.TCBView` or a
        :class:`~repro.core.delegation.DelegationGraph`.
    vulnerability_map:
        Mapping from hostname to "has a known vulnerability".  Hostnames
        missing from the map are treated as safe — the paper's optimistic
        assumption for servers whose version could not be determined.
    compromisable_map:
        Mapping from hostname to "an exploit grants answer control".
        Defaults to the vulnerability map when omitted.
    """
    vulnerability_map = vulnerability_map or {}
    if compromisable_map is None:
        compromisable_map = vulnerability_map
    servers = graph.tcb()
    vulnerable = {host for host in servers if vulnerability_map.get(host, False)}
    compromisable = {host for host in servers
                     if compromisable_map.get(host, False)}
    return TCBReport(name=graph.target, servers=servers,
                     in_bailiwick=graph.in_bailiwick_servers(),
                     vulnerable=vulnerable, compromisable=compromisable)
