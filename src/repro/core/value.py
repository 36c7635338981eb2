"""Nameserver value analysis (Figures 8 and 9).

Section 3.3 models the value of a nameserver as the number of surveyed names
that depend on it: the servers an attacker gets the most leverage from.  The
analyzer aggregates per-name TCBs into a per-server count, ranks servers,
and provides the filtered views the paper plots — all servers, vulnerable
servers only, and servers operated out of ``.edu`` / ``.org``.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.dns.name import DomainName, NameLike


@dataclasses.dataclass
class ServerValue:
    """Value record for one nameserver."""

    hostname: DomainName
    names_controlled: int
    rank: int = 0
    vulnerable: bool = False
    operator_tld: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "hostname": str(self.hostname),
            "names_controlled": self.names_controlled,
            "rank": self.rank,
            "vulnerable": self.vulnerable,
            "operator_tld": self.operator_tld,
        }


class NameserverValueAnalyzer:
    """Aggregates per-name TCBs into nameserver value rankings."""

    def __init__(self, vulnerability_map: Optional[Mapping[DomainName, bool]] = None):
        #: host -> vulnerable; kept, not copied (read only).
        self.vulnerability_map: Mapping[DomainName, bool] = \
            {} if vulnerability_map is None else vulnerability_map
        self._counts: Dict[DomainName, int] = {}
        #: True while ``_counts`` is a caller's map (see over_counts).
        self._borrowed = False
        self._total_names = 0

    @classmethod
    def from_counts(cls, counts: Mapping[NameLike, int], total_names: int,
                    vulnerability_map: Optional[Mapping[DomainName, bool]] = None
                    ) -> "NameserverValueAnalyzer":
        """Build an analyzer from already-accumulated per-server counts.

        ``counts`` may be keyed by text or :class:`DomainName`; it is
        parsed into the analyzer's own map.
        """
        return cls.over_counts(
            {host if isinstance(host, DomainName) else DomainName(host):
             int(count) for host, count in counts.items()},
            total_names, vulnerability_map)

    @classmethod
    def over_counts(cls, counts: Dict[DomainName, int], total_names: int,
                    vulnerability_map: Optional[Mapping[DomainName, bool]] = None
                    ) -> "NameserverValueAnalyzer":
        """An analyzer reading ``counts`` in place.

        The survey engine's aggregator counts TCB membership incrementally
        while records stream in; this constructor turns that state directly
        into rankings without re-walking any per-name TCB or copying the
        map (the ``AnalysisPass.finalize`` path of the ``value`` pass).
        ``counts`` must be keyed by :class:`DomainName`; the analyzer never
        writes to it: :meth:`add_name` copies it first.
        """
        analyzer = cls(vulnerability_map)
        analyzer._counts = counts
        analyzer._borrowed = True
        analyzer._total_names = int(total_names)
        return analyzer

    # -- accumulation ---------------------------------------------------------------

    def add_name(self, tcb: Iterable[NameLike]) -> None:
        """Account one surveyed name's TCB."""
        if self._borrowed:
            self._counts, self._borrowed = dict(self._counts), False
        self._total_names += 1
        for hostname in tcb:
            hostname = DomainName(hostname)
            self._counts[hostname] = self._counts.get(hostname, 0) + 1

    def add_many(self, tcbs: Iterable[Iterable[NameLike]]) -> None:
        """Account many names at once."""
        for tcb in tcbs:
            self.add_name(tcb)

    @property
    def total_names(self) -> int:
        """How many names have been accounted."""
        return self._total_names

    @property
    def server_count(self) -> int:
        """How many distinct nameservers appear in at least one TCB."""
        return len(self._counts)

    # -- rankings ----------------------------------------------------------------------

    def ranking(self, only_vulnerable: bool = False,
                tld_filter: Optional[Sequence[str]] = None) -> List[ServerValue]:
        """Servers sorted by the number of names they control (descending).

        Parameters
        ----------
        only_vulnerable:
            Restrict to servers with a known vulnerability (the second
            series in Figure 8).
        tld_filter:
            Restrict to servers whose hostname falls under one of the given
            TLD labels (Figure 9 uses ``("edu",)`` and ``("org",)``).
        """
        values: List[ServerValue] = []
        for hostname, count in self._counts.items():
            vulnerable = self.vulnerability_map.get(hostname, False)
            if only_vulnerable and not vulnerable:
                continue
            tld = hostname.tld or ""
            if tld_filter is not None and tld not in tld_filter:
                continue
            values.append(ServerValue(hostname=hostname,
                                      names_controlled=count,
                                      vulnerable=vulnerable,
                                      operator_tld=tld))
        values.sort(key=lambda v: (-v.names_controlled, str(v.hostname)))
        for index, value in enumerate(values, start=1):
            value.rank = index
        return values

    def top_servers(self, count: int) -> List[ServerValue]:
        """``ranking()[:count]``, without ranking every server.

        The ``count`` largest name counts are found first; only the
        servers at or above the smallest of them — the ones kept, plus
        any tied with the last one kept — are ordered by hostname.
        """
        counts = self._counts
        if count <= 0 or not counts:
            return []
        floor = heapq.nlargest(count, counts.values())[-1]
        kept = [(host, names) for host, names in counts.items()
                if names >= floor]
        kept.sort(key=lambda item: (-item[1], str(item[0])))
        vulnerability_map = self.vulnerability_map
        return [ServerValue(hostname=host, names_controlled=names,
                            rank=rank,
                            vulnerable=vulnerability_map.get(host, False),
                            operator_tld=host.tld or "")
                for rank, (host, names) in enumerate(kept[:count], start=1)]

    def names_controlled(self, hostname: NameLike) -> int:
        """How many surveyed names depend on ``hostname``."""
        return self._counts.get(DomainName(hostname), 0)

    def counts(self) -> Dict[DomainName, int]:
        """A copy of the raw per-server counts."""
        return dict(self._counts)

    # -- paper statistics ---------------------------------------------------------------

    def mean_names_controlled(self) -> float:
        """Average number of names controlled per server (paper: 166)."""
        if not self._counts:
            return 0.0
        return sum(self._counts.values()) / len(self._counts)

    def median_names_controlled(self) -> float:
        """Median number of names controlled per server (paper: 4)."""
        if not self._counts:
            return 0.0
        ordered = sorted(self._counts.values())
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[middle])
        return (ordered[middle - 1] + ordered[middle]) / 2.0

    def high_leverage_servers(self, fraction: float = 0.10,
                              only_vulnerable: bool = False
                              ) -> List[ServerValue]:
        """Servers controlling more than ``fraction`` of the surveyed names.

        The paper reports ~125 such servers at the 10 % threshold, about 30
        of them gTLD infrastructure and about 12 of them vulnerable.
        """
        if not self._total_names:
            return []
        threshold = fraction * self._total_names
        return [value for value in self.ranking(only_vulnerable=only_vulnerable)
                if value.names_controlled > threshold]

    def summary(self, high_leverage_fraction: float = 0.10
                ) -> Dict[str, float]:
        """Headline statistics for reporting, in one pass over the counts.

        Every ``high_leverage_*`` key uses the same threshold (the paper's
        10% by default), so the three counts stay mutually consistent for
        any fraction; they are the servers :meth:`high_leverage_servers`
        lists, counted without ranking them.
        """
        counts = self._counts
        high = vulnerable_high = edu_high = 0
        if self._total_names:
            threshold = high_leverage_fraction * self._total_names
            vulnerability_map = self.vulnerability_map
            for hostname, names in counts.items():
                if names > threshold:
                    high += 1
                    if vulnerability_map.get(hostname, False):
                        vulnerable_high += 1
                    if hostname.tld == "edu":
                        edu_high += 1
        return {
            "servers": float(self.server_count),
            "names": float(self._total_names),
            "mean_names_controlled": self.mean_names_controlled(),
            "median_names_controlled": self.median_names_controlled(),
            "high_leverage_servers": float(high),
            "high_leverage_vulnerable": float(vulnerable_high),
            "high_leverage_edu": float(edu_high),
        }
