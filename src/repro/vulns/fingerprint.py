"""Fingerprinting nameserver software over the network.

The survey collected version information "for nameservers using BIND, where
possible" by issuing ``version.bind`` TXT queries in the CHAOS class.  The
:class:`Fingerprinter` does exactly that against the simulated network, so
the analysis pipeline never peeks at server objects directly — it learns
versions the same way the paper did, including the cases where servers hide
their banner or are unreachable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.dns.errors import ServerFailureError
from repro.dns.message import make_query
from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import RCode, RRClass, RRType
from repro.dns.server import VERSION_BIND
from repro.vulns.bindversion import BindVersion, FingerprintResult
from repro.vulns.database import VulnerabilityDatabase


class Fingerprinter:
    """Collects ``version.bind`` banners and matches them to known holes.

    Parameters
    ----------
    network:
        The :class:`~repro.netsim.network.SimulatedNetwork` to query.
    database:
        Vulnerability catalogue used to annotate results.  ``None`` skips
        annotation (banners only).
    """

    def __init__(self, network, database: Optional[VulnerabilityDatabase] = None):
        self.network = network
        self.database = database
        self._results: Dict[DomainName, FingerprintResult] = {}

    def fingerprint(self, hostname: NameLike) -> FingerprintResult:
        """Fingerprint one server (cached per hostname)."""
        if not isinstance(hostname, DomainName):
            hostname = DomainName(hostname)
        cached = self._results.get(hostname)
        if cached is not None:
            return cached

        banner: Optional[str] = None
        reachable = True
        query = make_query(VERSION_BIND, RRType.TXT, RRClass.CH)
        try:
            response = self.network.send_query(hostname, query)
        except ServerFailureError:
            reachable = False
        else:
            if response.rcode is RCode.NOERROR and response.answers:
                banner = str(response.answers[0].rdata)

        version = BindVersion.parse(banner)
        vulnerabilities: List[str] = []
        if self.database is not None and banner is not None:
            vulnerabilities = self.database.exploit_names(banner)
        result = FingerprintResult(hostname=hostname, banner=banner,
                                   version=version, reachable=reachable,
                                   vulnerabilities=vulnerabilities)
        self._results[hostname] = result
        return result

    def fingerprint_all(self, hostnames: Iterable[NameLike]
                        ) -> Dict[DomainName, FingerprintResult]:
        """Fingerprint every hostname and return the result map."""
        for hostname in hostnames:
            self.fingerprint(hostname)
        return dict(self._results)

    def forget(self, hostname: NameLike) -> bool:
        """Drop the cached result for one host (e.g. after it was patched).

        Returns True if a cached result existed.  The next
        :meth:`fingerprint` call re-queries the live banner — the
        incremental re-survey path uses this when a change journal reports
        a server's software changed.
        """
        return self._results.pop(DomainName(hostname), None) is not None

    def adopt(self, results: Dict[DomainName, FingerprintResult]) -> None:
        """Adopt an already-collected result map (shard folding)."""
        self._results.update(results)

    def results(self) -> Dict[DomainName, FingerprintResult]:
        """All results collected so far."""
        return dict(self._results)

    def vulnerable_hostnames(self) -> List[DomainName]:
        """Hostnames whose fingerprint matched at least one known hole."""
        return [hostname for hostname, result in self._results.items()
                if result.is_vulnerable]

    def disclosure_rate(self) -> float:
        """Fraction of fingerprinted servers that disclosed a version."""
        if not self._results:
            return 0.0
        disclosed = sum(1 for r in self._results.values() if r.disclosed)
        return disclosed / len(self._results)
