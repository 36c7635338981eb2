"""The simulated network: host registry, transport, and clock.

:class:`SimulatedNetwork` is the glue between resolvers and authoritative
servers.  It registers :class:`~repro.dns.server.AuthoritativeServer`
instances under their addresses and hostnames, delivers query messages to
them (raising :class:`~repro.dns.errors.ServerFailureError` for hosts that
are down or unknown, just as a timeout would manifest to a real resolver),
accumulates latency on a simulated clock, and keeps transport-level
statistics.

The network is also the registry the survey uses to enumerate "all
nameservers we discovered": every server the topology generator creates is
registered here.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional

from repro.dns.errors import NameError_, ServerFailureError
from repro.dns.message import Message
from repro.dns.name import DomainName, NameLike
from repro.dns.server import AuthoritativeServer
from repro.netsim.latency import LatencyModel


@dataclasses.dataclass
class NetworkStats:
    """Transport-level counters."""

    queries_delivered: int = 0
    queries_failed: int = 0
    total_latency_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean per-query round-trip time."""
        if not self.queries_delivered:
            return 0.0
        return self.total_latency_ms / self.queries_delivered


class SimulatedNetwork:
    """Registry of hosts plus a message transport with latency and failures.

    Parameters
    ----------
    latency_model:
        Model used to charge round-trip time to the clock.  ``None`` uses a
        default model with mild jitter.
    client_region:
        Region the resolver (survey vantage point) is assumed to sit in.
    """

    def __init__(self, latency_model: Optional[LatencyModel] = None,
                 client_region: str = "us"):
        self.latency = latency_model or LatencyModel()
        self.client_region = client_region
        self.clock_ms: float = 0.0
        self.stats = NetworkStats()
        self._servers_by_name: Dict[DomainName, AuthoritativeServer] = {}
        self._servers_by_address: Dict[str, AuthoritativeServer] = {}

    # -- host registry ---------------------------------------------------------

    def register_server(self, server: AuthoritativeServer) -> None:
        """Register a nameserver under its hostname and all its addresses."""
        self._servers_by_name[server.hostname] = server
        for address in server.addresses:
            self._servers_by_address[address] = server

    def register_all(self, servers: Iterable[AuthoritativeServer]) -> None:
        """Register many servers at once."""
        for server in servers:
            self.register_server(server)

    def find_server(self, target: NameLike) -> Optional[AuthoritativeServer]:
        """Look up a server by hostname or by IP address.

        A parsed :class:`DomainName` is a hostname and is routed by name
        as it is.  Text is tried as an address first, then parsed as a
        hostname; text that is neither routes nowhere.
        """
        if isinstance(target, DomainName):
            return self._servers_by_name.get(target)
        target_text = str(target)
        server = self._servers_by_address.get(target_text)
        if server is not None:
            return server
        try:
            return self._servers_by_name.get(DomainName(target_text))
        except NameError_:
            return None

    def server_count(self) -> int:
        """Number of distinct registered servers."""
        return len(self._servers_by_name)

    def iter_servers(self) -> Iterator[AuthoritativeServer]:
        """Iterate over all registered servers."""
        return iter(self._servers_by_name.values())

    def servers_in_region(self, region: str) -> List[AuthoritativeServer]:
        """All servers located in ``region``."""
        return [server for server in self._servers_by_name.values()
                if server.region == region]

    def servers_for_operator(self, operator: str) -> List[AuthoritativeServer]:
        """All servers run by ``operator``."""
        return [server for server in self._servers_by_name.values()
                if server.operator == operator]

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds (drives cache expiry)."""
        return self.clock_ms / 1000.0

    def advance_clock(self, milliseconds: float) -> None:
        """Manually advance the simulated clock."""
        if milliseconds < 0:
            raise ValueError("cannot move the clock backwards")
        self.clock_ms += milliseconds

    # -- transport ----------------------------------------------------------------

    def send_query(self, target: NameLike, query: Message,
                   charge_latency: bool = True) -> Message:
        """Deliver ``query`` to the server at ``target`` and return its answer.

        ``target`` may be an IP address or a hostname, as text or parsed
        (see :meth:`find_server`).  Raises
        :class:`ServerFailureError` when the host is unknown or down, which a
        resolver perceives exactly like a query timeout.
        """
        server = self.find_server(target)
        if server is None:
            self.stats.queries_failed += 1
            raise ServerFailureError(str(target), f"no route to host {target}")
        if charge_latency:
            rtt = self.latency.sample_rtt(self.client_region, server.region)
            self.clock_ms += rtt
            self.stats.total_latency_ms += rtt
        if not server.is_up:
            self.stats.queries_failed += 1
            raise ServerFailureError(
                str(server.hostname), f"query to {server.hostname} timed out")
        self.stats.queries_delivered += 1
        return server.handle_query(query)

    # -- convenience views used by the survey ----------------------------------------

    def vulnerable_servers(self, vulnerability_db) -> List[AuthoritativeServer]:
        """Servers whose software has at least one known vulnerability.

        ``vulnerability_db`` is a
        :class:`~repro.vulns.database.VulnerabilityDatabase`; the method is a
        thin convenience wrapper so survey code can stay declarative.
        """
        return [server for server in self.iter_servers()
                if server.software and
                vulnerability_db.is_vulnerable(server.software)]

    def __repr__(self) -> str:
        return (f"SimulatedNetwork({self.server_count()} servers, "
                f"clock={self.clock_ms:.0f}ms)")
