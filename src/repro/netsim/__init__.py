"""Network substrate: hosts, addressing, transport, latency, and failures.

The DNS substrate needs something to carry queries between a resolver and
authoritative servers.  :class:`~repro.netsim.network.SimulatedNetwork`
provides that transport: it registers hosts (nameservers) under their IP
addresses and hostnames, delivers query messages to them, models per-region
latency, advances a simulated clock, and supports failure injection (downed
servers, partitioned regions, saturating DoS) used by the what-if analyses.
"""

from repro._lazy import lazy_exports

__all__ = [
    "IPv4Allocator",
    "is_valid_ipv4",
    "LatencyModel",
    "REGION_RTT_MS",
    "SimulatedNetwork",
    "NetworkStats",
    "FailureInjector",
    "FailureScenario",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.netsim.ip": ("IPv4Allocator", "is_valid_ipv4"),
    "repro.netsim.latency": ("LatencyModel", "REGION_RTT_MS"),
    "repro.netsim.network": ("SimulatedNetwork", "NetworkStats"),
    "repro.netsim.failures": ("FailureInjector", "FailureScenario"),
})
