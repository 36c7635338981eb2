"""Shared fixtures for the test suite.

Two substrates are provided:

* ``mini_internet`` -- a small, hand-built deployment (root, two TLDs, a
  provider, a university chain, and a deliberately vulnerable server) used by
  the resolver / delegation / hijack unit tests.  Building it by hand keeps
  those tests independent of the topology generator.
* ``small_internet`` / ``small_survey`` -- a session-scoped generated
  Internet and its survey results, shared by the integration-style tests so
  the (comparatively expensive) survey runs only once.

``worker_trio`` serves three socket-backend workers from threads of the
test process, so partitioned surveys run without spawning processes.
"""

from __future__ import annotations

import dataclasses
import socket
import threading

import pytest

from repro.dns.name import DomainName
from repro.dns.rdtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.netsim.network import SimulatedNetwork
from repro.topology.generator import GeneratorConfig, InternetGenerator
from repro.core.survey import Survey


@dataclasses.dataclass
class MiniInternet:
    """A hand-built miniature DNS deployment for unit tests."""

    network: SimulatedNetwork
    root_hints: dict
    servers: dict
    zones: dict

    def make_resolver(self, **kwargs):
        """Create a resolver over this deployment."""
        from repro.dns.resolver import IterativeResolver
        return IterativeResolver(self.network, self.root_hints, **kwargs)


def _server(network, servers, hostname, address, software="BIND 9.2.3",
            operator="test", region="us"):
    server = AuthoritativeServer(hostname, addresses=[address],
                                 software=software, operator=operator,
                                 region=region)
    network.register_server(server)
    servers[DomainName(hostname)] = server
    return server


def build_mini_internet() -> MiniInternet:
    """Construct the miniature deployment used across unit tests.

    Layout (arrows are delegations)::

        .  ->  com  ->  example.com      (hosted at ns[12].hostco.com)
           ->  com  ->  hostco.com       (self-hosted, glued)
           ->  edu  ->  uni.edu          (self-hosted + offsite secondary
                                          dns1.partner.edu)
           ->  edu  ->  partner.edu      (self-hosted; dns2.partner.edu runs
                                          a vulnerable BIND 8.2.4)
        www.example.com, www.uni.edu are the externally visible names.
    """
    network = SimulatedNetwork()
    servers: dict = {}
    zones: dict = {}

    # Root.
    root_zone = Zone(".")
    rs_zone = Zone("root-servers.net")
    root_hosts = []
    for letter in ("a", "b"):
        hostname = f"{letter}.root-servers.net"
        address = f"198.41.0.{4 if letter == 'a' else 5}"
        _server(network, servers, hostname, address, operator="root-ops")
        rs_zone.add(hostname, RRType.A, address)
        root_hosts.append(hostname)
    root_zone.set_apex_nameservers(root_hosts)
    rs_zone.set_apex_nameservers(root_hosts)

    # com TLD, served by two registry servers with glue in the root.
    com_zone = Zone("com")
    com_hosts = []
    for index in (1, 2):
        hostname = f"ns{index}.gtld.net"
        address = f"192.5.6.{index * 10}"
        _server(network, servers, hostname, address, operator="gtld-registry")
        com_hosts.append(hostname)
    com_zone.set_apex_nameservers(com_hosts)
    root_zone.delegate("com", com_hosts,
                       glue={host: [servers[DomainName(host)].addresses[0]]
                             for host in com_hosts})

    # net TLD served by the same registry servers (as in reality).
    net_zone = Zone("net")
    net_zone.set_apex_nameservers(com_hosts)
    root_zone.delegate("net", com_hosts,
                       glue={host: [servers[DomainName(host)].addresses[0]]
                             for host in com_hosts})
    gtld_net_zone = Zone("gtld.net")
    for index, host in enumerate((com_hosts), start=1):
        gtld_net_zone.add(host, RRType.A,
                          servers[DomainName(host)].addresses[0])
    gtld_net_zone.set_apex_nameservers(com_hosts)
    net_zone.delegate("gtld.net", com_hosts,
                      glue={host: [servers[DomainName(host)].addresses[0]]
                            for host in com_hosts})

    # edu TLD.
    edu_zone = Zone("edu")
    edu_host = "ns1.edunic.net"
    _server(network, servers, edu_host, "192.5.7.10",
            operator="edu-registry")
    gtld_net_zone_hosts = [edu_host]
    edunic_zone = Zone("edunic.net")
    edunic_zone.add(edu_host, RRType.A, "192.5.7.10")
    edunic_zone.set_apex_nameservers([edu_host])
    net_zone.delegate("edunic.net", [edu_host],
                      glue={edu_host: ["192.5.7.10"]})
    edu_zone.set_apex_nameservers([edu_host])
    root_zone.delegate("edu", [edu_host], glue={edu_host: ["192.5.7.10"]})

    # hostco.com: a hosting provider, self-hosted with glue.
    hostco_zone = Zone("hostco.com")
    hostco_hosts = []
    for index in (1, 2):
        hostname = f"ns{index}.hostco.com"
        address = f"10.1.0.{index}"
        _server(network, servers, hostname, address, operator="hostco",
                software="BIND 9.2.3" if index == 1 else "BIND 8.2.3")
        hostco_zone.add(hostname, RRType.A, address)
        hostco_hosts.append(hostname)
    hostco_zone.set_apex_nameservers(hostco_hosts)
    hostco_zone.add("www.hostco.com", RRType.A, "10.1.0.80")
    com_zone.delegate("hostco.com", hostco_hosts,
                      glue={host: [servers[DomainName(host)].addresses[0]]
                            for host in hostco_hosts})

    # example.com: hosted at hostco.
    example_zone = Zone("example.com")
    example_zone.set_apex_nameservers(hostco_hosts)
    example_zone.add("www.example.com", RRType.A, "10.2.0.80")
    example_zone.add("alias.example.com", RRType.CNAME, "www.example.com")
    com_zone.delegate("example.com", hostco_hosts)

    # partner.edu: self-hosted; dns2 runs a vulnerable BIND.
    partner_zone = Zone("partner.edu")
    partner_hosts = []
    for index in (1, 2):
        hostname = f"dns{index}.partner.edu"
        address = f"10.3.0.{index}"
        software = "BIND 9.2.3" if index == 1 else "BIND 8.2.4"
        _server(network, servers, hostname, address, operator="partner-univ",
                software=software)
        partner_zone.add(hostname, RRType.A, address)
        partner_hosts.append(hostname)
    partner_zone.set_apex_nameservers(partner_hosts)
    partner_zone.add("www.partner.edu", RRType.A, "10.3.0.80")
    edu_zone.delegate("partner.edu", partner_hosts,
                      glue={host: [servers[DomainName(host)].addresses[0]]
                            for host in partner_hosts})

    # uni.edu: self-hosted plus an off-site secondary at partner.edu.
    uni_zone = Zone("uni.edu")
    uni_hosts = []
    for index in (1, 2):
        hostname = f"dns{index}.uni.edu"
        address = f"10.4.0.{index}"
        _server(network, servers, hostname, address, operator="uni")
        uni_zone.add(hostname, RRType.A, address)
        uni_hosts.append(hostname)
    uni_ns = uni_hosts + ["dns1.partner.edu"]
    uni_zone.set_apex_nameservers(uni_ns)
    uni_zone.add("www.uni.edu", RRType.A, "10.4.0.80")
    edu_zone.delegate("uni.edu", uni_ns,
                      glue={host: [servers[DomainName(host)].addresses[0]]
                            for host in uni_hosts})

    # Attach zones to the servers that are authoritative for them.
    def attach(zone, hostnames):
        zones[zone.apex] = zone
        for hostname in hostnames:
            servers[DomainName(hostname)].add_zone(zone)

    attach(root_zone, root_hosts)
    attach(rs_zone, root_hosts)
    attach(com_zone, com_hosts)
    attach(net_zone, com_hosts)
    attach(gtld_net_zone, com_hosts)
    attach(edu_zone, [edu_host])
    attach(edunic_zone, [edu_host])
    attach(hostco_zone, hostco_hosts)
    attach(example_zone, hostco_hosts)
    attach(partner_zone, partner_hosts)
    attach(uni_zone, uni_hosts + ["dns1.partner.edu"])

    root_hints = {host: [servers[DomainName(host)].addresses[0]]
                  for host in root_hosts}
    return MiniInternet(network=network, root_hints=root_hints,
                        servers=servers, zones=zones)


@pytest.fixture
def mini_internet() -> MiniInternet:
    """A fresh hand-built miniature Internet for each test."""
    return build_mini_internet()


#: Generator configuration used by the shared generated fixtures: small
#: enough to build and survey in a few seconds, large enough to exercise
#: every topology feature (universities, ccTLDs, anecdotes, providers).
SMALL_CONFIG = GeneratorConfig(
    seed=20040722, sld_count=220, directory_name_count=380,
    hosting_provider_count=12, isp_count=10, university_count=45,
    alexa_count=60)


@pytest.fixture(scope="session")
def small_internet():
    """A session-scoped generated synthetic Internet."""
    return InternetGenerator(SMALL_CONFIG).generate()


@pytest.fixture(scope="session")
def small_survey(small_internet):
    """Survey results over the session-scoped synthetic Internet."""
    survey = Survey(small_internet, popular_count=60)
    return survey.run()


@pytest.fixture
def worker_trio():
    """Three WorkerServers on loopback, each served from a thread.

    Teardown sends SHUTDOWN to every worker still serving, since a test
    may leave some without a coordinator to stop them."""
    from repro.distrib import WireError
    from repro.distrib.wire import (FRAME_SHUTDOWN, parse_address,
                                    recv_frame, send_frame)
    from repro.distrib.worker import WorkerServer
    servers = [WorkerServer() for _ in range(3)]
    threads = [threading.Thread(target=server.serve_forever, daemon=True)
               for server in servers]
    for thread in threads:
        thread.start()
    yield [server.address for server in servers]
    for server, thread in zip(servers, threads):
        if not thread.is_alive():
            continue
        try:
            with socket.create_connection(parse_address(server.address),
                                          timeout=5.0) as connection:
                send_frame(connection, FRAME_SHUTDOWN)
                recv_frame(connection, timeout=5.0)
        except (OSError, WireError):
            pass  # it stopped between the check and the connect
    for thread in threads:
        thread.join(timeout=5)
