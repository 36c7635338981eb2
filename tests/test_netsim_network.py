"""Tests for :mod:`repro.netsim.network`, latency, and failure injection."""

import random

import pytest

from repro.dns.errors import ServerFailureError
from repro.dns.message import make_query
from repro.dns.name import DomainName
from repro.dns.rdtypes import RCode, RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.netsim.failures import FailureInjector, FailureScenario
from repro.netsim.latency import DEFAULT_RTT_MS, LatencyModel, REGION_RTT_MS
from repro.netsim.network import SimulatedNetwork
from repro.vulns.database import default_database


def build_network():
    network = SimulatedNetwork()
    zone = Zone("example.com")
    zone.set_apex_nameservers(["ns1.example.com"])
    zone.add("www.example.com", RRType.A, "10.0.0.80")
    zone.add("ns1.example.com", RRType.A, "10.0.0.53")
    primary = AuthoritativeServer("ns1.example.com", addresses=["10.0.0.53"],
                                  software="BIND 9.2.3", operator="example",
                                  region="us")
    primary.add_zone(zone)
    secondary = AuthoritativeServer("ns2.example.com", addresses=["10.0.0.54"],
                                    software="BIND 8.2.4", operator="example",
                                    region="eu")
    secondary.add_zone(zone)
    network.register_all([primary, secondary])
    return network, primary, secondary


# -- latency model ---------------------------------------------------------------

def test_latency_symmetric_lookup():
    model = LatencyModel(jitter_fraction=0.0)
    assert model.base_rtt("us", "eu") == model.base_rtt("eu", "us")
    assert model.base_rtt("us", "eu") == REGION_RTT_MS[("us", "eu")]


def test_latency_unknown_pair_uses_default():
    model = LatencyModel(jitter_fraction=0.0)
    assert model.base_rtt("us", "mars") == DEFAULT_RTT_MS


def test_latency_jitter_bounded():
    model = LatencyModel(jitter_fraction=0.2, rng=random.Random(1))
    base = model.base_rtt("us", "eu")
    for _ in range(100):
        sample = model.sample_rtt("us", "eu")
        assert 0.8 * base <= sample <= 1.2 * base


def test_latency_rejects_bad_jitter():
    with pytest.raises(ValueError):
        LatencyModel(jitter_fraction=1.5)


# -- host registry and transport ------------------------------------------------------

def test_find_server_by_name_and_address():
    network, primary, _secondary = build_network()
    assert network.find_server("ns1.example.com") is primary
    assert network.find_server("10.0.0.53") is primary
    assert network.find_server("missing.example.com") is None
    assert network.server_count() == 2


def test_send_query_delivers_and_charges_latency():
    network, _primary, _secondary = build_network()
    response = network.send_query("ns1.example.com",
                                  make_query("www.example.com"))
    assert response.rcode is RCode.NOERROR
    assert network.clock_ms > 0
    assert network.stats.queries_delivered == 1
    assert network.stats.mean_latency_ms > 0


def test_send_query_unknown_host_raises():
    network, _primary, _secondary = build_network()
    with pytest.raises(ServerFailureError):
        network.send_query("203.0.113.1", make_query("www.example.com"))
    assert network.stats.queries_failed == 1


def test_find_server_routes_parsed_names_by_hostname():
    network, primary, secondary = build_network()
    assert network.find_server(DomainName("ns1.example.com")) is primary
    assert network.find_server(DomainName("NS2.Example.Com.")) is secondary
    assert network.find_server(DomainName("missing.example.com")) is None
    response = network.send_query(DomainName("ns2.example.com"),
                                  make_query("www.example.com"))
    assert response.rcode is RCode.NOERROR
    assert secondary.stats.queries == 1
    assert network.stats.queries_delivered == 1


@pytest.mark.parametrize("target", ["bad..name", "not a host!", "-x-.com",
                                    "a" * 300])
def test_send_query_unparseable_target_fails_like_a_timeout(target):
    network, primary, secondary = build_network()
    assert network.find_server(target) is None
    with pytest.raises(ServerFailureError):
        network.send_query(target, make_query("www.example.com"))
    assert network.stats.queries_failed == 1
    assert network.stats.queries_delivered == 0
    assert primary.stats.queries == secondary.stats.queries == 0


def test_send_query_to_down_server_raises():
    network, primary, _secondary = build_network()
    primary.fail()
    with pytest.raises(ServerFailureError):
        network.send_query("ns1.example.com", make_query("www.example.com"))


def test_clock_advance_and_now():
    network, _primary, _secondary = build_network()
    network.advance_clock(1500.0)
    assert network.now == pytest.approx(1.5)
    with pytest.raises(ValueError):
        network.advance_clock(-1)


def test_region_and_operator_views():
    network, primary, secondary = build_network()
    assert network.servers_in_region("eu") == [secondary]
    assert set(network.servers_for_operator("example")) == {primary, secondary}


def test_vulnerable_servers_view():
    network, _primary, secondary = build_network()
    vulnerable = network.vulnerable_servers(default_database())
    assert vulnerable == [secondary]


# -- failure injection -------------------------------------------------------------------

def test_failure_injector_apply_and_revert():
    network, primary, secondary = build_network()
    injector = FailureInjector(network)
    scenario = FailureScenario(name="take-out-primary",
                               failed_servers={DomainName("ns1.example.com")})
    assert injector.apply(scenario) == 1
    assert not primary.is_up
    assert secondary.is_up
    assert injector.active_scenario is scenario
    assert injector.revert() == 1
    assert primary.is_up
    assert injector.active_scenario is None


def test_failure_injector_region_partition():
    network, primary, secondary = build_network()
    injector = FailureInjector(network)
    scenario = FailureScenario(name="eu-partition",
                               partitioned_regions={"eu"})
    injector.apply(scenario)
    assert primary.is_up
    assert not secondary.is_up
    assert injector.surviving_servers() == [primary]


def test_failure_injector_dos_single_server():
    network, primary, _secondary = build_network()
    injector = FailureInjector(network)
    assert injector.dos("ns1.example.com")
    assert not primary.is_up
    assert not injector.dos("unknown.example.com")
    injector.revert()
    assert primary.is_up


def test_fail_servers_convenience():
    network, primary, secondary = build_network()
    injector = FailureInjector(network)
    scenario = injector.fail_servers(["ns1.example.com", "ns2.example.com"])
    assert not scenario.is_empty()
    assert not primary.is_up and not secondary.is_up


def test_applying_new_scenario_reverts_previous():
    network, primary, secondary = build_network()
    injector = FailureInjector(network)
    injector.fail_servers(["ns1.example.com"], scenario_name="first")
    injector.apply(FailureScenario(
        name="second", failed_servers={DomainName("ns2.example.com")}))
    assert primary.is_up
    assert not secondary.is_up
