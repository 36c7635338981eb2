"""Tests for :mod:`repro.core.hijack`: assessment, attack paths, simulation."""

import random

import networkx as nx

from repro.dns.name import DomainName
from repro.core.delegation import (
    DelegationGraph,
    DelegationGraphBuilder,
    name_node,
    ns_node,
    zone_node,
)
from repro.core.hijack import HijackAnalyzer, HijackSimulator
from repro.core.survey import Survey
from repro.topology.anecdotes import FBI_WEB_NAME
from repro.vulns.database import default_database
from repro.vulns.fingerprint import Fingerprinter


def vulnerability_map_for(mini_internet, hostnames):
    database = default_database()
    fingerprinter = Fingerprinter(mini_internet.network, database)
    result = {}
    for hostname in hostnames:
        fp = fingerprinter.fingerprint(hostname)
        result[DomainName(hostname)] = database.is_compromisable(fp.banner)
    return result


# -- graph-level assessment ------------------------------------------------------------

def test_assessment_safe_when_no_vulnerabilities(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    assessment = HijackAnalyzer({}).assess(graph)
    assert assessment.classification == "safe"
    assert not assessment.is_hijackable
    assert assessment.attack_path == []


def test_assessment_dos_assisted(mini_internet):
    """One of the two bottleneck servers vulnerable: a DoS on the other one
    completes the hijack (the paper's 'another 10 %' case)."""
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    vulnerability_map = vulnerability_map_for(
        mini_internet, graph.tcb())
    assessment = HijackAnalyzer(vulnerability_map).assess(graph)
    # ns2.hostco.com runs BIND 8.2.3 (vulnerable); ns1 is clean.
    assert assessment.classification == "dos-assisted"
    assert assessment.vulnerable_in_tcb == 1
    assert assessment.is_hijackable
    assert not assessment.is_completely_hijackable


def test_assessment_complete_when_bottleneck_fully_vulnerable(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    vulnerability_map = {DomainName("ns1.hostco.com"): True,
                         DomainName("ns2.hostco.com"): True}
    assessment = HijackAnalyzer(vulnerability_map).assess(graph)
    assert assessment.classification == "complete"
    assert assessment.is_completely_hijackable
    assert assessment.bottleneck.fully_vulnerable


def test_assessment_partial_for_deep_vulnerability(mini_internet):
    """A vulnerable server deep in the TCB that is not a bottleneck yields a
    partial-hijack classification."""
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.uni.edu")
    vulnerability_map = {DomainName("dns2.partner.edu"): True}
    assessment = HijackAnalyzer(vulnerability_map).assess(graph)
    assert assessment.classification == "partial"
    assert assessment.vulnerable_in_tcb == 1


def test_attack_path_narrative(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.uni.edu")
    vulnerability_map = {DomainName("dns2.partner.edu"): True}
    path = HijackAnalyzer(vulnerability_map).attack_path(graph)
    assert path
    assert path[0].entity == DomainName("www.uni.edu")
    assert path[-1].entity == DomainName("dns2.partner.edu")
    assert "VULNERABLE" in path[-1].note
    assert any(step.kind == "zone" for step in path)
    assert all(str(step) for step in path)


# -- end-to-end simulation on the mini Internet ---------------------------------------------

def test_simulated_hijack_of_hosted_name(mini_internet):
    simulator = HijackSimulator(
        type("I", (), {"network": mini_internet.network,
                       "make_resolver": mini_internet.make_resolver})())
    compromised = simulator.compromise(
        ["ns1.hostco.com", "ns2.hostco.com"], "www.example.com")
    assert compromised == 2
    outcome = simulator.attempt("www.example.com", trials=10)
    assert outcome.complete
    assert outcome.diversion_rate == 1.0
    simulator.restore()
    outcome_after = simulator.attempt("www.example.com", trials=5)
    assert outcome_after.diverted == 0


def test_partial_hijack_diverts_some_queries(mini_internet):
    simulator = HijackSimulator(
        type("I", (), {"network": mini_internet.network,
                       "make_resolver": mini_internet.make_resolver})())
    simulator.compromise(["ns2.hostco.com"], "www.example.com")
    outcome = simulator.attempt("www.example.com", trials=40,
                                rng=random.Random(3))
    assert 0 < outcome.diverted < outcome.trials


def test_attack_path_tie_goes_to_the_first_sorted_hostname():
    """Six vulnerable servers at equal depth: the path ends at the one
    that sorts first, whatever order the graph lists them in."""
    hosts = [f"ns{index}.host{index}.t" for index in (5, 3, 0, 4, 1, 2)]
    for order in (hosts, hosts[::-1]):
        graph = nx.DiGraph()
        graph.add_edge(name_node("www.site.t"), zone_node("site.t"))
        for host in order:
            graph.add_edge(zone_node("site.t"), ns_node(host))
        vulnerable = {DomainName(host): True for host in hosts}
        path = HijackAnalyzer(vulnerable).attack_path(
            DelegationGraph("www.site.t", graph))
        assert [step.entity for step in path] == [
            DomainName("www.site.t"), DomainName("site.t"),
            DomainName("ns0.host0.t")]


def test_compromise_unknown_server_is_counted_as_zero(mini_internet):
    simulator = HijackSimulator(
        type("I", (), {"network": mini_internet.network,
                       "make_resolver": mini_internet.make_resolver})())
    assert simulator.compromise(["ghost.nowhere.zz"], "www.example.com") == 0


# -- the fbi.gov case study on the generated Internet ----------------------------------------

def test_fbi_attack_assessment_and_execution(small_internet):
    survey = Survey(small_internet, popular_count=10)
    survey.run(names=[FBI_WEB_NAME])
    builder = survey.builder
    graph = builder.build(FBI_WEB_NAME)
    tcb = {str(host) for host in graph.tcb()}
    assert "reston-ns2.telemail.net" in tcb, \
        "fbi.gov must transitively depend on the telemail server"
    vulnerability_map, compromisable_map = survey._vulnerability_maps()
    assessment = HijackAnalyzer(compromisable_map).assess(graph)
    assert assessment.is_hijackable
    assert assessment.vulnerable_in_tcb >= 1
    assert assessment.attack_path, "an attack path must exist"
    # The telemail box is reachable through the dependency structure even if
    # another vulnerable server happens to be closer.
    telemail_path = graph.dependency_path("reston-ns2.telemail.net")
    assert telemail_path
    assert {node[1] for node in telemail_path} >= {
        DomainName("www.fbi.gov"), DomainName("reston-ns2.telemail.net")}

    simulator = HijackSimulator(small_internet)
    simulator.compromise(["reston-ns2.telemail.net"], FBI_WEB_NAME,
                         diverted_names=["dns.sprintip.com",
                                         "dns2.sprintip.com"])
    outcome = simulator.attempt(FBI_WEB_NAME, trials=30,
                                rng=random.Random(11))
    simulator.restore()
    assert outcome.diverted > 0, \
        "compromising the telemail box should divert some fbi.gov lookups"
