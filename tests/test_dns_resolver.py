"""Tests for :mod:`repro.dns.resolver` against the hand-built mini Internet."""

import pytest

from repro.dns.cache import ResolverCache
from repro.dns.errors import ResolutionError
from repro.dns.name import DomainName
from repro.dns.rdtypes import RCode, RRType
from repro.dns.resolver import IterativeResolver


# -- basic resolution ----------------------------------------------------------------

def test_resolve_hosted_name(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.com")
    assert trace.succeeded
    assert trace.addresses == ["10.2.0.80"]


def test_resolution_walks_root_then_tld_then_zone(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.com")
    contacted = [str(step.server) for step in trace.steps]
    assert contacted[0] in ("a.root-servers.net", "b.root-servers.net")
    assert any("gtld" in server for server in contacted)
    assert any("hostco" in server for server in contacted)


def test_resolve_self_hosted_name_with_offsite_secondary(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.uni.edu")
    assert trace.succeeded
    assert trace.addresses == ["10.4.0.80"]


def test_resolve_nxdomain(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("missing.example.com")
    assert not trace.succeeded
    assert trace.rcode is RCode.NXDOMAIN


def test_resolve_unknown_tld_fails(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.zz")
    assert not trace.succeeded


def test_cname_chased_to_address(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("alias.example.com")
    assert trace.succeeded
    assert "10.2.0.80" in trace.addresses


def test_servers_contacted_recorded(mini_internet):
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.com")
    assert DomainName("ns1.hostco.com") in trace.servers_contacted or \
        DomainName("ns2.hostco.com") in trace.servers_contacted
    assert trace.query_count == len(trace.steps)


# -- caching -----------------------------------------------------------------------------

def test_second_resolution_uses_cache(mini_internet):
    cache = ResolverCache()
    resolver = mini_internet.make_resolver(cache=cache)
    first = resolver.resolve("www.example.com")
    second = resolver.resolve("www.example.com")
    assert second.succeeded
    assert second.query_count == 0
    assert first.query_count > 0


def test_nxdomain_is_negatively_cached(mini_internet):
    cache = ResolverCache()
    resolver = mini_internet.make_resolver(cache=cache)
    resolver.resolve("missing.example.com")
    second = resolver.resolve("missing.example.com")
    assert second.rcode is RCode.NXDOMAIN
    assert second.query_count == 0


# -- glue handling ---------------------------------------------------------------------------

def test_glue_disabled_requires_more_queries(mini_internet):
    with_glue = mini_internet.make_resolver(use_glue=True)
    trace_glue = with_glue.resolve("www.example.com")
    without_glue = mini_internet.make_resolver(use_glue=False)
    trace_noglue = without_glue.resolve("www.example.com")
    assert trace_noglue.succeeded
    assert trace_noglue.query_count >= trace_glue.query_count


# -- failure handling -----------------------------------------------------------------------

def test_failover_to_second_nameserver(mini_internet):
    mini_internet.servers[DomainName("ns1.hostco.com")].fail()
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.com")
    assert trace.succeeded
    assert any(step.kind == "failure" for step in trace.steps)


def test_all_nameservers_down_servfail(mini_internet):
    mini_internet.servers[DomainName("ns1.hostco.com")].fail()
    mini_internet.servers[DomainName("ns2.hostco.com")].fail()
    resolver = mini_internet.make_resolver()
    trace = resolver.resolve("www.example.com")
    assert not trace.succeeded
    assert trace.rcode is RCode.SERVFAIL


def test_random_selection_is_reproducible_with_seed(mini_internet):
    import random
    resolver_a = mini_internet.make_resolver(selection="random",
                                             rng=random.Random(42))
    resolver_b = mini_internet.make_resolver(selection="random",
                                             rng=random.Random(42))
    trace_a = resolver_a.resolve("www.example.com")
    trace_b = resolver_b.resolve("www.example.com")
    assert [str(s.server) for s in trace_a.steps] == \
        [str(s.server) for s in trace_b.steps]


def test_invalid_selection_rejected(mini_internet):
    with pytest.raises(ValueError):
        mini_internet.make_resolver(selection="round-robin")


def test_resolver_requires_root_hints(mini_internet):
    with pytest.raises(ResolutionError):
        IterativeResolver(mini_internet.network, {})


def test_query_budget_enforced(mini_internet):
    resolver = mini_internet.make_resolver(max_queries=1)
    trace = resolver.resolve("www.example.com")
    assert not trace.succeeded


# -- zone-cut enumeration -----------------------------------------------------------------------

def test_zone_cut_chain_for_hosted_name(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("www.example.com")
    zones = [str(cut.zone) for cut in cuts]
    assert zones == ["com", "example.com"]
    example_cut = cuts[-1]
    assert DomainName("ns1.hostco.com") in example_cut.nameservers
    assert DomainName("ns2.hostco.com") in example_cut.nameservers


def test_zone_cut_chain_includes_parent_and_apex_ns(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("www.uni.edu")
    uni_cut = [cut for cut in cuts if str(cut.zone) == "uni.edu"][0]
    # The off-site secondary appears in both the parent delegation and the
    # apex NS set; the union keeps it once.
    assert DomainName("dns1.partner.edu") in uni_cut.nameservers
    assert len(uni_cut.nameservers) == 3


def test_zone_cut_chain_excludes_root(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("www.example.com")
    assert all(str(cut.zone) != "." for cut in cuts)


def test_zone_cut_chain_for_nameserver_hostname(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("ns1.hostco.com")
    zones = [str(cut.zone) for cut in cuts]
    assert zones == ["com", "hostco.com"]


def test_zone_cut_nameservers_union_preserves_order(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("www.example.com")
    com_cut = cuts[0]
    assert com_cut.nameservers[0] == com_cut.parent_nameservers[0]


def test_zone_cut_nameservers_memoized(mini_internet):
    resolver = mini_internet.make_resolver()
    cuts = resolver.zone_cut_chain("www.example.com")
    com_cut = cuts[0]
    first = com_cut.nameservers
    assert com_cut.nameservers is first
    # Extending a cut (how the chain walk fills it) drops the stale union.
    com_cut.apex_nameservers = list(com_cut.apex_nameservers) + \
        [DomainName("late.gtld.net")]
    assert DomainName("late.gtld.net") in com_cut.nameservers


def test_zone_cut_chain_prefix_cache_is_transparent(mini_internet):
    shared = mini_internet.make_resolver()
    for qname in ("www.example.com", "www.hostco.com", "ns1.hostco.com",
                  "www.uni.edu", "www.partner.edu"):
        fresh = mini_internet.make_resolver()
        shared_cuts = shared.zone_cut_chain(qname)
        fresh_cuts = fresh.zone_cut_chain(qname)
        assert [str(cut.zone) for cut in shared_cuts] == \
            [str(cut.zone) for cut in fresh_cuts]
        assert [[str(ns) for ns in cut.nameservers] for cut in shared_cuts] \
            == [[str(ns) for ns in cut.nameservers] for cut in fresh_cuts]
    # The shared resolver reused prefixes, so it issued fewer queries for
    # the later names than a cold walk needs for the first.
    assert shared._chain_prefix_cache


def test_invalidate_zones_drops_prefixes_on_the_apex_line(mini_internet):
    resolver = mini_internet.make_resolver()
    for qname in ("www.example.com", "www.hostco.com", "www.uni.edu",
                  "www.partner.edu", "ns1.edunic.net"):
        resolver.zone_cut_chain(qname)

    def cached():
        return {str(cuts[-1].zone)
                for cuts, _servers in resolver._chain_prefix_cache.values()}

    assert cached() == {"com", "example.com", "hostco.com", "edu", "uni.edu",
                        "partner.edu", "net", "edunic.net"}
    # example.com itself and its ancestor com go; the sibling hostco.com
    # and the other TLDs' prefixes stay.
    resolver.invalidate_zones(["example.com"])
    assert cached() == {"hostco.com", "edu", "uni.edu", "partner.edu", "net",
                        "edunic.net"}
    # Invalidating a TLD drops everything below it too.
    resolver.invalidate_zones(["edu"])
    assert cached() == {"hostco.com", "net", "edunic.net"}


def test_resolver_clone_is_independent(mini_internet):
    resolver = mini_internet.make_resolver()
    resolver.resolve("www.example.com")
    clone = resolver.clone()
    assert clone is not resolver
    assert clone.cache is not resolver.cache
    assert len(clone.cache) == len(resolver.cache)
    trace = clone.resolve("www.example.com")
    assert trace.succeeded
    assert trace.query_count == 0, "clone must start with a warm cache"


def test_resolver_clone_can_share_cache(mini_internet):
    resolver = mini_internet.make_resolver()
    clone = resolver.clone(share_cache=True)
    assert clone.cache is resolver.cache
