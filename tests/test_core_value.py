"""Tests for :mod:`repro.core.value`."""

from hypothesis import given, settings, strategies as st

from repro.dns.name import DomainName
from repro.core.value import NameserverValueAnalyzer


def build_analyzer():
    vulnerability_map = {DomainName("ns1.bighost.com"): True}
    analyzer = NameserverValueAnalyzer(vulnerability_map)
    # 10 names at bighost, 2 at smallhost, 1 at a university server.
    for index in range(10):
        analyzer.add_name(["ns1.bighost.com", "ns2.bighost.com",
                           "a.gtld-servers.net"])
    for index in range(2):
        analyzer.add_name(["ns1.smallhost.net", "a.gtld-servers.net"])
    analyzer.add_name(["dns1.univ.edu", "a.gtld-servers.net"])
    return analyzer


def test_counts_and_totals():
    analyzer = build_analyzer()
    assert analyzer.total_names == 13
    assert analyzer.server_count == 5
    assert analyzer.names_controlled("a.gtld-servers.net") == 13
    assert analyzer.names_controlled("ns1.bighost.com") == 10
    assert analyzer.names_controlled("unknown.example.com") == 0


def test_ranking_order_and_ranks():
    analyzer = build_analyzer()
    ranking = analyzer.ranking()
    assert [str(v.hostname) for v in ranking[:2]] == [
        "a.gtld-servers.net", "ns1.bighost.com"]
    assert ranking[0].rank == 1
    assert ranking[1].rank == 2
    # Ties broken deterministically by hostname.
    tied = [v for v in ranking if v.names_controlled == 10]
    assert [str(v.hostname) for v in tied] == ["ns1.bighost.com",
                                               "ns2.bighost.com"]


def test_ranking_filters():
    analyzer = build_analyzer()
    vulnerable_only = analyzer.ranking(only_vulnerable=True)
    assert [str(v.hostname) for v in vulnerable_only] == ["ns1.bighost.com"]
    edu_only = analyzer.ranking(tld_filter=("edu",))
    assert [str(v.hostname) for v in edu_only] == ["dns1.univ.edu"]
    assert edu_only[0].rank == 1


def test_mean_and_median_names_controlled():
    analyzer = build_analyzer()
    # counts: 13, 10, 10, 2, 1 -> mean 7.2, median 10
    assert analyzer.mean_names_controlled() == 7.2
    assert analyzer.median_names_controlled() == 10


def test_high_leverage_servers_threshold():
    analyzer = build_analyzer()
    # 10 % of 13 names = 1.3; servers controlling more than that:
    high = analyzer.high_leverage_servers(fraction=0.10)
    assert {str(v.hostname) for v in high} == {
        "a.gtld-servers.net", "ns1.bighost.com", "ns2.bighost.com",
        "ns1.smallhost.net"}
    higher = analyzer.high_leverage_servers(fraction=0.5)
    assert {str(v.hostname) for v in higher} == {"a.gtld-servers.net",
                                                 "ns1.bighost.com",
                                                 "ns2.bighost.com"}
    vulnerable_high = analyzer.high_leverage_servers(fraction=0.10,
                                                     only_vulnerable=True)
    assert {str(v.hostname) for v in vulnerable_high} == {"ns1.bighost.com"}


def test_summary_keys_and_values():
    analyzer = build_analyzer()
    summary = analyzer.summary()
    assert summary["servers"] == 5
    assert summary["names"] == 13
    assert summary["high_leverage_vulnerable"] == 1
    assert summary["high_leverage_edu"] == 0
    assert summary["median_names_controlled"] == 10


def test_empty_analyzer_is_well_behaved():
    analyzer = NameserverValueAnalyzer()
    assert analyzer.mean_names_controlled() == 0.0
    assert analyzer.median_names_controlled() == 0.0
    assert analyzer.high_leverage_servers() == []
    assert analyzer.ranking() == []
    assert analyzer.summary()["servers"] == 0


def test_add_many_and_counts_copy():
    analyzer = NameserverValueAnalyzer()
    analyzer.add_many([["ns1.a.com"], ["ns1.a.com", "ns2.a.com"]])
    counts = analyzer.counts()
    counts[DomainName("ns1.a.com")] = 999
    assert analyzer.names_controlled("ns1.a.com") == 2


def test_server_value_to_dict():
    analyzer = build_analyzer()
    value = analyzer.ranking()[0]
    payload = value.to_dict()
    assert payload["hostname"] == "a.gtld-servers.net"
    assert payload["names_controlled"] == 13
    assert payload["rank"] == 1


def test_from_counts_matches_incremental_accumulation():
    incremental = NameserverValueAnalyzer({DomainName("ns1.a.test"): True})
    incremental.add_name(["ns1.a.test", "ns2.a.test"])
    incremental.add_name(["ns1.a.test"])
    incremental.add_name(["ns3.b.test", "ns1.a.test"])

    rebuilt = NameserverValueAnalyzer.from_counts(
        incremental.counts(), incremental.total_names,
        {DomainName("ns1.a.test"): True})
    assert rebuilt.total_names == incremental.total_names
    assert rebuilt.counts() == incremental.counts()
    assert rebuilt.summary() == incremental.summary()
    assert [value.to_dict() for value in rebuilt.ranking()] == \
        [value.to_dict() for value in incremental.ranking()]


def test_over_counts_reads_the_map_in_place_and_add_name_copies_it():
    counts = {DomainName("ns1.a.test"): 2, DomainName("ns2.a.test"): 1}
    analyzer = NameserverValueAnalyzer.over_counts(counts, 2)
    assert analyzer.names_controlled("ns1.a.test") == 2
    analyzer.add_name(["ns1.a.test", "ns3.b.test"])
    assert counts == {DomainName("ns1.a.test"): 2,
                      DomainName("ns2.a.test"): 1}
    assert analyzer.names_controlled("ns1.a.test") == 3
    assert analyzer.names_controlled("ns3.b.test") == 1
    assert analyzer.total_names == 3


# -- summary and top servers against a plain reference ---------------------------------

#: Few hosts over few TLDs, and counts from a narrow range, so ties at the
#: top-n boundary and at the high-leverage threshold are the rule.
HOSTS = st.builds(lambda label, domain, tld: DomainName(
    f"{label}.{domain}.{tld}"), st.sampled_from(["ns1", "ns2", "dns"]),
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
    st.sampled_from(["edu", "com", "org"]))


def _reference(counts, total, vulnerable, top, fraction):
    """Everything sorted by (-count, hostname) first, then counted."""
    ordered = sorted(counts.items(), key=lambda item: (-item[1],
                                                       str(item[0])))
    values = sorted(counts.values())
    middle = len(values) // 2
    if not values:
        median = 0.0
    elif len(values) % 2:
        median = float(values[middle])
    else:
        median = (values[middle - 1] + values[middle]) / 2.0
    high = [host for host, count in ordered
            if total and count > fraction * total]
    summary = {
        "servers": float(len(counts)),
        "names": float(total),
        "mean_names_controlled":
            sum(values) / len(values) if values else 0.0,
        "median_names_controlled": median,
        "high_leverage_servers": float(len(high)),
        "high_leverage_vulnerable": float(sum(
            1 for host in high if vulnerable.get(host, False))),
        "high_leverage_edu": float(sum(
            1 for host in high if host.tld == "edu")),
    }
    top_servers = [{"hostname": str(host), "names_controlled": count,
                    "rank": rank, "vulnerable": vulnerable.get(host, False),
                    "operator_tld": host.tld or ""}
                   for rank, (host, count) in enumerate(ordered[:top], 1)]
    return summary, top_servers


@settings(max_examples=300, deadline=None)
@given(counts=st.dictionaries(HOSTS, st.integers(1, 4), max_size=24),
       total=st.integers(0, 40),
       flagged=st.sets(HOSTS),
       top=st.integers(0, 14),
       fraction=st.one_of(st.sampled_from([0.0, 0.1, 1.0]),
                          st.floats(0.0, 1.0)))
def test_summary_and_top_servers_match_a_full_sort(counts, total, flagged,
                                                   top, fraction):
    vulnerable = {host: host in flagged for host in counts}
    analyzer = NameserverValueAnalyzer.from_counts(
        {str(host) if index % 2 else host: count
         for index, (host, count) in enumerate(counts.items())},
        total, vulnerable)
    summary, top_servers = _reference(counts, total, vulnerable, top,
                                      fraction)
    assert analyzer.summary(fraction) == summary
    assert [value.to_dict() for value in analyzer.top_servers(top)] == \
        top_servers
    assert [value.to_dict() for value in analyzer.ranking()[:top]] == \
        top_servers

