"""Tests for :mod:`repro.dns.zone`."""

import pytest

from repro.dns.errors import ZoneError
from repro.dns.name import DomainName
from repro.dns.rdtypes import RRType
from repro.dns.records import ResourceRecord, SOAData
from repro.dns.zone import Delegation, Zone


def make_zone() -> Zone:
    zone = Zone("example.com")
    zone.set_apex_nameservers(["ns1.example.com", "ns2.example.com"])
    zone.add("ns1.example.com", RRType.A, "10.0.0.1")
    zone.add("ns2.example.com", RRType.A, "10.0.0.2")
    zone.add("www.example.com", RRType.A, "10.0.0.80")
    return zone


# -- basic record management -----------------------------------------------------

def test_zone_synthesises_soa():
    zone = Zone("example.com")
    assert zone.soa is not None
    assert zone.soa.mname == DomainName("ns1.example.com")


def test_zone_accepts_explicit_soa():
    soa = SOAData(mname=DomainName("master.example.com"),
                  rname=DomainName("admin.example.com"), serial=7)
    zone = Zone("example.com", soa=soa)
    assert zone.soa.serial == 7


def test_add_and_get_rrset():
    zone = make_zone()
    rrset = zone.get_rrset("www.example.com", RRType.A)
    assert rrset is not None
    assert rrset.addresses() == ["10.0.0.80"]
    assert zone.get_rrset("www.example.com", "a") is rrset


def test_add_record_outside_zone_rejected():
    zone = Zone("example.com")
    with pytest.raises(ZoneError):
        zone.add("www.other.com", RRType.A, "10.0.0.1")


def test_has_name_and_counts():
    zone = make_zone()
    assert zone.has_name("www.example.com")
    assert not zone.has_name("missing.example.com")
    # SOA + 2 apex NS + 3 A records
    assert zone.record_count() == 6
    assert len(list(zone.iter_records())) == zone.record_count()
    assert len(list(zone.iter_rrsets())) == 5


def test_apex_nameservers_in_order():
    zone = make_zone()
    assert zone.apex_nameservers() == [DomainName("ns1.example.com"),
                                       DomainName("ns2.example.com")]


# -- delegations -------------------------------------------------------------------

def test_delegate_and_find_covering_delegation():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.sub.example.com"],
                  glue={"ns1.sub.example.com": ["10.1.0.1"]})
    delegation = zone.get_delegation("sub.example.com")
    assert delegation is not None
    assert delegation.nameservers == [DomainName("ns1.sub.example.com")]
    covering = zone.find_covering_delegation("deep.host.sub.example.com")
    assert covering is delegation
    assert zone.find_covering_delegation("www.example.com") is None


def test_deepest_delegation_wins():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.other.net"])
    zone.delegate("deep.sub.example.com", ["ns2.other.net"])
    covering = zone.find_covering_delegation("www.deep.sub.example.com")
    assert covering.child == DomainName("deep.sub.example.com")


def test_delegate_requires_proper_subdomain():
    zone = make_zone()
    with pytest.raises(ZoneError):
        zone.delegate("example.com", ["ns1.example.com"])
    with pytest.raises(ZoneError):
        zone.delegate("other.com", ["ns1.example.com"])


def test_delegation_merges_nameservers_and_glue():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.sub.example.com"])
    zone.delegate("sub.example.com", ["ns2.sub.example.com"],
                  glue={"ns2.sub.example.com": ["10.1.0.2"]})
    delegation = zone.get_delegation("sub.example.com")
    assert len(delegation.nameservers) == 2
    assert delegation.glue[DomainName("ns2.sub.example.com")] == ["10.1.0.2"]


def test_is_authoritative_for_respects_zone_cuts():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.other.net"])
    assert zone.is_authoritative_for("www.example.com")
    assert not zone.is_authoritative_for("www.sub.example.com")
    assert not zone.is_authoritative_for("www.other.com")


def test_delegation_records_for_referral():
    delegation = Delegation(child=DomainName("sub.example.com"))
    delegation.add_nameserver("ns1.sub.example.com", ["10.1.0.1", "10.1.0.2"])
    delegation.add_nameserver("ns2.offsite.net")
    ns_records = delegation.ns_records()
    assert all(r.rtype is RRType.NS for r in ns_records)
    assert len(ns_records) == 2
    glue_records = delegation.glue_records()
    assert {str(r.rdata) for r in glue_records} == {"10.1.0.1", "10.1.0.2"}


def test_delegation_offsite_nameservers():
    delegation = Delegation(child=DomainName("sub.example.com"))
    delegation.add_nameserver("ns1.sub.example.com")
    delegation.add_nameserver("ns2.offsite.net")
    assert delegation.offsite_nameservers() == [DomainName("ns2.offsite.net")]


def test_duplicate_nameserver_not_added_twice():
    delegation = Delegation(child=DomainName("sub.example.com"))
    delegation.add_nameserver("ns1.sub.example.com")
    delegation.add_nameserver("ns1.sub.example.com", ["10.1.0.1"])
    assert len(delegation.nameservers) == 1
    assert delegation.glue[DomainName("ns1.sub.example.com")] == ["10.1.0.1"]


def _referral(delegation):
    """(NS targets, {glue owner: addresses}) a referral would carry."""
    glue = {}
    for record in delegation.glue_records():
        glue.setdefault(record.name, []).append(str(record.rdata))
    return [record.rdata for record in delegation.ns_records()], glue


def test_referral_records_follow_zone_delegate():
    zone = make_zone()
    delegation = zone.delegate("sub.example.com", ["ns1.sub.example.com"],
                               glue={"ns1.sub.example.com": ["10.1.0.1"]})
    assert _referral(delegation) == (
        [DomainName("ns1.sub.example.com")],
        {DomainName("ns1.sub.example.com"): ["10.1.0.1"]})
    # A second delegate() call for the same child extends the NS set and
    # the glue; the next referral must carry both.
    zone.delegate("sub.example.com", ["ns2.sub.example.com"],
                  glue={"ns2.sub.example.com": ["10.1.0.2"]})
    assert _referral(delegation) == (
        [DomainName("ns1.sub.example.com"), DomainName("ns2.sub.example.com")],
        {DomainName("ns1.sub.example.com"): ["10.1.0.1"],
         DomainName("ns2.sub.example.com"): ["10.1.0.2"]})
    # Glue added for a server already in the NS set shows up too.
    delegation.add_nameserver("ns1.sub.example.com", ["10.1.0.11"])
    assert _referral(delegation)[1][DomainName("ns1.sub.example.com")] == \
        ["10.1.0.1", "10.1.0.11"]


def test_referral_records_follow_set_nameservers():
    zone = make_zone()
    delegation = zone.delegate("sub.example.com", ["ns1.sub.example.com"],
                               glue={"ns1.sub.example.com": ["10.1.0.1"]})
    delegation.set_nameservers(
        ["ns9.offsite.net", "ns2.sub.example.com"],
        glue={DomainName("ns2.sub.example.com"): ["10.1.0.2"]})
    assert _referral(delegation) == (
        [DomainName("ns9.offsite.net"), DomainName("ns2.sub.example.com")],
        {DomainName("ns2.sub.example.com"): ["10.1.0.2"]})
    delegation.set_nameservers([])
    assert _referral(delegation) == ([], {})


def test_has_name_after_extract_subtree():
    zone = make_zone()
    zone.add("www.dept.example.com", RRType.A, "10.0.0.90")
    zone.add("www.dept.example.com", RRType.TXT, "hello")
    zone.add("mail.dept.example.com", RRType.A, "10.0.0.91")
    assert zone.has_name("www.dept.example.com")
    rrsets, _delegations = zone.extract_subtree("dept.example.com")
    assert len(rrsets) == 3
    assert not zone.has_name("www.dept.example.com")
    assert not zone.has_name("mail.dept.example.com")
    assert zone.has_name("www.example.com")
    # Re-adding one of the moved records brings the owner back.
    zone.add("www.dept.example.com", RRType.A, "10.0.0.90")
    assert zone.has_name("www.dept.example.com")


def test_has_name_after_replace_apex_nameservers():
    zone = Zone("example.com")
    zone.set_apex_nameservers(["ns1.example.com"])
    zone.replace_apex_nameservers(["ns2.example.com"])
    zone.replace_apex_nameservers(["ns3.example.com"])
    assert zone.apex_nameservers() == [DomainName("ns3.example.com")]
    assert zone.has_name("example.com")
    # SOA and NS both live at the apex: dropping the NS RRSet alone must
    # not forget the owner.
    zone.replace_apex_nameservers([])
    assert zone.get_rrset("example.com", RRType.NS) is None
    assert zone.has_name("example.com")
    assert not zone.has_name("ns3.example.com")


# -- validation -----------------------------------------------------------------------

def test_validate_clean_zone():
    zone = make_zone()
    assert zone.validate() == []


def test_validate_flags_missing_apex_ns():
    zone = Zone("example.com")
    problems = zone.validate()
    assert any("no apex NS" in problem for problem in problems)


def test_validate_flags_missing_glue():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.sub.example.com"])
    problems = zone.validate()
    assert any("needs glue" in problem for problem in problems)


def test_validate_accepts_offsite_delegation_without_glue():
    zone = make_zone()
    zone.delegate("sub.example.com", ["ns1.elsewhere.net"])
    assert zone.validate() == []


def test_repr_mentions_counts():
    zone = make_zone()
    text = repr(zone)
    assert "example.com" in text
    assert "records" in text
