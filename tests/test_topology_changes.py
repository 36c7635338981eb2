"""Tests for :mod:`repro.topology.changes` (the world-change journal)."""

import pytest

from repro.dns.message import make_query
from repro.dns.name import DomainName
from repro.dns.rdtypes import RRType
from repro.topology.changes import ChangeJournal, apply_mutation_spec
from repro.topology.generator import GeneratorConfig, InternetGenerator


@pytest.fixture(scope="module")
def world():
    config = GeneratorConfig(seed=4242, sld_count=60,
                             directory_name_count=90, university_count=12,
                             hosting_provider_count=6, isp_count=4,
                             alexa_count=15)
    return InternetGenerator(config).generate()


@pytest.fixture
def journal(world):
    return ChangeJournal(world)


def _provider(world, index=1):
    return world.organizations.by_name(f"webhost{index}")


def test_set_zone_nameservers_rewires_every_layer(world, journal):
    provider = _provider(world)
    victim = _provider(world, 2)
    apex = victim.domain
    new_ns = provider.nameservers[:2]
    event = journal.set_zone_nameservers(apex, new_ns)

    zone = world.zones[apex]
    assert zone.apex_nameservers() == list(new_ns)
    parent = world.zones[DomainName(apex.tld)]
    delegation = parent.get_delegation(apex)
    assert delegation.nameservers == list(new_ns)
    for hostname in new_ns:
        assert apex in world.servers[hostname].zone_apexes()
    for hostname in event.hosts_before:
        if hostname not in new_ns:
            assert apex not in world.servers[hostname].zone_apexes()
    assert event.kind == "zone-ns"
    assert set(event.touched_hosts) >= set(new_ns)


def test_redelegation_reaches_the_next_referral(world, journal):
    """The parent's referrals must carry a re-delegated zone's new NS set
    and glue, even after the old referral sections were served."""
    apex = _provider(world, 6).domain
    parent = world.zones[DomainName(apex.tld)]
    registry = world.servers[parent.apex_nameservers()[0]]

    def referral():
        response = registry.handle_query(make_query(apex.child("www")))
        assert response.is_referral
        glue = {}
        for record in response.additional:
            glue.setdefault(record.name, []).append(str(record.rdata))
        return response.referral_nameservers(), glue

    old_ns, _ = referral()
    new_ns = list(_provider(world, 4).nameservers[:2])
    extra = _provider(world, 4).nameservers[2]
    assert old_ns != new_ns
    for order in (new_ns, new_ns[::-1]):
        journal.set_zone_nameservers(apex, order)
        nameservers, glue = referral()
        assert nameservers == order
        assert list(glue) == order
        assert glue == {host: world.servers[host].addresses
                        for host in order}

    journal.add_zone_nameserver(apex, extra)
    nameservers, glue = referral()
    assert nameservers == new_ns[::-1] + [extra]
    assert glue[extra] == world.servers[extra].addresses


def test_zone_creation_moves_subtree_and_resolves(world, journal):
    univ = world.organizations.by_name("univ1")
    department = univ.domain.child("cs2")
    host = department.child("www")
    world.zones[univ.domain].add(host, RRType.A, "203.0.113.77")

    event = journal.set_zone_nameservers(department, [univ.nameservers[0]])
    assert event.created_zone
    child = world.zones[department]
    # The A record below the new apex moved into the child zone.
    assert child.get_rrset(host, RRType.A) is not None
    assert world.zones[univ.domain].get_rrset(host, RRType.A) is None
    # And resolution still reaches it, through the new cut.
    resolver = world.make_resolver()
    trace = resolver.resolve(host)
    assert trace.succeeded and trace.addresses == ["203.0.113.77"]
    cuts = resolver.zone_cut_chain(host)
    assert department in [cut.zone for cut in cuts]


def test_add_and_remove_server(world, journal):
    provider = _provider(world, 3)
    event = journal.add_server("backup.webhost3.com", software="BIND 9.2.3",
                               organization="webhost3")
    hostname = DomainName("backup.webhost3.com")
    assert world.servers[hostname].software == "BIND 9.2.3"
    assert hostname in provider.nameservers
    assert event.kind == "server-add"
    assert event.touched_hosts == frozenset((hostname,))

    journal.add_zone_nameserver(provider.domain, hostname)
    assert hostname in world.zones[provider.domain].apex_nameservers()

    removal = journal.remove_server(hostname)
    assert hostname not in world.zones[provider.domain].apex_nameservers()
    assert hostname in removal.touched_hosts
    assert hostname not in provider.nameservers


def test_consecutive_journals_never_reuse_addresses(world):
    """Address allocation checks the live world, not a per-journal counter:
    chained journals over one internet must not alias two servers onto one
    address (the network routes by address)."""
    first = ChangeJournal(world)
    first.add_server("dup1.webhost1.net")
    second = ChangeJournal(world)
    second.add_server("dup2.webhost1.net")
    addr_one = world.servers[DomainName("dup1.webhost1.net")].addresses[0]
    addr_two = world.servers[DomainName("dup2.webhost1.net")].addresses[0]
    assert addr_one != addr_two
    assert world.network.find_server(addr_one).hostname == \
        DomainName("dup1.webhost1.net")
    assert world.network.find_server(addr_two).hostname == \
        DomainName("dup2.webhost1.net")


def test_remove_server_refuses_to_orphan_a_zone(world, journal):
    provider = _provider(world, 5)
    only = provider.nameservers[0]
    journal.set_zone_nameservers(provider.domain, [only])
    events_before = len(journal)
    with pytest.raises(ValueError, match="only nameserver"):
        journal.remove_server(only)
    # The rejection happens before any re-delegation: no half-applied
    # decommission, no events journalled, world unchanged.
    assert len(journal) == events_before
    assert world.zones[provider.domain].apex_nameservers() == [only]


def test_server_add_footprint_covers_ghost_nameservers(world, journal):
    """A server coming online under a hostname some zone already lists
    (lame delegation) must dirty the names depending on that hostname and
    mark its stale 'unreachable' fingerprint for re-probing."""
    ghost = DomainName("ghost.webhost1.net")
    provider = _provider(world)
    journal.add_zone_nameserver(provider.domain, ghost)
    event = journal.add_server(str(ghost), software="BIND 8.2.2")
    assert ghost in event.touched_hosts
    changes = journal.changes()
    assert ghost in changes.touched_hosts
    assert ghost in changes.refingerprint_hosts


def test_changes_since_folds_only_new_events(world, journal):
    provider = _provider(world, 6)
    journal.set_server_software(provider.nameservers[0], "BIND 8.2.3")
    cut = len(journal.events)
    univ = world.organizations.by_name("univ4")
    journal.set_server_software(univ.nameservers[0], "BIND 9.2.3")
    new_only = journal.changes(since=cut)
    assert new_only.touched_hosts == frozenset((univ.nameservers[0],))
    assert journal.changes().touched_hosts == \
        frozenset((provider.nameservers[0], univ.nameservers[0]))


def test_software_and_region_events(world, journal):
    univ = world.organizations.by_name("univ2")
    hostname = univ.nameservers[0]
    journal.set_server_software(hostname, "BIND 8.2.2")
    journal.move_server_region(hostname, "ap")
    assert world.servers[hostname].software == "BIND 8.2.2"
    assert world.servers[hostname].region == "ap"
    changes = journal.changes()
    assert changes.refingerprint_hosts == frozenset((hostname,))
    assert hostname in changes.touched_hosts
    assert changes.analyses_stale


def test_changes_fold_uses_last_zone_edit(world, journal):
    provider = _provider(world, 4)
    apex = provider.domain
    first = journal._zone_ns_union(apex)
    journal.add_zone_nameserver(apex, _provider(world, 5).nameservers[0])
    journal.set_zone_nameservers(apex, first)
    changes = journal.changes()
    assert changes.edited_zones[apex] == first
    assert not changes.dirty_all and not changes.empty


def test_mutation_specs_round_trip(world, journal):
    provider = _provider(world, 6)
    target = provider.domain
    spec = f"add-ns:zone={target};ns={_provider(world, 1).nameservers[0]}"
    event = apply_mutation_spec(journal, spec)
    assert event.kind == "zone-ns"
    apply_mutation_spec(journal, "add-server:host=ns8.webhost6.com;"
                                 "software=BIND 9.2.1;org=webhost6")
    assert DomainName("ns8.webhost6.com") in world.servers
    with pytest.raises(ValueError, match="unknown mutation kind"):
        apply_mutation_spec(journal, "explode:zone=com")
    with pytest.raises(ValueError, match="needs zone"):
        apply_mutation_spec(journal, "set-ns:ns=a.example.com")
    univ = world.organizations.by_name("univ3")
    with pytest.raises(ValueError, match="unknown option"):
        apply_mutation_spec(
            journal,
            f"move-region:host={univ.nameservers[0]};region=eu;bogus=1")


def test_root_zone_is_off_limits(journal):
    with pytest.raises(ValueError, match="root"):
        journal.set_zone_nameservers(".", ["a.root-servers.net"])


def test_mutation_spec_rejects_malformed_option(journal):
    """An option without ``=`` names the offending fragment and the spec."""
    with pytest.raises(ValueError, match="malformed option 'zone'"):
        apply_mutation_spec(journal, "set-ns:zone;ns=a.example.com")


def test_mutation_spec_rejects_missing_key(journal):
    with pytest.raises(ValueError, match="'drop-ns' needs zone"):
        apply_mutation_spec(journal, "drop-ns:ns=a.example.com")
    with pytest.raises(ValueError, match="'set-software' needs host"):
        apply_mutation_spec(journal, "set-software:software=BIND 9.2.3")
    with pytest.raises(ValueError, match="'dnssec' needs fraction"):
        apply_mutation_spec(journal, "dnssec:seed=x")


def test_mutation_spec_rejects_unknown_kind_with_catalogue(journal):
    """The error lists the whole spec grammar, not just the bad kind."""
    with pytest.raises(ValueError, match="expected one of set-ns, add-ns"):
        apply_mutation_spec(journal, "transmogrify:host=a.example.com")
    # A bare kind with no options at all is still an unknown-kind error.
    with pytest.raises(ValueError, match="unknown mutation kind ''"):
        apply_mutation_spec(journal, ":host=a.example.com")


def test_mutation_spec_rejects_non_numeric_fraction(journal):
    with pytest.raises(ValueError):
        apply_mutation_spec(journal, "dnssec:fraction=lots")


def test_mutation_spec_world_errors_leave_journal_clean(world, journal):
    """A spec whose mutation the world rejects journals nothing."""
    with pytest.raises(ValueError, match="unknown server"):
        apply_mutation_spec(journal, "remove-server:host=ns.nowhere.zz")
    with pytest.raises(ValueError, match="needs at least one nameserver"):
        apply_mutation_spec(journal, "set-ns:zone=site1.com;ns=")
    assert len(journal) == 0
    assert journal.changes().empty


def test_changes_fold_exposes_zone_and_host_footprints(world, journal):
    """Zone edits fold to before-set footprints; host events fold apart."""
    provider = _provider(world, 2)
    apex = provider.domain
    before = tuple(journal._zone_ns_union(apex))
    journal.add_zone_nameserver(apex, _provider(world, 3).nameservers[0])
    # A second edit to the same zone must not overwrite the footprint:
    # previous TCBs only ever saw the pre-journal state.
    journal.add_zone_nameserver(apex, _provider(world, 4).nameservers[0])
    univ = world.organizations.by_name("univ2")
    journal.set_server_software(univ.nameservers[0], "BIND 9.2.3")
    changes = journal.changes()
    assert changes.zone_footprints[apex] == before
    assert changes.host_footprints == frozenset((univ.nameservers[0],))
    # touched_hosts stays the full (conservative) union for stats and
    # hand-built consumers.
    assert frozenset(before) <= changes.touched_hosts


def test_changes_fold_created_zone_has_no_footprint(world, journal):
    univ = world.organizations.by_name("univ4")
    department = univ.domain.child("physics")
    journal.set_zone_nameservers(department, [univ.nameservers[0]])
    # Editing the freshly cut zone again still leaves footprints empty:
    # nothing in any previous TCB describes a zone that did not exist.
    journal.add_zone_nameserver(department, univ.nameservers[-1])
    changes = journal.changes()
    assert changes.created_zones == (department,)
    assert department not in changes.zone_footprints

def test_event_to_spec_replays_identically():
    """``ChangeEvent.to_spec()`` replayed through ``apply_mutation_spec``
    on an identically-generated world reproduces the same event log and
    the same folded footprint — the contract the distributed coordinator
    leans on when it ships a journal to its workers as spec strings."""
    # Private worlds: the module-scoped fixture has been mutated by the
    # tests above, so a config-regenerated twin would not match it.
    config = GeneratorConfig(seed=777, sld_count=60,
                             directory_name_count=90, university_count=12,
                             hosting_provider_count=6, isp_count=4,
                             alexa_count=15)
    original_world = InternetGenerator(config).generate()
    twin = InternetGenerator(config).generate()
    source, replayed = ChangeJournal(original_world), ChangeJournal(twin)

    univ = original_world.organizations.by_name("univ4")
    hostname = univ.nameservers[0]
    source.set_server_software(hostname, "BIND 8.2.2")
    source.move_server_region(hostname, "eu")
    source.add_server("ns9.webhost2.com", software="BIND 9.2.3",
                      region="ap", organization="webhost2")
    source.remove_server(
        _provider(original_world, 3).nameservers[0])

    for event in source.events:
        replay_event = apply_mutation_spec(replayed, event.to_spec())
        assert replay_event.kind == event.kind
        assert replay_event.to_spec() == event.to_spec()

    original, mirrored = source.changes(), replayed.changes()
    assert mirrored.touched_hosts == original.touched_hosts
    assert mirrored.refingerprint_hosts == original.refingerprint_hosts
    assert mirrored.edited_zones == original.edited_zones
    assert twin.servers[hostname].software == "BIND 8.2.2"
    assert twin.servers[hostname].region == "eu"
