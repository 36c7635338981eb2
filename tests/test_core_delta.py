"""Delta-vs-cold equivalence for the incremental re-survey subsystem.

The contract under test: after any sequence of journalled world mutations,
``SurveyEngine.run_delta(prev, journal)`` produces results byte-identical to
a cold full survey of the mutated world — on every backend, from a carried
engine or a fresh one, and from in-memory results or a loaded snapshot —
while actually re-surveying only the invalidated names.
"""

import json

import pytest

from repro.core.delegation import DelegationGraphBuilder
from repro.core.delta import DirtyIndex
from repro.core.dnssec_impact import _deployment_score
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.snapshot import (
    diff_results,
    load_results,
    results_to_dict,
    save_results,
)
from repro.dns.name import DomainName, name_key
from repro.dns.rdtypes import RRType
from repro.topology.changes import (
    ChangeJournal,
    ChangeSet,
    zone_nameserver_union,
)
from repro.topology.generator import GeneratorConfig, InternetGenerator

#: Two seeds so the equivalence matrix never passes by topological accident.
SEEDS = (20040722, 1977)

#: The small world the single-scenario tests below survey.
TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)

#: Passes exercised by the matrix: per-name columns (availability incl.
#: Monte-Carlo, DNSSEC) plus a finalize() cross-record reduce (value).
PASSES_BEFORE = ("availability:samples=6", "dnssec:fraction=0.4", "value")
PASSES_AFTER = ("availability:samples=6", "dnssec:fraction=0.7", "value")


def _make_internet(seed):
    config = GeneratorConfig(seed=seed, sld_count=150,
                             directory_name_count=240, university_count=32,
                             hosting_provider_count=10, isp_count=8,
                             alexa_count=40)
    return InternetGenerator(config).generate()


def _snapshot_bytes(results, drop_backend_keys=False):
    payload = results_to_dict(results)
    if drop_backend_keys:
        for key in ("backend", "workers", "shards"):
            payload["metadata"].pop(key, None)
    return json.dumps(payload, sort_keys=True)


def _mutate(internet, prev):
    """The mutation mix every scenario applies; returns (journal, markers).

    Covers each journal operation class, including a mutation *inside* a
    cyclic dependency SCC: two universities are made mutual secondaries
    (forcing the cycle regardless of how the generator grouped them) and
    one of the cycle's servers then changes software.
    """
    organizations = internet.organizations
    univ_a = organizations.by_name("univ1")
    univ_b = organizations.by_name("univ2")
    journal = ChangeJournal(internet)
    # Mutual secondaries: zone A -> ns B -> zone B -> ns A -> zone A.
    journal.add_zone_nameserver(univ_a.domain, univ_b.nameservers[0])
    journal.add_zone_nameserver(univ_b.domain, univ_a.nameservers[0])
    # A brand-new server swapped into a hosted site's delegation.
    journal.add_server("ns9.webhost1.com", software="BIND 9.2.1",
                       organization="webhost1")
    site = next(record.name.parent() for record in prev.resolved_records()
                if record.category == "small-business")
    journal.add_zone_nameserver(site, "ns9.webhost1.com")
    # A new zone cut out of an existing university zone.
    univ_c = organizations.by_name("univ3")
    department = univ_c.domain.child("math")
    journal.set_zone_nameservers(department, [univ_c.nameservers[0]])
    # DNSSEC deployment progress (0.4 -> 0.7, same seed: strict superset).
    journal.deploy_dnssec(fraction=0.7)
    # Software change on a server inside the forged SCC, plus a region move.
    journal.set_server_software(univ_a.nameservers[0], "BIND 8.2.2")
    journal.move_server_region(univ_b.nameservers[0], "eu")
    return journal, (univ_a.domain, univ_b.domain, site, department)


@pytest.fixture(scope="module", params=SEEDS)
def delta_world(request):
    """Per-seed: previous results, mutated world, journal, and a cold run."""
    internet = _make_internet(request.param)
    engine = SurveyEngine(internet,
                          config=EngineConfig(passes=PASSES_BEFORE))
    prev = engine.run()
    journal, markers = _mutate(internet, prev)
    outcome = engine.run_delta(prev, journal)
    cold = SurveyEngine(internet,
                        config=EngineConfig(passes=PASSES_AFTER)).run()
    return {
        "internet": internet, "engine": engine, "prev": prev,
        "journal": journal, "markers": markers, "outcome": outcome,
        "cold": cold,
    }


def test_carried_engine_delta_is_byte_identical(delta_world):
    """Same engine, serial backend, warm universe surgically invalidated."""
    outcome, cold = delta_world["outcome"], delta_world["cold"]
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)
    assert diff_results(outcome.results, cold).is_identical


def test_delta_actually_skips_clean_names(delta_world):
    outcome, prev = delta_world["outcome"], delta_world["prev"]
    stats = outcome.stats
    assert 0 < stats.dirty_names < stats.total_names
    assert stats.patched_names == stats.total_names - stats.dirty_names
    assert stats.created_zones == 1 and stats.edited_zones >= 4
    # Clean records are patched from the previous snapshot, not recomputed:
    # the very same record objects flow through.
    clean = next(record.name for record in prev.records
                 if record.name not in outcome.dirty)
    assert outcome.results.record_for(clean) is prev.record_for(clean)


def test_mutation_touched_a_cyclic_scc(delta_world):
    """The forged mutual-secondary web is a real cycle in the universe."""
    engine = delta_world["engine"]
    univ_a, univ_b = delta_world["markers"][0], delta_world["markers"][1]
    universe = engine.builder.universe
    from repro.core.graphcore import ZONE_CODE
    node_a = universe.find_id(ZONE_CODE, univ_a)
    node_b = universe.find_id(ZONE_CODE, univ_b)
    assert node_a is not None and node_b is not None
    # One Tarjan pass puts both zones in one strongly connected component.
    closures = engine.builder.closures
    assert any(node_a in members and node_b in members
               for members in closures.components(node_a, ()))
    # Both zone closures collapsed onto the same SCC closure.
    assert closures.closure_mask_id(node_a) == closures.closure_mask_id(node_b)


@pytest.mark.parametrize("backend", ("socket",))
def test_fresh_engine_delta_matches_cold_on_every_backend(delta_world,
                                                          backend,
                                                          worker_trio):
    """A fresh engine on the mutated world re-surveys dirty names on any
    partitioned backend and still reproduces the cold snapshot (modulo the
    backend-config metadata keys, as in the full-run parity tests)."""
    internet, prev = delta_world["internet"], delta_world["prev"]
    journal, cold = delta_world["journal"], delta_world["cold"]
    with SurveyEngine(internet, config=EngineConfig(
            backend=backend, worker_addrs=tuple(worker_trio),
            passes=PASSES_AFTER)) as engine:
        outcome = engine.run_delta(prev, journal)
    assert outcome.stats.dirty_names == delta_world["outcome"].stats.dirty_names
    assert _snapshot_bytes(outcome.results, drop_backend_keys=True) == \
        _snapshot_bytes(cold, drop_backend_keys=True)
    assert outcome.results.metadata["backend"] == backend


def test_delta_from_saved_snapshot(delta_world, tmp_path):
    """The CLI path: previous results loaded from disk, fresh engine."""
    internet, journal = delta_world["internet"], delta_world["journal"]
    cold = delta_world["cold"]
    path = save_results(delta_world["prev"], tmp_path / "prev.json")
    previous = load_results(path)
    engine = SurveyEngine(internet, config=EngineConfig(passes=PASSES_AFTER))
    outcome = engine.run_delta(previous, journal)
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)


def test_rerun_after_delta_still_matches_cold(delta_world):
    """The carried engine stays coherent: a full run after the delta run
    reproduces the cold snapshot too (nothing half-invalidated lingers)."""
    engine, cold = delta_world["engine"], delta_world["cold"]
    again = engine.run()
    assert _snapshot_bytes(again) == _snapshot_bytes(cold)


def test_delta_results_carry_no_delta_metadata(delta_world):
    """Byte-identity implies bookkeeping must live in DeltaStats only."""
    outcome = delta_world["outcome"]
    assert set(outcome.results.metadata) == set(delta_world["cold"].metadata)
    stats = outcome.stats.to_dict()
    assert stats["dirty_names"] == outcome.stats.dirty_names
    assert 0.0 < stats["dirty_fraction"] < 1.0


# -- DirtyIndex unit behaviour ---------------------------------------------------------

def _change_set(**overrides):
    base = dict(edited_zones={}, created_zones=(), chain_zones=(),
                touched_hosts=frozenset(), refingerprint_hosts=frozenset(),
                added_names=frozenset(), dnssec_deployments=(),
                dirty_all=False)
    base.update(overrides)
    return ChangeSet(**base)


def test_dirty_index_maps_hosts_to_dependent_names(delta_world):
    prev = delta_world["prev"]
    index = DirtyIndex(prev)
    record = next(r for r in prev.resolved_records() if r.tcb_servers)
    host = sorted(record.tcb_servers)[0]
    dependants = index.names_depending_on(host)
    assert record.name in dependants
    expected = {r.name for r in prev.records if host in r.tcb_servers}
    dirty = index.dirty_names(_change_set(touched_hosts=frozenset((host,))))
    assert dirty == expected


def test_dirty_index_created_zone_dirties_names_below_it(delta_world):
    prev = delta_world["prev"]
    index = DirtyIndex(prev)
    record = prev.resolved_records()[0]
    apex = record.name.parent()
    dirty = index.dirty_names(_change_set(created_zones=(apex,)))
    assert record.name in dirty
    # Dirty = names below the apex, unresolved names, and names elsewhere
    # that depend on a *host* below the apex (whose resolution gains a
    # delegation level) — nothing more.
    def depends_on_host_below(name):
        return any(host.is_subdomain_of(apex)
                   for host in prev.record_for(name).tcb_servers)
    assert all(name.is_subdomain_of(apex) or
               not prev.record_for(name).resolved or
               depends_on_host_below(name) for name in dirty)


def test_dirty_index_dirty_all_falls_back_to_everything(delta_world):
    prev = delta_world["prev"]
    index = DirtyIndex(prev)
    dirty = index.dirty_names(_change_set(dirty_all=True))
    assert dirty == {record.name for record in prev.records}


def test_redelegation_to_ancestor_path_server_matches_cold():
    """Re-delegating a zone to a server that also serves an ancestor-path
    zone changes where a walk *terminates* (the shared server answers
    instead of referring), so retained ancestor chain prefixes would
    diverge from a cold walk — the invalidation must drop them."""
    internet = _make_internet(777)
    engine = SurveyEngine(internet, config=EngineConfig())
    prev = engine.run()

    victim = next(record.name.parent() for record in prev.resolved_records()
                  if record.category == "small-business")
    journal = ChangeJournal(internet)
    # Root servers serve every ancestor of every name: after this, a cold
    # walk for names under the victim zone gets an authoritative answer at
    # its very first query and records an empty cut chain.
    journal.set_zone_nameservers(victim, [DomainName("a.root-servers.net")])

    outcome = engine.run_delta(prev, journal)
    cold = SurveyEngine(internet, config=EngineConfig()).run()
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)
    record = outcome.results.record_for(
        next(name for name in outcome.dirty
             if name.is_subdomain_of(victim)))
    assert record.tcb_size == cold.record_for(record.name).tcb_size


def test_new_cut_above_a_depended_on_host_dirties_external_dependants():
    """Cutting a zone above a host adds a delegation level to the host's
    own resolution, so names *elsewhere* whose TCB holds that host change
    too — the below-the-apex ancestry walk alone would miss them."""
    internet = _make_internet(888)
    univ = internet.organizations.by_name("univ1")
    host = univ.domain.child("dept").child("ns")
    setup = ChangeJournal(internet)
    setup.add_server(str(host), software="BIND 9.2.1")

    engine = SurveyEngine(internet, config=EngineConfig())
    site = next(record.name.parent() for record in engine.run().records
                if record.resolved and record.category == "small-business")
    setup.add_zone_nameserver(site, host)
    prev = SurveyEngine(internet, config=EngineConfig()).run()
    dependant = next(record.name for record in prev.resolved_records()
                     if host in record.tcb_servers)
    assert not dependant.is_subdomain_of(univ.domain)

    journal = ChangeJournal(internet)
    # The new cut's own NS must sit outside the dependant's previous TCB,
    # or the touched-host union would mask the ancestry gap under test.
    other = internet.organizations.by_name("univ2")
    assert other.nameservers[0] not in \
        prev.record_for(dependant).tcb_servers
    journal.set_zone_nameservers(univ.domain.child("dept"),
                                 [other.nameservers[0]])
    fresh = SurveyEngine(internet, config=EngineConfig())
    outcome = fresh.run_delta(prev, journal)
    cold = SurveyEngine(internet, config=EngineConfig()).run()
    assert dependant in outcome.dirty
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)


def test_ghost_redelegation_round_trip_matches_cold():
    """Delegating a zone to ghosts and back: the ghost hostnames enter
    dependant TCBs through the referral chain, so both the break and the
    heal must map through the footprint machinery and stay byte-identical
    to cold surveys."""
    internet = _make_internet(666)
    engine = SurveyEngine(internet, config=EngineConfig())
    baseline = engine.run()
    victim = next(record.name.parent()
                  for record in baseline.resolved_records()
                  if record.category == "small-business")
    breaker = ChangeJournal(internet)
    breaker.set_zone_nameservers(victim, ["ghost1.nowhere.net",
                                          "ghost2.nowhere.net"])
    outcome = engine.run_delta(baseline, breaker)
    prev = outcome.results
    broken = next(record for record in prev.records
                  if record.name.is_subdomain_of(victim))
    assert DomainName("ghost1.nowhere.net") in broken.tcb_servers

    provider = internet.organizations.by_name("webhost1")
    healer = ChangeJournal(internet)
    healer.set_zone_nameservers(victim, provider.nameservers[:2])
    healed = engine.run_delta(prev, healer)
    cold = SurveyEngine(internet, config=EngineConfig()).run()
    assert broken.name in healed.dirty
    assert _snapshot_bytes(healed.results) == _snapshot_bytes(cold)


def test_zone_edits_dirty_unresolved_names():
    """Names that failed to resolve have no TCB footprint at all, so any
    delegation-fabric change must conservatively re-survey them."""
    internet = _make_internet(31337)
    engine = SurveyEngine(internet, config=EngineConfig())
    adhoc = DomainName("www.never-registered.zz")
    directory = [entry.name for entry in internet.directory.entries()[:10]]
    prev = engine.run(names=directory + [adhoc])
    assert not prev.record_for(adhoc).resolved

    index = DirtyIndex(prev)
    some_zone = directory[0].parent()
    dirty = index.dirty_names(_change_set(edited_zones={some_zone: []}))
    assert adhoc in dirty
    # Without any delegation change the unresolved name stays patched.
    assert adhoc not in index.dirty_names(_change_set())


def test_ghost_nameserver_coming_online_is_dirty(tmp_path):
    """A lame delegation's hostname starting to answer flips fingerprint
    verdicts for every name depending on it — the delta run must notice."""
    internet = _make_internet(555)
    ghost = DomainName("ghost.webhost2.com")
    provider = internet.organizations.by_name("webhost2")
    ChangeJournal(internet).add_zone_nameserver(provider.domain, ghost)

    engine = SurveyEngine(internet, config=EngineConfig())
    prev = engine.run()
    assert any(ghost in record.tcb_servers for record in prev.records)
    assert not prev.fingerprints[ghost].reachable

    journal = ChangeJournal(internet)
    journal.add_server(str(ghost), software="BIND 8.2.2")
    outcome = engine.run_delta(prev, journal)
    cold = SurveyEngine(internet, config=EngineConfig()).run()
    assert outcome.stats.dirty_names > 0
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)
    assert ghost in outcome.results.vulnerable_servers


def test_empty_journal_patches_everything(delta_world):
    """No mutations -> zero dirty names, results equal the previous run
    (which equals the *pre-mutation* world only; here the world already
    mutated, so run the check against a fresh world instead)."""
    internet = _make_internet(31337)
    engine = SurveyEngine(internet, config=EngineConfig())
    prev = engine.run()
    outcome = engine.run_delta(prev, ChangeJournal(internet))
    assert outcome.stats.dirty_names == 0
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(prev)


def _shallow_engine(internet, max_depth):
    engine = SurveyEngine(internet, config=EngineConfig(popular_count=20))
    engine.builder.max_depth = max_depth
    return engine


def test_redelegation_round_trip_under_a_small_max_depth_matches_cold(
        monkeypatch):
    """A zone goes A -> B -> A over two journalled epochs on builders
    whose max_depth leaves hosts unexpanded.  Zone rows settled in one
    epoch must not stand in the next: after each epoch's
    ``apply_changes``, every closure the warm builder holds equals a cold
    engine's.  (``run_delta`` refuses such a builder; the builder-level
    update is what stays in use.)"""
    reached = {}
    expand = DelegationGraphBuilder._expand_host

    def recording_expand(builder, hostname, hnode, depth):
        if hostname not in builder._expanded_hosts:
            reached.setdefault(hostname, []).append(
                depth > builder.max_depth)
        expand(builder, hostname, hnode, depth)

    monkeypatch.setattr(DelegationGraphBuilder, "_expand_host",
                        recording_expand)
    internet = InternetGenerator(TINY).generate()
    engine = _shallow_engine(internet, 2)
    previous = engine.run()
    # Some host was first reached past the limit and later within it.
    assert any(visits[0] and not all(visits) for visits in reached.values())

    zone = DomainName("site2.com")
    before = zone_nameserver_union(internet, zone)
    after = internet.organizations.by_name("univ2").nameservers[:2]
    for nameservers in (after, before):
        journal = ChangeJournal(internet)
        journal.set_zone_nameservers(zone, nameservers)
        changes = journal.changes()
        dirty = set(DirtyIndex.of(previous).dirty_names(changes))
        assert dirty
        engine.apply_changes(changes, dirty)
        cold_engine = _shallow_engine(internet, 2)
        cold = cold_engine.run()
        for record in cold.records:
            assert engine.builder.closure_of(record.name) == \
                cold_engine.builder.closure_of(record.name)
        previous = cold


#: A world where a walk truncated at max_depth 3 first reaches hosts at
#: depths a delta's stale-host re-walk does not replay.
DEEP = GeneratorConfig(seed=20040722, sld_count=150,
                       directory_name_count=240, university_count=32,
                       hosting_provider_count=10, isp_count=8, alexa_count=40)


def _redelegate_site1(internet) -> ChangeJournal:
    journal = ChangeJournal(internet)
    journal.set_zone_nameservers(
        DomainName("site1.com"),
        internet.organizations.by_name("univ1").nameservers[:2])
    return journal


def test_delta_refuses_a_builder_truncated_at_max_depth():
    """A row depends on the depth its host was first reached at, so a
    delta over a truncated walk would differ from a cold survey: it is
    refused, naming max_depth."""
    internet = InternetGenerator(DEEP).generate()
    engine = _shallow_engine(internet, 3)
    previous = engine.run()
    assert engine.builder.depth_truncated
    with pytest.raises(ValueError, match="max_depth=3"):
        engine.run_delta(previous, _redelegate_site1(internet))


def test_delta_runs_at_the_default_max_depth():
    internet = InternetGenerator(DEEP).generate()
    engine = SurveyEngine(internet, config=EngineConfig(popular_count=20))
    previous = engine.run()
    assert not engine.builder.depth_truncated
    outcome = engine.run_delta(previous, _redelegate_site1(internet))
    cold = SurveyEngine(internet, config=EngineConfig(popular_count=20)).run()
    assert outcome.dirty
    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)


def test_zone_cut_under_a_deployment_signs_like_a_cold_deployment():
    """A zone cut out of a signed world signs, and gets its DS, exactly
    when a deployment of the cut world would sign it, so the delta equals
    a cold survey and a cut the deployment picks validates."""
    internet = InternetGenerator(TINY).generate()
    passes = ("dnssec:fraction=0.3",)
    engine = SurveyEngine(internet, config=EngineConfig(passes=passes))
    previous = engine.run()

    def signed(apex):
        return internet.zones[apex].get_rrset(apex, RRType.DNSKEY) \
            is not None

    # Surveyed names one label below a signed second-level zone.
    candidates = sorted(
        (entry.name for entry in internet.directory.entries()
         if entry.name.depth > 2 and entry.name.parent() in internet.zones
         and entry.name.parent().depth == 2 and signed(entry.name.parent())
         and entry.name not in internet.zones), key=name_key)
    picked = [name for name in candidates
              if _deployment_score("repro-dnssec", name) < 0.3][:2]
    left = [name for name in candidates
            if _deployment_score("repro-dnssec", name) >= 0.3][:1]
    assert len(picked) == 2 and len(left) == 1
    journal = ChangeJournal(internet)
    for apex in picked + left:
        journal.set_zone_nameservers(
            apex, zone_nameserver_union(internet, apex.parent())[:2])
    outcome = engine.run_delta(previous, journal)
    cold = SurveyEngine(internet, config=EngineConfig(passes=passes)).run()

    assert _snapshot_bytes(outcome.results) == _snapshot_bytes(cold)
    assert [signed(apex) for apex in picked + left] == [True, True, False]
    statuses = [outcome.results.record_for(apex).extras["dnssec_status"]
                for apex in picked + left]
    assert statuses == ["secure", "secure", "insecure"]
