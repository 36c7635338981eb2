"""The state a churn epoch carries to the next one equals a fresh rebuild.

Each epoch keeps four things current instead of re-deriving them from
the whole world: the host -> served-zones index (kept by the journals),
the delta engine's dirty index and per-server TCB counts (carried from
result set to result set), the census behind the timeline row and the
pass summary (carried on the dirty index), and the epoch diff, which
compares only the re-surveyed names.  After every epoch of two seeded churn runs with
server deaths, each is checked against its from-scratch form, and the
epoch's results against a cold survey of the mutated world.  Result sets
``run_delta`` did not produce — a lazy epoch-store view, a JSON-loaded
snapshot — carry nothing and must rebuild.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.core import delta as delta_module
from repro.core.delegation import _ChainIndex
from repro.core.delta import DirtyIndex
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.passes import build_passes
from repro.core.snapshot import diff_results, load_results, save_results
from repro.core.snapstore import EpochStore
from repro.core.survey import SurveyResults
from repro.core.timeline import (_reduce_epoch, _with_dnssec_fraction,
                                 dnssec_spec_options)
from repro.topology.changes import (
    ChangeJournal,
    ServedIndex,
    zone_nameserver_union,
)
from repro.dns.cache import ResolverCache
from repro.dns.name import DomainName, name_key
from repro.dns.resolver import IterativeResolver
from repro.topology.churn import (
    INFRASTRUCTURE_SUFFIXES,
    PINNED_HOME_ZONE_KINDS,
    TRANSFER_TARGET_KINDS,
    ChurnModel,
    ChurnRates,
)
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)
RATES = ChurnRates(transfer=1.0, death=1.0, upgrade=1.0, downgrade=0.5,
                   region=1.0)
PASSES = ("availability", "value")
EPOCHS = 4


def _engine(world):
    return SurveyEngine(world, config=EngineConfig(
        popular_count=20, passes=build_passes(list(PASSES))))


def _snapshot_bytes(results, path):
    return save_results(results, path, format="binary").read_bytes()


def _fresh_counts(results):
    counts = {}
    for record in results.records:
        if record.resolved:
            for host in record.tcb_servers:
                counts[host] = counts.get(host, 0) + 1
    return counts


def _index_view(index):
    """Everything a DirtyIndex answers, in comparable form."""
    return (sorted(index.names()), index.resolved_count(),
            {host: set(index.names_depending_on(host))
             for host in index.hosts()})


def _assert_served_index_is_current(world):
    index = world.served_index
    unions = {apex: zone_nameserver_union(world, apex)
              for apex in world.zones}
    for apex, union in unions.items():
        assert index.union(apex) == tuple(union)
    hosts = {host for union in unions.values() for host in union}
    for host in hosts | set(world.servers):
        # The journal's order: world zone order, as a full scan finds them.
        assert index.serving(host) == [apex for apex, union
                                       in unions.items() if host in union]


def _diff_view(diff):
    return (diff.changed, diff.common, diff.numeric, diff.transitions,
            [(change.name, change.fields) for change in diff.top_movers(10)],
            diff.only_in_a, diff.only_in_b)


@pytest.mark.parametrize("churn_seed", [5, 11])
def test_carried_state_matches_a_rebuild_every_epoch(churn_seed, tmp_path):
    world = InternetGenerator(TINY).generate()
    model = ChurnModel(world, RATES, seed=churn_seed)
    deaths = 0
    with _engine(world) as engine:
        results = engine.run()
        for epoch in range(1, EPOCHS + 1):
            journal = ChangeJournal(world)
            events = model.advance(journal)
            deaths += sum(event.kind == "server-remove" for event in events)
            _assert_served_index_is_current(world)

            changes = journal.changes()
            carried = DirtyIndex.of(results)
            assert (carried is results._dirty_index) == (epoch > 1)
            assert carried.dirty_names(changes) == \
                DirtyIndex(results).dirty_names(changes)

            outcome = engine.run_delta(results, journal)
            current = outcome.results
            assert _index_view(current._dirty_index) == \
                _index_view(DirtyIndex(current))
            assert current.server_names_controlled == _fresh_counts(current)

            bounded = diff_results(results, current, dirty=outcome.dirty)
            assert _diff_view(bounded) == \
                _diff_view(diff_results(results, current))
            results = current

    with _engine(world) as cold_engine:
        cold = cold_engine.run()
    assert _snapshot_bytes(results, tmp_path / "delta.rsnap") == \
        _snapshot_bytes(cold, tmp_path / "cold.rsnap")
    assert deaths >= 2


def test_served_index_follows_new_cuts_and_removals():
    """A cut between a zone and its parent re-homes the delegation below
    it; the journal-kept index must still equal a rebuild."""
    world = InternetGenerator(TINY).generate()
    index = ServedIndex.attach(world)
    parent = next(apex for apex in world.zones
                  if apex.depth == 2 and apex.tld == "com")
    host = index.union(parent)[0]
    deep, middle = parent.child("b").child("a"), parent.child("b")
    journal = ChangeJournal(world)
    spare = journal.add_server(parent.child("ns-spare")).hosts_after[0]
    journal.set_zone_nameservers(deep, [spare])
    journal.set_zone_nameservers(middle, [host])
    assert world.zones[middle].get_delegation(deep) is not None
    journal.add_zone_nameserver(deep, host)
    journal.remove_server(spare)
    assert world.served_index is index
    assert index.serving(host)[-2:] == [deep, middle]
    _assert_served_index_is_current(world)


def test_an_attached_index_lets_a_dropped_world_go():
    """No cycle through the index: a world is freed as soon as it is
    dropped, not at the next full collection (which a timeline started
    after it would pay for)."""
    world = InternetGenerator(TINY).generate()
    ChurnModel(world, RATES, seed=5).advance(ChangeJournal(world))
    assert world.served_index is not None
    gc.collect()
    gc.disable()
    try:
        dropped = weakref.ref(world)
        del world
        assert dropped() is None
    finally:
        gc.enable()


#: Float (availability, availability_mc), int (availability_spof), bool
#: (dnssec_detected) and string (dnssec_status) pass columns.
COLUMN_PASSES = ("availability:up=0.7;samples=64;spof=true", "value",
                 "dnssec:fraction=0.3")
#: DNSSEC adoption grows every epoch, so the dnssec columns move too.
COLUMN_RATES = ChurnRates(transfer=2.0, death=1.0, upgrade=1.0,
                          downgrade=0.5, region=1.0, dnssec=0.1)


def _column_engine(world, specs):
    return SurveyEngine(world, config=EngineConfig(
        popular_count=20, passes=build_passes(list(specs))))


def _single_server(world, journal, epoch):
    """Leave one second-level zone with one of its servers: a single
    point of failure for every name under it."""
    zones = sorted((apex for apex in world.zones if apex.depth == 2 and
                    len(world.served_index.union(apex)) > 1), key=name_key)
    apex = zones[(epoch * 7) % len(zones)]
    journal.set_zone_nameservers(apex,
                                 list(world.served_index.union(apex)[:1]))


def _uncarried(results):
    """The same result set with nothing carried: its census and index
    are counted afresh."""
    copy = dataclasses.replace(results)
    assert copy._dirty_index is None
    return copy


def _census_view(results):
    """Everything the census answers through the result set."""
    columns = results.columns()
    return (columns.names_resolved(), columns.mean_tcb_size(),
            [columns.tcb_percentile(pct) for pct in (0, 37.5, 50, 95, 100)],
            columns.mean_mincut_size(),
            columns.fraction_completely_hijackable(),
            columns.fraction_with_vulnerable_dependency(),
            columns.extras_summary(), results.extras_columns(),
            {column: results.numeric_extra_count(column)
             for column in results.extras_columns()},
            results.headline())


@pytest.mark.parametrize("churn_seed", [5, 11])
def test_carried_census_and_index_match_a_rebuild_every_epoch(churn_seed,
                                                              tmp_path):
    world = InternetGenerator(TINY).generate()
    fraction, dnssec_seed, sign_tlds = dnssec_spec_options(
        list(COLUMN_PASSES))
    model = ChurnModel(world, COLUMN_RATES, seed=churn_seed,
                       initial_dnssec=fraction, dnssec_seed=dnssec_seed,
                       dnssec_sign_tlds=sign_tlds)
    summaries = []
    with _column_engine(world, COLUMN_PASSES) as engine:
        results = engine.run()
        summaries.append(results.extras_summary())
        for epoch in range(1, EPOCHS + 1):
            journal = ChangeJournal(world)
            events = model.advance(journal)
            _single_server(world, journal, epoch)
            changes = journal.changes()
            older = results
            outcome = engine.run_delta(older, journal)
            results = outcome.results
            index = results._dirty_index

            # The row reduced off the carried census equals the row
            # reduced off a census counted from the same records.
            reduced = [_reduce_epoch(epoch, current, older, events,
                                     outcome.stats, 0.0,
                                     model.dnssec_fraction, outcome.dirty)
                       .to_dict() for current in (results,
                                                  _uncarried(results))]
            assert reduced[0] == reduced[1]
            assert _census_view(results) == \
                _census_view(_uncarried(results))
            if epoch > 1:
                assert index._census is not None  # carried, not recounted
            summaries.append(results.extras_summary())

            # The older set's index was advanced away from: of() rebuilds
            # it, equal to a from-scratch build.
            rebuilt = DirtyIndex.of(older)
            assert rebuilt is not older._dirty_index
            assert _index_view(rebuilt) == _index_view(DirtyIndex(older))
            assert _index_view(DirtyIndex.of(results)) == \
                _index_view(DirtyIndex(results))

            # A second delta from the older set, on an engine configured
            # for the deployment the journal grew to, is a cold survey.
            specs = _with_dnssec_fraction(COLUMN_PASSES,
                                          model.dnssec_fraction)
            with _column_engine(world, specs) as second_engine:
                second = second_engine.run_delta(older, changes).results
            with _column_engine(world, specs) as cold_engine:
                cold = cold_engine.run()
            cold_bytes = _snapshot_bytes(cold, tmp_path / "cold.rsnap")
            assert _snapshot_bytes(second, tmp_path / "second.rsnap") == \
                cold_bytes
            assert _snapshot_bytes(results, tmp_path / "delta.rsnap") == \
                cold_bytes

    # Every kind of pass column moved.
    for key in ("availability", "availability_mc", "availability_spof",
                "dnssec_detected", "dnssec_status=secure"):
        assert len({summary[key] for summary in summaries}) > 1, key


def _index_builds(monkeypatch):
    """Count from-scratch DirtyIndex builds."""
    builds = []
    original = delta_module.DirtyIndex.__init__

    def counting_init(self, previous):
        builds.append(previous)
        original(self, previous)

    monkeypatch.setattr(delta_module.DirtyIndex, "__init__", counting_init)
    return builds


@pytest.mark.parametrize("reload", ["lazy-store-view", "json-snapshot"])
def test_result_sets_run_delta_did_not_produce_rebuild(reload, tmp_path,
                                                       monkeypatch):
    world = InternetGenerator(TINY).generate()
    model = ChurnModel(world, RATES, seed=5)
    store = EpochStore(tmp_path / "store")
    builds = _index_builds(monkeypatch)
    with _engine(world) as engine:
        baseline = engine.run()
        store.append(baseline)
        journal = ChangeJournal(world)
        model.advance(journal)
        first = engine.run_delta(baseline, journal)
        store.append(first.results, previous=baseline, dirty=first.dirty)
        if reload == "lazy-store-view":
            previous = store.load_epoch(1)
        else:
            previous = load_results(save_results(
                first.results, tmp_path / "epoch1.json", format="json"))
        assert previous._dirty_index is None

        del builds[:]
        journal = ChangeJournal(world)
        model.advance(journal)
        second = engine.run_delta(previous, journal)
        assert builds == [previous]

        # Its product carries state again: the next epoch builds nothing.
        del builds[:]
        journal = ChangeJournal(world)
        model.advance(journal)
        third = engine.run_delta(second.results, journal)
        assert builds == []

    with _engine(world) as cold_engine:
        cold = cold_engine.run()
    assert _snapshot_bytes(third.results, tmp_path / "delta.rsnap") == \
        _snapshot_bytes(cold, tmp_path / "cold.rsnap")


# -- kept indexes against the full scans they replace ----------------------------------

#: Deaths and transfers every epoch; the test adds a new cut per epoch and
#: empties, then refills, one operator's nameserver list.
BUSY_RATES = ChurnRates(transfer=2.0, death=2.0, upgrade=1.0, downgrade=1.0,
                        region=1.0)


def _scanned_pools(model, world):
    """The candidate pools as a full scan of the world finds them."""
    served = world.served_index

    def infrastructure(name):
        return any(name.is_subdomain_of(suffix)
                   for suffix in INFRASTRUCTURE_SUFFIXES)

    backbone = {host for apex in world.zones
                if apex.depth <= 1 or infrastructure(apex)
                for host in served.union(apex)}
    organizations = world.organizations
    transferable = []
    for apex in world.zones:
        if apex.depth < 2 or infrastructure(apex):
            continue
        if any(host in backbone for host in served.union(apex)):
            continue
        owner = organizations.by_domain(apex)
        if owner is not None and owner.nameservers and \
                owner.kind in PINNED_HOME_ZONE_KINDS:
            continue
        transferable.append(apex)
    operators = [org for kind in TRANSFER_TARGET_KINDS
                 for org in organizations.of_kind(kind) if org.nameservers]
    mortal, mutable = [], []
    for host in world.servers:
        zones = served.zones_of(host)
        if not zones or host in backbone or infrastructure(host):
            continue
        mutable.append(host)
        if len(zones) <= model.death_fanout_limit:
            mortal.append(host)
    return (backbone, sorted(transferable, key=name_key),
            sorted(operators, key=lambda org: org.name),
            sorted(mortal, key=name_key), sorted(mutable, key=name_key))


def _kept_pools(model):
    return (model._backbone, model._transferable, model._operators,
            model._mortal, model._mutable)


def _scanned_stale_chains(chains, changes):
    """The chains a full scan of the chain cache finds stale, in order."""
    edited, created = changes.edited_zones, changes.created_zones
    return [name for name, cuts in chains.items()
            if any(cut.zone in edited for cut in cuts)
            or any(name.is_subdomain_of(apex) for apex in created)]


def _scanned_prefix_drops(prefixes, apexes):
    edited = {apex.labels for apex in apexes}
    at_or_above = {labels[start:] for labels in edited
                   for start in range(len(labels) + 1)}
    return {labels for labels in prefixes
            if labels in at_or_above or
            any(labels[start:] in edited
                for start in range(1, len(labels) + 1))}


def _scanned_purge(entries, names, subtrees):
    exact = {DomainName(name) for name in names}
    apexes = [DomainName(apex) for apex in subtrees]
    return {key for key in entries if key[0] in exact or
            any(key[0].is_subdomain_of(apex) for apex in apexes)}


def _apex_ns_keys(resolver):
    """The apex-NS memo's (zone, targets) keys."""
    return {(zone, targets)
            for zone, answers in resolver._apex_ns_cache.items()
            for targets in answers}


def _record_drops(monkeypatch):
    """Wrap the indexed invalidations; each call's drops are checked
    against the full scan over the state it started from."""
    calls = {"stale": [], "invalidate": 0, "purge": 0}

    stale = _ChainIndex.stale

    def recording_stale(self, edited, created):
        found = stale(self, edited, created)
        calls["stale"].append(found)
        return found

    invalidate = IterativeResolver.invalidate_zones

    def checked_invalidate(self, apexes):
        apexes = [DomainName(apex) for apex in apexes]
        prefixes = dict(self._chain_prefix_cache)
        memo = _apex_ns_keys(self)
        invalidate(self, apexes)
        assert prefixes.keys() - self._chain_prefix_cache.keys() == \
            _scanned_prefix_drops(prefixes, apexes)
        assert memo - _apex_ns_keys(self) == \
            {key for key in memo if key[0] in set(apexes)}
        calls["invalidate"] += 1

    purge = ResolverCache.purge

    def checked_purge(self, names=(), subtrees=()):
        names, subtrees = list(names), list(subtrees)
        entries = dict(self._entries)
        removed = purge(self, names, subtrees)
        assert entries.keys() - self._entries.keys() == \
            _scanned_purge(entries, names, subtrees)
        calls["purge"] += 1
        return removed

    monkeypatch.setattr(_ChainIndex, "stale", recording_stale)
    monkeypatch.setattr(IterativeResolver, "invalidate_zones",
                        checked_invalidate)
    monkeypatch.setattr(ResolverCache, "purge", checked_purge)
    return calls


def _cut_below(world, journal, epoch):
    """Cut a new zone at a surveyed name that sits in a second-level zone."""
    names = sorted((entry.name for entry in world.directory.entries()
                    if entry.name.depth > 2 and
                    entry.name.parent() in world.zones and
                    entry.name.parent().depth == 2 and
                    entry.name not in world.zones), key=name_key)
    apex = names[(epoch * 7) % len(names)]
    servers = world.served_index.union(apex.parent())
    journal.set_zone_nameservers(apex, list(servers[:2]))
    return apex


def _empty_operator(world, journal, operator, donor):
    """Move every zone off ``operator``'s servers and retire them."""
    for index, host in enumerate(list(operator.nameservers)):
        spare = host.parent().child(f"ns-spare{index}")
        journal.add_server(spare, organization=donor.name)
        for apex in world.served_index.serving(host):
            journal.add_zone_nameserver(apex, spare)
        journal.remove_server(host)


@pytest.mark.parametrize("churn_seed", [3, 8])
def test_kept_indexes_drop_what_a_full_scan_drops(churn_seed, tmp_path,
                                                  monkeypatch):
    world = InternetGenerator(TINY).generate()
    model = ChurnModel(world, BUSY_RATES, seed=churn_seed)
    served = ServedIndex.attach(world)
    backbone = _scanned_pools(model, world)[0]
    # An operator that takes transfers, and whose home zone only its
    # pinning keeps from being transferred itself.
    operators = sorted((org for kind in TRANSFER_TARGET_KINDS
                        for org in world.organizations.of_kind(kind)),
                       key=lambda org: org.name)
    operator = next(org for org in operators
                    if org.domain.depth >= 2 and served.union(org.domain)
                    and not backbone.intersection(served.union(org.domain)))
    donor = next(org for org in operators if org is not operator
                 and org.nameservers
                 and not backbone.intersection(org.nameservers))
    calls = _record_drops(monkeypatch)
    deaths = cuts = stale = 0
    with _engine(world) as engine:
        results = engine.run()
        for epoch in range(1, EPOCHS + 1):
            journal = ChangeJournal(world)
            events = model.advance(journal)
            deaths += sum(event.kind == "server-remove" for event in events)
            _cut_below(world, journal, epoch)
            if epoch == 1:
                # Off its own servers first, so that emptying them later
                # changes the home zone's pinning and nothing else.
                journal.set_zone_nameservers(operator.domain,
                                             donor.nameservers[:2])
            elif epoch == 2:
                _empty_operator(world, journal, operator, donor)
                assert not operator.nameservers
            elif epoch == 3:
                journal.add_server(operator.domain.child("ns-back"),
                                   organization=operator.name)
            else:
                # A long-tail box starts serving a TLD: the backbone grows.
                tld = next(apex for apex in world.zones if apex.depth == 1)
                journal.add_zone_nameserver(tld, model._mortal[0])
            # The pools the next epoch starts from, brought up to date.
            model._refresh_pools(world.served_index)
            assert _kept_pools(model) == _scanned_pools(model, world)
            assert (operator.domain in model._transferable) == (epoch == 2)
            assert (operator in model._operators) == (epoch != 2)

            changes = journal.changes()
            cuts += len(changes.created_zones)
            expected = _scanned_stale_chains(engine.builder._chain_cache,
                                             changes)
            del calls["stale"][:]
            outcome = engine.run_delta(results, journal)
            assert calls["stale"] == [expected]
            stale += len(expected)
            results = outcome.results

    assert calls["invalidate"] == EPOCHS and calls["purge"] >= EPOCHS
    assert deaths >= 2 and cuts == EPOCHS and stale >= EPOCHS
    with _engine(world) as cold_engine:
        cold = cold_engine.run()
    assert _snapshot_bytes(results, tmp_path / "delta.rsnap") == \
        _snapshot_bytes(cold, tmp_path / "cold.rsnap")

