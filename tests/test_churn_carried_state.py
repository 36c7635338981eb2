"""The state a churn epoch carries to the next one equals a fresh rebuild.

Each epoch keeps three things current instead of re-deriving them from
the whole world: the host -> served-zones index (kept by the journals),
the delta engine's dirty index and per-server TCB counts (carried from
result set to result set), and the epoch diff, which compares only the
re-surveyed names.  After every epoch of two seeded churn runs with
server deaths, each is checked against its from-scratch form, and the
epoch's results against a cold survey of the mutated world.  Result sets
``run_delta`` did not produce — a lazy epoch-store view, a JSON-loaded
snapshot — carry nothing and must rebuild.
"""

import gc
import weakref

import pytest

from repro.core import delta as delta_module
from repro.core.delta import DirtyIndex
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.passes import build_passes
from repro.core.snapshot import diff_results, load_results, save_results
from repro.core.snapstore import EpochStore
from repro.topology.changes import (
    ChangeJournal,
    ServedIndex,
    zone_nameserver_union,
)
from repro.topology.churn import ChurnModel, ChurnRates
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
