"""Tests for the column reads behind ``headline`` and the figure reducers.

:meth:`SurveyResults.column` is the one way the headline and Figures 2-7
read a survey: in memory it reads the records, a lazy binary view reads
its column views (epoch overlays patched in) and hydrates nothing.  Both
must give the same values, every reducer over them the same numbers, and
:class:`SurveyColumns` must fetch each column once per reduction.
"""

import pytest

from repro.core import snapstore
from repro.core import timeline
from repro.core.snapshot import results_from_dict, results_to_dict
from repro.core.snapstore import EpochStore, open_results
from repro.core.survey import RECORD_FIELDS
from repro.core.timeline import run_churn_timeline
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)
RATES = ChurnRates(transfer=1.0, death=1.0, upgrade=1.0, downgrade=0.5,
                   region=1.0)
EPOCHS = 4


class _RecordingStore(EpochStore):
    """An epoch store that also keeps each epoch's live results, copied
    through the JSON codec as they are appended."""

    def __init__(self, root):
        super().__init__(root)
        self.live = []

    def append(self, results, previous=None, dirty=None):
        self.live.append(results_from_dict(results_to_dict(results)))
        return super().append(results, previous, dirty)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    world = InternetGenerator(TINY).generate()
    store = _RecordingStore(tmp_path_factory.mktemp("store"))
    run_churn_timeline(world, ChurnModel(world, RATES, seed=5),
                       epochs=EPOCHS, passes=("availability", "value"),
                       popular_count=20, store=store)
    assert len(store.live) == store.epochs == EPOCHS + 1
    return store


def _views(store):
    """(epoch, lazy view): the epoch-0 file opened as a plain binary
    snapshot, then every later epoch with its overlay rows."""
    yield 0, open_results(store.epoch_path(0))
    for epoch in range(1, store.epochs):
        view = store.load_epoch(epoch)
        assert view._source.overlays, "churn left an epoch unchanged"
        yield epoch, view


def test_lazy_columns_equal_in_memory_columns(store):
    for epoch, view in _views(store):
        twin = store.live[epoch]
        for field in RECORD_FIELDS:
            assert view.column(field) == twin.column(field), (epoch, field)
        assert view.hydrated_record_count == 0, epoch


def test_reducers_agree_without_hydrating(store):
    for epoch, view in _views(store):
        twin = store.live[epoch]
        assert view.headline() == twin.headline(), epoch
        for kind in ("all", "gtld", "cctld"):
            assert view.mean_tcb_by_tld(kind=kind) == \
                twin.mean_tcb_by_tld(kind=kind), (epoch, kind)
        assert view.extras_summary() == twin.extras_summary(), epoch
        for popular_only in (False, True):
            for reducer in ("tcb_sizes", "vulnerable_in_tcb_counts",
                            "safety_percentages", "safe_bottleneck_counts"):
                assert getattr(view, reducer)(popular_only) == \
                    getattr(twin, reducer)(popular_only), (epoch, reducer)
        assert view.hydrated_record_count == 0, epoch


def test_unknown_field_is_rejected_by_both(store):
    view = open_results(store.epoch_path(0))
    for results in (view, store.live[0]):
        with pytest.raises(ValueError, match="not a NameRecord field"):
            results.column("is_cctld_name")


def test_each_aggregate_map_is_built_on_first_use(store, monkeypatch):
    """The headline reads the server counts and the vulnerable set; no
    fingerprint is decoded for it, in a snapshot or an overlaid epoch."""
    def no_fingerprints(*args):
        raise AssertionError("fingerprints decoded")

        monkeypatch.setattr(snapstore, "_read_fingerprints", no_fingerprints)
    for epoch, view in _views(store):
        assert view.headline() == store.live[epoch].headline(), epoch
    monkeypatch.undo()
    for epoch, view in _views(store):
        twin = store.live[epoch]
        assert view.fingerprints == twin.fingerprints, epoch
        assert view.server_names_controlled == \
            twin.server_names_controlled, epoch
        assert view.vulnerable_servers == twin.vulnerable_servers, epoch
        assert view.compromisable_servers == twin.compromisable_servers
        assert view.popular_names == twin.popular_names, epoch


class _Stats:
    total_names = dirty_names = patched_names = 1
    dirty_fraction = 0.0


@pytest.mark.parametrize("reduction", ["headline", "epoch row"])
def test_a_reduction_fetches_each_column_once(store, monkeypatch,
                                              reduction):
    results = store.live[0]
    fetched = []
    for reader in ("column", "extra_column"):
        read = getattr(results, reader)
        monkeypatch.setattr(
            results, reader,
            lambda field, read=read, reader=reader:
            fetched.append((reader, field)) or read(field))
    if reduction == "headline":
        results.headline()
    else:
        timeline._reduce_epoch(1, results, None, [], _Stats, 0.0, 0.0)
    assert ("column", "resolved") in fetched
    assert (("extra_column", "availability") in fetched) == \
        (reduction == "epoch row")
    assert len(fetched) == len(set(fetched))
