"""Tests for how an :class:`EpochStore` serves reads.

Every view a store opens over one keyframe shares that keyframe's reader
(its caches and name indexes), held by the store only by weak reference;
rows naming one set id hydrate to one shared frozenset; two views over
one keyframe diff by their overlay rows alone, building no name index; a
lookup by canonical text never parses; the diff schema of a lazy view
comes from column metadata; and a malformed container fails at open, and
a bad pool or set id on first read, with a precise
:class:`SnapshotFormatError`.  None of it may change a result.
"""

import gc
import itertools
import json
import re
from array import array

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.snapshot import (
    _diff_fields,
    diff_results,
    results_from_dict,
    results_to_dict,
)
from repro.core import snapstore
from repro.core.snapstore import (
    KIND_DELTA,
    KIND_RESULTS,
    EpochStore,
    SnapshotFormatError,
    _SectionReader,
    _SectionWriter,
    open_results,
    pack_shard_result,
    save_results_snapshot,
    sniff_kind,
    unpack_shard_result,
)
from repro.core.survey import SurveyResults
from repro.core.timeline import run_churn_timeline
from repro.distrib.merge import merge_shard_snapshots
from repro.dns.name import DomainName, NameError_
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)
RATES = ChurnRates(transfer=1.0, death=1.0, upgrade=1.0, downgrade=0.5,
                   region=1.0)
PASSES = ("availability", "value")
EPOCHS = 4


def _churn_store(root, keyframe_every=None) -> EpochStore:
    world = InternetGenerator(TINY).generate()
    store = EpochStore(root, keyframe_every=keyframe_every)
    run_churn_timeline(world, ChurnModel(world, RATES, seed=5),
                       epochs=EPOCHS, passes=PASSES, popular_count=20,
                       store=store)
    return store


@pytest.fixture(scope="module", params=[None, 2],
                ids=["keyframe-once", "keyframe-every-2"])
def churn_store(request, tmp_path_factory):
    return _churn_store(tmp_path_factory.mktemp("store"), request.param)


def _diff_summary(diff):
    return {"changed": diff.changed, "common": diff.common,
            "numeric": diff.numeric, "transitions": diff.transitions,
            "numeric_order": list(diff.numeric),
            "top_movers": [(change.name, change.fields)
                           for change in diff.top_movers(len(diff.changes))]}


def _hydrated(view):
    return results_from_dict(results_to_dict(view))


# -- the bounded diff ------------------------------------------------------------------

def test_bounded_diff_equals_full_and_hydrated_diffs(churn_store):
    """Every epoch pair: the overlay-bounded diff (one store) equals the
    full columnar diff (views from two stores, so two keyframe readers)
    and the diff of the same epochs hydrated through the JSON codec."""
    epochs = churn_store.epochs
    assert epochs == EPOCHS + 1
    views = [churn_store.load_epoch(epoch) for epoch in range(epochs)]
    other = EpochStore(churn_store.root)
    others = [other.load_epoch(epoch) for epoch in range(epochs)]
    hydrated = [_hydrated(view) for view in views]
    for view in views + others:
        view.records._cache.clear()
        view.records.hydrated = 0

    crossed = 0
    for first in range(epochs):
        for second in range(epochs):
            a, b = views[first], views[second]
            same_keyframe = a._source.base is b._source.base
            crossed += not same_keyframe
            bound = a.column_diff_view().overlay_bound(b.column_diff_view())
            assert (bound is not None) == same_keyframe
            assert others[first].column_diff_view().overlay_bound(
                views[second].column_diff_view()) is None
            bounded = _diff_summary(diff_results(a, b))
            assert bounded == _diff_summary(
                diff_results(others[first], views[second]))
            assert bounded == _diff_summary(
                diff_results(hydrated[first], hydrated[second]))
    assert all(view.hydrated_record_count == 0 for view in views + others)
    # The keyframe-every-2 store has pairs that cross keyframes.
    assert bool(crossed) == (churn_store.keyframe_every is not None)
    assert diff_results(views[0], views[-1]).changed


def test_overlay_bound_is_the_union_of_overlay_rows(churn_store):
    views = [churn_store.load_epoch(epoch)
             for epoch in range(churn_store.epochs)]
    pairs = [(a, b) for a, b in itertools.combinations(views, 2)
             if a._source.base is b._source.base
             and (a._source.overlays or b._source.overlays)]
    assert pairs
    for a, b in pairs:
        rows = a._source.overlays.keys() | b._source.overlays.keys()
        bound = a.column_diff_view().overlay_bound(b.column_diff_view())
        assert bound == {a._source.base.name(row): row for row in rows}


def test_one_keyframe_diff_builds_no_name_index(churn_store):
    """Views over one keyframe diff by their overlay rows: the keyframe's
    name -> row index is never built.  Views over different keyframes
    take the full columnar path, which builds it."""
    fresh = EpochStore(churn_store.root)
    views = [fresh.load_epoch(epoch) for epoch in range(fresh.epochs)]
    base = views[0]._source.base
    diff = diff_results(views[0], views[-1])
    assert diff.common == len(views[0].records)
    assert diff.changed == diff_results(_hydrated(views[0]),
                                        _hydrated(views[-1])).changed
    if views[-1]._source.base is base:
        assert base._name_rows is None
    else:
        assert base._name_rows is not None


# -- the shared keyframe reader ----------------------------------------------------------

def test_views_share_one_keyframe_reader_and_its_indexes(tmp_path):
    store = _churn_store(tmp_path / "store")
    views = [store.load_epoch(epoch) for epoch in range(store.epochs)]
    base = views[0]._source.base
    assert all(view._source.base is base for view in views)
    assert views[1].column_diff_view().names is \
        views[3].column_diff_view().names
    name = str(views[0].records[5].name)
    views[2].record_for(name)
    index = base.row_index()
    views[4].record_for(name)
    assert base.row_index() is index


def test_store_holds_the_keyframe_reader_only_weakly(tmp_path):
    store = _churn_store(tmp_path / "store")
    views = [store.load_epoch(epoch) for epoch in range(store.epochs)]
    diff_results(views[0], views[-1])
    views[1].record_for(views[1].records[0].name)
    (identity, reference), = store._keyframes.values()
    assert reference() is views[0]._source.base
    del views
    # No reference cycle: the reader dies with its last view, without
    # waiting for the cycle collector.
    assert reference() is None
    gc.collect()
    assert all(ref() is None for _, ref in store._keyframes.values())


def test_replaced_keyframe_is_reopened_not_served_stale(tmp_path):
    store = _churn_store(tmp_path / "store")
    old = store.load_epoch(0)
    first = old.records[0]
    replacement = _hydrated(old)
    replacement.records[0].tcb_size += 1000
    save_results_snapshot(replacement, store.epoch_path(0))

    new = store.load_epoch(0)
    assert new._source.base is not old._source.base
    assert new.record_for(first.name).tcb_size == first.tcb_size + 1000
    assert old.record_for(first.name).tcb_size == first.tcb_size
    assert store.load_epoch(0)._source.base is new._source.base


def test_appends_build_the_reference_indexes_once_per_keyframe(
        tmp_path, monkeypatch):
    calls = []
    build = snapstore._base_ref_indexes

    def counting(base):
        calls.append(base)
        return build(base)

    monkeypatch.setattr(snapstore, "_base_ref_indexes", counting)
    store = _churn_store(tmp_path / "once")
    assert len(calls) == 1
    calls.clear()
    store = _churn_store(tmp_path / "every-2", keyframe_every=2)
    # Keyframes at epochs 0, 2 and 4; deltas at 1 and 3.
    assert [sniff_kind(store.epoch_path(epoch))
            for epoch in range(store.epochs)] == \
        [KIND_RESULTS, KIND_DELTA, KIND_RESULTS, KIND_DELTA, KIND_RESULTS]
    assert len(calls) == 2


# -- shared server sets ---------------------------------------------------------------

def _rows_sharing_a_set(reader):
    """Two rows whose TCB column holds one set id."""
    first = {}
    for row, set_id in enumerate(reader._tcb_sets):
        if set_id in first:
            return first[set_id], row
        first[set_id] = row
    raise AssertionError("no two rows share a TCB set")


def test_rows_with_one_set_id_hydrate_one_frozenset(tmp_path):
    store = _churn_store(tmp_path / "store")
    views = [store.load_epoch(epoch) for epoch in range(store.epochs)]
    base = views[0]._source.base
    row, other = _rows_sharing_a_set(base)
    record = views[0].records[row]
    assert type(record.tcb_servers) is frozenset
    assert views[0].records[other].tcb_servers is record.tcb_servers
    # Across two views over the keyframe: a row neither overlays hands
    # back the very same object...
    overlaid = views[1]._source.overlays.keys() | \
        views[-1]._source.overlays.keys()
    clean = next(row for row in range(len(base)) if row not in overlaid)
    first, last = views[1].records[clean], views[-1].records[clean]
    assert last is not first
    assert last.tcb_servers is first.tcb_servers
    assert last.mincut_servers is first.mincut_servers
    # ...and so does an overlaid row whose TCB kept its membership: the
    # delta stores a reference into the keyframe's set store.
    kept = [row for row in views[-1]._source.overlays
            if views[-1].records[row].tcb_servers ==
            views[0].records[row].tcb_servers]
    assert kept
    for row in kept:
        assert views[-1].records[row].tcb_servers is \
            views[0].records[row].tcb_servers


def test_surveyed_and_json_records_carry_equal_frozensets(tiny_results):
    copied = results_from_dict(results_to_dict(tiny_results))
    for record, copy in zip(tiny_results.records, copied.records):
        for held in (record, copy):
            assert type(held.tcb_servers) is frozenset
            assert type(held.mincut_servers) is frozenset
        assert copy == record
    # Names on one delegation chain share the engine's sets, not copies.
    sets = [record.tcb_servers for record in tiny_results.resolved_records()]
    assert len({id(held) for held in sets}) < len(sets)


# -- record_for -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_results():
    world = InternetGenerator(TINY).generate()
    return SurveyEngine(world, config=EngineConfig(
        passes=PASSES, popular_count=20)).run()


def test_record_for_accepts_every_spelling_a_hydrated_lookup_does(
        tiny_results, tmp_path):
    lazy = open_results(save_results_snapshot(tiny_results,
                                              tmp_path / "tiny.rsnap"))
    record = tiny_results.records[7]
    text = str(record.name)
    spellings = [text, text.upper(), text + ".", " " + text.title() + ". ",
                 record.name, DomainName(text.upper())]
    for spelling in spellings:
        assert lazy.record_for(spelling).to_dict() == record.to_dict()
        assert tiny_results.record_for(spelling) is record
    assert lazy.record_for("absent.example") is None
    assert lazy.record_for(DomainName("absent.example")) is None
    for invalid in ("bad..name", "under_score!.com"):
        with pytest.raises(NameError_):
            tiny_results.record_for(invalid)
        with pytest.raises(NameError_):
            lazy.record_for(invalid)


# -- diff schema from column metadata -----------------------------------------------------

def _with_extras(results, extras_for):
    copy = _hydrated(results)
    for row, record in enumerate(copy.records):
        record.extras = extras_for(row)
    return copy


def _keyframe_extras(row):
    extras = {"mixed": row, "flag": row % 2 == 0, "label": f"l{row % 3}",
              "blob": {"row": row}, "json_num": row if row % 2 else 0.5,
              "gone": 1, "retyped": f"s{row}"}
    if row % 2:
        extras["n_int"] = row
    if row % 3:
        extras["n_float"] = row / 4
    return extras


def _overlay_extras(row):
    extras = _keyframe_extras(row)
    del extras["gone"]
    extras["mixed"] = row + 0.25
    extras["retyped"] = row / 2
    extras["late"] = row
    return extras


def test_diff_fields_from_metadata_match_the_values(tiny_results, tmp_path):
    """int, float, int-in-keyframe/float-in-overlay, bool, str, json and
    numeric json columns: the metadata classification and counts equal
    the value-based ones at every epoch."""
    keyframe = _with_extras(tiny_results, _keyframe_extras)
    overlaid = {3, 4, 10, 11}
    everywhere = set(range(len(keyframe.records)))
    epochs = [keyframe]
    for changed in (overlaid, everywhere - {0}, everywhere):
        epochs.append(_with_extras(
            tiny_results, lambda row, changed=changed:
            _overlay_extras(row) if row in changed else
            _keyframe_extras(row)))
    store = EpochStore(tmp_path / "store")
    previous = None
    for results in epochs:
        store.append(results, previous=previous)
        previous = results

    expected_kinds = {}
    for epoch, results in enumerate(epochs):
        view = store.load_epoch(epoch)
        fields = expected_kinds[epoch] = _diff_fields(view)
        columns = view.extras_columns()
        counts = {column: view.numeric_extra_count(column)
                  for column in columns}
        assert view.hydrated_record_count == 0
        # The value-based answer over the same view...
        assert counts == {column: SurveyResults.numeric_extra_count(
            view, column) for column in columns}
        # ...and over its hydrated copy, which lists no column that only
        # overlaid-away rows carry (the lazy view lists it, with no value).
        hydrated = _hydrated(view)
        assert counts == {column: hydrated.numeric_extra_count(column)
                          if column in hydrated.extras_columns() else None
                          for column in columns}
        assert fields[0] == _diff_fields(hydrated)[0]
    numeric, categorical = expected_kinds[1]
    assert {"n_int", "n_float", "mixed", "json_num", "late", "gone"} <= \
        set(numeric)
    assert {"flag", "label", "blob", "retyped"} <= set(categorical)
    # Every row overlaid: the keyframe's "gone" and "retyped" columns
    # contribute no value, so neither does their kind.
    numeric, categorical = expected_kinds[3]
    assert "gone" in categorical and "gone" not in numeric
    assert "retyped" in numeric
    base = store.load_epoch(1)._source.base
    assert base.extra_kind("mixed") == "int"
    assert base.extra_kind("json_num") == "json"
    overlay = next(iter(store.load_epoch(1)._source.overlays.values()))[0]
    assert overlay.extra_kind("mixed") == "float"


# -- malformed containers ---------------------------------------------------------------

def _rewrite(source, target, drop=None, shorten=None, replace=()):
    """Copy a container section by section, dropping one, cutting one
    short by a row, or replacing some."""
    reader = _SectionReader(source)
    rows = reader.length("rec.name") // 8
    writer = _SectionWriter(target, reader.kind)
    for name in sorted(reader._sections,
                       key=lambda section: reader._sections[section][0]):
        data = bytes(reader.raw(name))
        if name == shorten:
            data = data[:-(len(data) // rows)]
        if name in replace:
            data = replace[name]
        if name != drop:
            writer.add(name, data)
    return writer.close()


@pytest.fixture(scope="module")
def tiny_snapshot(tiny_results, tmp_path_factory):
    extras = _with_extras(tiny_results, _keyframe_extras)
    return save_results_snapshot(
        extras, tmp_path_factory.mktemp("tiny") / "tiny.rsnap")


def _sections(path):
    return sorted(_SectionReader(path)._sections)


ROW_COLUMNS = [name for name, _ in snapstore._ROW_SECTIONS]


def test_every_section_is_checked_at_open(tiny_snapshot, tmp_path):
    names = _sections(tiny_snapshot)
    assert {"strs.off", "ex.dir", "ex.0.pres", "ex.0.val", "agg.pop",
            "fp.vuln.mem", "meta"} <= set(names)
    for name in names:
        broken = _rewrite(tiny_snapshot, tmp_path / f"{name}.rsnap",
                          drop=name)
        with pytest.raises(SnapshotFormatError,
                           match=f"missing section '{name}'"):
            open_results(broken)


@pytest.mark.parametrize("name", ROW_COLUMNS + ["ex.0.pres", "ex.0.val",
                                                "ex.1.val", "ex.4.val"])
def test_a_short_column_fails_at_open(tiny_snapshot, tmp_path, name):
    broken = _rewrite(tiny_snapshot, tmp_path / "short.rsnap", shorten=name)
    # rec.name sets the row count, so the next column reads as too long.
    reported = "rec.tld" if name == "rec.name" else name
    with pytest.raises(SnapshotFormatError,
                       match=re.escape(f"section '{reported}' holds")):
        open_results(broken)


@pytest.mark.parametrize("name", ["strs.off", "sets.off", "sets.mem",
                                  "agg.counts.n", "fp.host"])
def test_a_torn_int64_section_fails_at_open(tiny_snapshot, tmp_path, name):
    broken = _rewrite(tiny_snapshot, tmp_path / "torn.rsnap",
                      replace={name: bytes(_SectionReader(tiny_snapshot)
                                           .raw(name))[:-3]})
    with pytest.raises(SnapshotFormatError, match=f"section '{name}'"):
        open_results(broken)


@pytest.mark.parametrize("directory, message", [
    (b"not json", "corrupt extras directory"),
    (b"{}", "not a list"),
    (b'[{"kind": "int"}]', "entry 0"),
])
def test_a_corrupt_extras_directory_fails_at_open(tiny_snapshot, tmp_path,
                                                  directory, message):
    broken = _rewrite(tiny_snapshot, tmp_path / "dir.rsnap",
                      replace={"ex.dir": directory})
    with pytest.raises(SnapshotFormatError, match=message):
        open_results(broken)


def _overwrite(source, target, section, data):
    """Copy a container with ``data`` written over the start of one
    section in place, so the section table still holds."""
    offset, length = _SectionReader(source)._sections[section]
    assert len(data) <= length
    payload = bytearray(source.read_bytes())
    payload[offset:offset + len(data)] = data
    target.write_bytes(payload)
    return target


@pytest.mark.parametrize("damage", [b"\xff\xfe", b"]]"],
                         ids=["not-utf8", "not-json"])
def test_a_damaged_meta_section_fails_precisely(tiny_snapshot, tiny_results,
                                                tmp_path, damage):
    broken = _overwrite(tiny_snapshot, tmp_path / "meta.rsnap", "meta",
                        damage)
    with pytest.raises(SnapshotFormatError, match=re.escape(
            f"{broken}: corrupt section 'meta'")):
        open_results(broken).metadata
    records = tiny_results.records
    shard = pack_shard_result(
        list(range(len(records))), records, tiny_results.fingerprints,
        {}, {}, tiny_results.popular_names, meta={"shard": "0/1"},
        path=tmp_path / "shard.rsnap")
    broken = _overwrite(shard, tmp_path / "broken.rsnap", "meta", damage)
    with pytest.raises(SnapshotFormatError, match=re.escape(
            f"{broken}: corrupt section 'meta'")):
        unpack_shard_result(broken)


def test_an_unknown_extras_kind_fails_at_open(tiny_snapshot, tmp_path):
    directory = _SectionReader(tiny_snapshot).json("ex.dir")
    directory[0]["kind"] = "complex"
    broken = _rewrite(tiny_snapshot, tmp_path / "kind.rsnap",
                      replace={"ex.dir": json.dumps(directory).encode()})
    with pytest.raises(SnapshotFormatError, match="unknown kind 'complex'"):
        open_results(broken)


def test_a_malformed_delta_fails_load_epoch(tmp_path):
    store = _churn_store(tmp_path / "store")
    delta = store.epoch_path(2)
    pristine = delta.read_bytes()
    for drop, shorten, message in (("rows", None, "missing section 'rows'"),
                                   (None, "rows", "section 'rows' holds"),
                                   ("aggd.pop.add", None, "'aggd.pop.add'"),
                                   (None, "rec.tld", "section 'rec.tld'")):
        staged = _rewrite(delta, tmp_path / "staged.rsnap", drop=drop,
                          shorten=shorten)
        delta.write_bytes(staged.read_bytes())
        with pytest.raises(SnapshotFormatError, match=message):
            store.load_epoch(3)
        delta.write_bytes(pristine)
    store.load_epoch(3)


def test_a_malformed_shard_fails_the_merge(tiny_results, tmp_path):
    records = tiny_results.records
    shard = pack_shard_result(
        list(range(len(records))), records, tiny_results.fingerprints,
        {host: True for host in tiny_results.vulnerable_servers},
        {host: True for host in tiny_results.compromisable_servers},
        tiny_results.popular_names, path=tmp_path / "shard.rsnap")
    for drop, shorten, message in (("vm.flag", None, "'vm.flag'"),
                                   (None, "rows", "section 'rows' holds"),
                                   (None, "ex.0.pres", "'ex.0.pres'")):
        broken = _rewrite(shard, tmp_path / "broken.rsnap", drop=drop,
                          shorten=shorten)
        with pytest.raises(SnapshotFormatError, match=message):
            merge_shard_snapshots([broken], tmp_path / "merged.rsnap")
    merge_shard_snapshots([shard], tmp_path / "merged.rsnap")


# -- bad pool and set ids ---------------------------------------------------------------

def _edited(source, target, section, edit):
    """Copy a container with one int64 (or byte) section edited in place."""
    data = bytearray(_SectionReader(source).raw(section))
    if section != "strs.blob":
        data = array("q", bytes(data))
    edit(data)
    return _rewrite(source, target, replace={section: bytes(data)})


@pytest.fixture(scope="module")
def plain_snapshot(tiny_results, tmp_path_factory):
    return save_results_snapshot(
        tiny_results, tmp_path_factory.mktemp("plain") / "plain.rsnap")


def _bad_id_edits(path):
    """(section, edit, message) for one record's row, one bad id each."""
    reader = _SectionReader(path)
    strings = reader.length("strs.off") // 8 - 1
    row = next(row for row in range(reader.length("rec.name") // 8)
               if reader.q("rec.tcb_size")[row])
    name_id = reader.q("rec.name")[row]
    first_member = reader.q("sets.off")[reader.q("rec.tcbset")[row]]
    start = reader.q("strs.off")[name_id]

    def put(position, value):
        def edit(data):
            data[position] = value
        return edit

    return row, [
        ("rec.name", put(row, strings + 7),
         f"string pool 'strs': id {strings + 7} out of range"),
        ("rec.tcbset", put(row, -1),
         "set store 'sets': id -1 refers to a base file"),
        ("sets.mem", put(first_member, -3),
         "string pool 'strs': id -3 refers to a base file"),
        ("strs.blob", put(start, 0xff),
         f"string pool 'strs': entry {name_id} is not UTF-8"),
    ]


@pytest.mark.parametrize("case", range(4),
                         ids=["rec.name", "rec.tcbset", "sets.mem",
                              "strs.blob"])
def test_a_bad_id_fails_the_lookup_precisely(plain_snapshot, tmp_path,
                                             case):
    row, edits = _bad_id_edits(plain_snapshot)
    section, edit, message = edits[case]
    name = open_results(plain_snapshot).records[row].name
    broken = _edited(plain_snapshot, tmp_path / "broken.rsnap", section,
                     edit)
    with pytest.raises(SnapshotFormatError, match=re.escape(message)):
        open_results(broken).record_for(name)


@pytest.mark.parametrize("case", range(4),
                         ids=["rec.name", "rec.tcbset", "sets.mem",
                              "strs.blob"])
def test_resurvey_from_a_bad_id_exits_2(plain_snapshot, tmp_path, capsys,
                                        case):
    _, edits = _bad_id_edits(plain_snapshot)
    section, edit, message = edits[case]
    broken = _edited(plain_snapshot, tmp_path / "broken.rsnap", section,
                     edit)
    code = main(["resurvey", str(broken), "--seed", str(TINY.seed),
                 "--sld-count", str(TINY.sld_count),
                 "--directory-names", str(TINY.directory_name_count),
                 "--universities", str(TINY.university_count),
                 "--passes", ",".join(PASSES)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
