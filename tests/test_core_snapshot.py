"""Tests for :mod:`repro.core.snapshot`."""

import json

import pytest

import dataclasses

from repro.dns.name import DomainName
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    diff_results,
    load_results,
    results_from_dict,
    results_to_dict,
    save_results,
)


def test_roundtrip_through_dict(small_survey):
    payload = results_to_dict(small_survey)
    assert payload["format_version"] == SNAPSHOT_FORMAT_VERSION
    restored = results_from_dict(payload)
    assert len(restored) == len(small_survey)
    assert restored.vulnerable_servers == small_survey.vulnerable_servers
    assert restored.popular_names == small_survey.popular_names
    assert restored.server_names_controlled == \
        small_survey.server_names_controlled


def test_roundtrip_preserves_headline(small_survey):
    restored = results_from_dict(results_to_dict(small_survey))
    original = small_survey.headline()
    recovered = restored.headline()
    for key, value in original.items():
        assert recovered[key] == pytest.approx(value), key


def test_roundtrip_preserves_record_fields(small_survey):
    restored = results_from_dict(results_to_dict(small_survey))
    original = {str(r.name): r for r in small_survey.records}
    for record in restored.records:
        source = original[str(record.name)]
        assert record.tcb_size == source.tcb_size
        assert record.classification == source.classification
        assert record.tcb_servers == source.tcb_servers
        assert record.mincut_servers == source.mincut_servers


def test_roundtrip_preserves_fingerprints(small_survey):
    restored = results_from_dict(results_to_dict(small_survey))
    assert set(restored.fingerprints) == set(small_survey.fingerprints)
    for hostname, result in list(small_survey.fingerprints.items())[:20]:
        recovered = restored.fingerprints[hostname]
        assert recovered.banner == result.banner
        assert recovered.vulnerabilities == result.vulnerabilities


def test_save_and_load_file(small_survey, tmp_path):
    path = save_results(small_survey, tmp_path / "nested" / "snapshot.json",
                        indent=1)
    assert path.exists()
    with path.open() as handle:
        raw = json.load(handle)
    assert raw["format_version"] == SNAPSHOT_FORMAT_VERSION
    restored = load_results(path)
    assert len(restored) == len(small_survey)
    assert restored.metadata == small_survey.metadata


def test_unsupported_version_rejected(small_survey):
    payload = results_to_dict(small_survey)
    payload["format_version"] = 999
    with pytest.raises(ValueError):
        results_from_dict(payload)


# -- snapshot diffing ------------------------------------------------------------------

def test_diff_identical_snapshots_reports_no_churn(small_survey):
    diff = diff_results(small_survey, small_survey)
    assert diff.common == len(small_survey.records)
    assert diff.only_in_a == [] and diff.only_in_b == []
    assert diff.changed == 0
    assert diff.is_identical
    assert diff.transitions == {}
    for stats in diff.numeric.values():
        assert stats["changed"] == 0.0
        assert stats["max_abs_delta"] == 0.0


def test_diff_reports_added_and_removed_names_as_changes(small_survey):
    """Adds/removals are first-class: equivalence checks must see them."""
    mutated = results_from_dict(results_to_dict(small_survey))
    dropped = mutated.records.pop()
    extra = dataclasses.replace(small_survey.records[0],
                                name=DomainName("brand.new.example"))
    mutated.records.append(extra)

    diff = diff_results(small_survey, mutated)
    assert not diff.is_identical
    assert diff.only_in_a == [dropped.name]
    assert diff.only_in_b == [extra.name]
    presence = {change.name: change.fields["presence"]
                for change in diff.changes if "presence" in change.fields}
    assert presence[dropped.name] == ("present", "absent")
    assert presence[extra.name] == ("absent", "present")
    assert diff.transitions["presence"][("present", "absent")] == 1
    assert diff.transitions["presence"][("absent", "present")] == 1
    assert diff.changed == 2
    mover_names = {change.name for change in diff.top_movers(5)}
    assert {dropped.name, extra.name} <= mover_names


def test_diff_detects_tcb_and_classification_churn(small_survey):
    mutated = results_from_dict(results_to_dict(small_survey))
    victim = mutated.resolved_records()[0]
    mutated.records[mutated.records.index(victim)] = dataclasses.replace(
        victim, tcb_size=victim.tcb_size + 7, classification="complete")
    dropped = mutated.records.pop()

    diff = diff_results(small_survey, mutated)
    assert diff.common == len(small_survey.records) - 1
    assert [str(name) for name in diff.only_in_a] == [str(dropped.name)]
    assert diff.changed >= 1
    assert diff.numeric["tcb_size"]["changed"] == 1.0
    assert diff.numeric["tcb_size"]["max_abs_delta"] == 7.0
    movers = diff.top_movers(3)
    assert movers[0].name == victim.name
    assert movers[0].fields["tcb_size"] == (victim.tcb_size,
                                            victim.tcb_size + 7)
    if victim.classification != "complete":
        key = (victim.classification, "complete")
        assert diff.transitions["classification"][key] == 1


def test_diff_includes_numeric_extras_columns(small_survey):
    before = results_from_dict(results_to_dict(small_survey))
    after = results_from_dict(results_to_dict(small_survey))
    for record in before.records:
        record.extras["availability"] = 0.99
        record.extras["dnssec_status"] = "insecure"
    for record in after.records:
        record.extras["availability"] = 0.97
        record.extras["dnssec_status"] = "secure"
    diff = diff_results(before, after)
    assert diff.numeric["availability"]["mean_delta"] == \
        pytest.approx(-0.02)
    transitions = diff.transitions["dnssec_status"]
    assert transitions[("insecure", "secure")] == len(before.records)


def test_dirty_bounded_diff_equals_the_full_diff(small_survey):
    """Clean names share their records, so only dirty names are compared;
    numeric counts still cover every shared pair, extras-less ones too."""
    before = results_from_dict(results_to_dict(small_survey))
    for record in before.records[::2]:
        record.extras["availability"] = 0.5 + record.tcb_size / 100.0
    after = results_from_dict(results_to_dict(small_survey))
    after.records = list(before.records)
    dirty = set()
    for position in (1, 2, 5):
        victim = after.records[position]
        after.records[position] = dataclasses.replace(
            victim, tcb_size=victim.tcb_size + position,
            extras={"availability": 0.25})
        dirty.add(victim.name)
    dropped = after.records.pop()
    extra = dataclasses.replace(before.records[0],
                                name=DomainName("brand.new.example"))
    after.records.append(extra)
    dirty.add(extra.name)

    full = diff_results(before, after)
    bounded = diff_results(before, after, dirty=dirty)
    assert full.only_in_a == bounded.only_in_a == [dropped.name]
    assert full.only_in_b == bounded.only_in_b == [extra.name]
    assert bounded.common == full.common
    assert bounded.numeric == full.numeric
    assert bounded.transitions == full.transitions
    assert [(c.name, c.fields) for c in bounded.changes] == \
        [(c.name, c.fields) for c in full.changes]
    assert full.numeric["availability"]["count"] < full.common
