"""Tests for the survey orchestrator and aggregated results."""

import pytest

from repro.dns.name import DomainName
from repro.core.survey import Survey
from repro.topology.anecdotes import FBI_WEB_NAME


# -- record-level invariants (on the shared small survey) --------------------------------

def test_every_directory_name_gets_a_record(small_internet, small_survey):
    assert len(small_survey) == len(small_internet.directory)
    names = {str(record.name) for record in small_survey.records}
    assert str(FBI_WEB_NAME) in names


def test_records_resolve_and_have_consistent_counts(small_survey):
    resolved = small_survey.resolved_records()
    assert len(resolved) >= 0.95 * len(small_survey)
    for record in resolved:
        assert record.tcb_size == len(record.tcb_servers)
        assert 0 <= record.in_bailiwick <= record.tcb_size
        assert 0 <= record.vulnerable_in_tcb <= record.tcb_size
        assert 0 <= record.compromisable_in_tcb <= record.vulnerable_in_tcb \
            or record.compromisable_in_tcb <= record.tcb_size
        assert 0 <= record.mincut_size <= record.tcb_size
        assert record.mincut_safe + record.mincut_vulnerable == \
            record.mincut_size
        assert 0.0 <= record.safety_percentage <= 100.0
        assert record.mincut_servers <= record.tcb_servers


def test_classification_consistent_with_counts(small_survey):
    for record in small_survey.resolved_records():
        if record.classification == "complete":
            assert record.mincut_vulnerable == record.mincut_size > 0
            assert record.vulnerable_in_tcb > 0
        elif record.classification == "dos-assisted":
            assert record.mincut_safe == 1
            assert record.mincut_vulnerable >= 1
        elif record.classification == "partial":
            assert record.vulnerable_in_tcb > 0
        elif record.classification == "safe":
            assert record.mincut_vulnerable == 0 or record.mincut_size == 0
        else:  # pragma: no cover - defensive
            pytest.fail(f"unknown classification {record.classification}")


def test_safety_percentage_matches_vulnerable_count(small_survey):
    for record in small_survey.resolved_records():
        if record.tcb_size:
            expected = 100.0 * (record.tcb_size - record.vulnerable_in_tcb) / \
                record.tcb_size
            # Records are born canonicalised to the snapshot codecs'
            # three decimals (so they survive a store round trip equal).
            assert record.safety_percentage == round(expected, 3)


def test_cctld_flag(small_survey):
    for record in small_survey.records:
        assert record.is_cctld_name == (len(record.tld) == 2)


# -- cohorts and figure data ----------------------------------------------------------------

def test_popular_cohort_size(small_internet, small_survey):
    popular = small_survey.popular_records()
    assert len(popular) == len(small_survey.popular_names)
    assert len(popular) <= 60


def test_tcb_cdf_and_sizes(small_survey):
    sizes = small_survey.tcb_sizes()
    cdf = small_survey.tcb_cdf()
    assert len(cdf) == len(sizes)
    assert cdf.value_at_percentile(50) >= 1


def test_mean_tcb_by_tld_split(small_survey):
    gtld = small_survey.mean_tcb_by_tld(kind="gtld", minimum_samples=1)
    cctld = small_survey.mean_tcb_by_tld(kind="cctld", minimum_samples=1)
    assert all(len(label) > 2 for label in gtld)
    assert all(len(label) == 2 for label in cctld)
    assert "com" in gtld
    combined = small_survey.mean_tcb_by_tld(kind="all", minimum_samples=1)
    assert set(gtld) <= set(combined)


def test_vulnerability_views(small_survey):
    counts = small_survey.vulnerable_in_tcb_counts()
    assert len(counts) == len(small_survey.resolved_records())
    fraction = small_survey.fraction_with_vulnerable_dependency()
    expected = sum(1 for c in counts if c > 0) / len(counts)
    assert fraction == pytest.approx(expected)
    safety = small_survey.safety_percentages()
    assert all(0.0 <= value <= 100.0 for value in safety)


def test_bottleneck_views(small_survey):
    safe_counts = small_survey.safe_bottleneck_counts()
    assert len(safe_counts) == len(small_survey.resolved_records())
    fraction = small_survey.fraction_completely_hijackable()
    assert 0.0 <= fraction <= 1.0
    assert small_survey.mean_mincut_size() >= 1.0


def test_value_ranking_from_survey(small_survey):
    ranking = small_survey.server_value_ranking()
    assert ranking[0].names_controlled >= ranking[-1].names_controlled
    total = len(small_survey.resolved_records())
    assert ranking[0].names_controlled <= total
    edu_ranking = small_survey.server_value_ranking(tld_filter=("edu",))
    assert all(value.operator_tld == "edu" for value in edu_ranking)


def test_server_names_controlled_consistency(small_survey):
    analyzer = small_survey.value_analyzer()
    for hostname, count in list(small_survey.server_names_controlled.items())[:50]:
        assert analyzer.names_controlled(hostname) == count


def test_headline_keys_and_ranges(small_survey):
    headline = small_survey.headline()
    expected_keys = {
        "names_surveyed", "names_resolved", "servers_discovered",
        "mean_tcb_size", "median_tcb_size", "fraction_tcb_over_200",
        "popular_mean_tcb_size", "mean_in_bailiwick",
        "vulnerable_server_fraction",
        "fraction_names_with_vulnerable_dependency",
        "mean_vulnerable_in_tcb", "fraction_completely_hijackable",
        "mean_mincut_size"}
    assert expected_keys <= set(headline)
    assert headline["names_surveyed"] >= headline["names_resolved"]
    assert 0.0 <= headline["vulnerable_server_fraction"] <= 1.0
    assert 0.0 <= headline["fraction_completely_hijackable"] <= 1.0
    assert headline["mean_tcb_size"] >= headline["mean_vulnerable_in_tcb"]


def test_record_lookup(small_survey):
    record = small_survey.record_for(FBI_WEB_NAME)
    assert record is not None
    assert record.tld == "gov"
    assert small_survey.record_for("www.never-surveyed.zz") is None


def test_fingerprints_cover_discovered_servers(small_survey):
    discovered = set(small_survey.server_names_controlled)
    fingerprinted = set(small_survey.fingerprints)
    assert discovered <= fingerprinted


# -- survey options ---------------------------------------------------------------------------------

def test_survey_specific_names(small_internet):
    survey = Survey(small_internet, popular_count=5)
    results = survey.run(names=[FBI_WEB_NAME, "www.fbi.gov"])
    assert len(results) == 2
    assert all(record.resolved for record in results.records)


def test_survey_adhoc_name_not_in_directory(small_internet):
    survey = Survey(small_internet, popular_count=5)
    results = survey.run(names=["www.sprintip.com"])
    assert len(results) == 1
    assert results.records[0].category == "adhoc"


def test_survey_max_names_and_progress(small_internet):
    calls = []
    survey = Survey(small_internet, popular_count=5)
    results = survey.run(max_names=10,
                         progress=lambda done, total: calls.append((done, total)))
    assert len(results) == 10
    assert calls[-1] == (10, 10)
    assert calls[0] == (1, 10)


def test_survey_without_bottleneck_analysis(small_internet):
    survey = Survey(small_internet, include_bottleneck=False, popular_count=5)
    results = survey.run(max_names=8)
    for record in results.records:
        assert record.mincut_size == 0
        assert record.classification in ("safe", "partial")


def test_record_for_looks_up_text_and_parsed_names(small_survey,
                                                    monkeypatch):
    record = small_survey.records[3]
    text = str(record.name)
    assert small_survey.record_for(text) is record
    assert small_survey.record_for(text.upper() + ".") is record
    assert small_survey.record_for("no.such.name.example") is None
    # A parsed name is looked up as it is, never copy-constructed.
    copies = []
    original = DomainName.__init__

    def counting_init(self, name=""):
        copies.append(name)
        original(self, name)

    monkeypatch.setattr(DomainName, "__init__", counting_init)
    assert small_survey.record_for(record.name) is record
    assert small_survey.record_for(
        DomainName._from_labels(record.name.labels)) is record
    assert copies == []
