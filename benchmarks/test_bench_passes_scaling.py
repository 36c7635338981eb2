"""Availability analysis on TCBView vs. the legacy graph-copy path.

The legacy path builds a per-name ``DelegationGraph`` (``builder.build``
lowers the name's part of the builder's universe into a universe of its
own) and runs a fresh analyzer on it, with an exhaustive single-failure
scan for the SPOFs.  As an engine pass the same analysis reads the
zero-copy ``TCBView`` backed by the memoized closure index, resumes each
chain from a warm analyzer's per-TLD prefix snapshot, and gets the
engine's per-chain cache on top.  These benches pin the difference down
and assert the acceptance floor.
"""

import time

from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import DelegationGraphBuilder
from repro.core.engine import EngineConfig, SurveyEngine

from conftest import BENCH_CONFIG

#: Names timed by the view-vs-legacy comparison.
SAMPLE = 300

#: Acceptance floor on the per-name availability analysis speedup.
MIN_SPEEDUP = 3.0


def _warm_builder(internet, names):
    builder = DelegationGraphBuilder(internet.make_resolver())
    for name in names:
        builder.tcb_view(name)
    return builder


def _analyze_legacy(builder, names):
    """Graph copy + fresh-analyzer availability + exhaustive SPOF scan.

    The scan checks resolution once per TCB member failed alone; a name
    that does not resolve with every server up reports its whole TCB, as
    ``single_points_of_failure`` does.
    """
    analyzer = AvailabilityAnalyzer(0.95)
    out = []
    for name in names:
        graph = builder.build(name)
        tcb = graph.tcb()
        if analyzer.resolvable_with_failures(graph, set()):
            spofs = [host for host in tcb
                     if not analyzer.resolvable_with_failures(graph, {host})]
        else:
            spofs = list(tcb)
        out.append((analyzer.resolution_probability(graph), len(spofs)))
    return out


def _analyze_view(builder, names):
    """Zero-copy view + one warm analyzer (the pass path)."""
    analyzer = AvailabilityAnalyzer(0.95)
    out = []
    for name in names:
        view = builder.tcb_view(name)
        out.append((analyzer.resolution_probability(view),
                    len(analyzer.single_points_of_failure(view))))
    return out


def test_bench_availability_legacy_path(benchmark, bench_internet,
                                        paper_survey):
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)
    values = benchmark.pedantic(lambda: _analyze_legacy(builder, names),
                                iterations=1, rounds=1)
    assert all(0.0 <= probability <= 1.0 for probability, _spof in values)


def test_bench_availability_view_path(benchmark, bench_internet,
                                      paper_survey):
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)
    values = benchmark.pedantic(lambda: _analyze_view(builder, names),
                                iterations=1, rounds=3)
    assert all(0.0 <= probability <= 1.0 for probability, _spof in values)


def test_bench_availability_view_speedup(bench_internet, paper_survey,
                                         figure_writer):
    """The TCBView pass path must beat the graph-copy path >= 3x."""
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)

    start = time.perf_counter()
    legacy_values = _analyze_legacy(builder, names)
    legacy_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    view_values = _analyze_view(builder, names)
    view_elapsed = time.perf_counter() - start

    assert view_values == legacy_values
    speedup = legacy_elapsed / view_elapsed
    figure_writer.write(
        "passes_scaling",
        "Availability pass: TCBView + warm analyzer vs. graph copies",
        [f"names analysed              {len(names)}",
         f"legacy (copy + exhaustive)  {legacy_elapsed:.3f}s "
         f"({len(names) / legacy_elapsed:.0f} names/s)",
         f"view (zero-copy + warm)     {view_elapsed:.3f}s "
         f"({len(names) / view_elapsed:.0f} names/s)",
         f"speedup                     {speedup:.1f}x"])
    assert speedup >= MIN_SPEEDUP, (
        f"view path only {speedup:.1f}x faster than legacy path")


def test_bench_engine_passes_survey(bench_internet, figure_writer,
                                    bench_metrics):
    """End-to-end survey throughput with both built-in passes enabled."""
    engine = SurveyEngine(
        bench_internet,
        config=EngineConfig(popular_count=BENCH_CONFIG.alexa_count,
                            passes=("availability", "dnssec")))
    start = time.perf_counter()
    results = engine.run()
    elapsed = time.perf_counter() - start
    throughput = len(results) / elapsed
    summary = results.extras_summary()
    figure_writer.write(
        "passes_survey_throughput",
        "Engine survey with availability + DNSSEC passes (serial backend)",
        [f"names surveyed              {len(results)}",
         f"elapsed                     {elapsed:.2f}s",
         f"throughput                  {throughput:.0f} names/s",
         f"mean availability           {summary['availability']:.6f}",
         f"fraction secure (DNSSEC)    "
         f"{summary.get('dnssec_status=secure', 0.0):.3f}"])
    bench_metrics.record("passes_survey_throughput", names=len(results),
                         elapsed_s=round(elapsed, 4),
                         names_per_s=round(throughput, 1))
    assert results.headline()["names_resolved"] > 0
    assert 0.0 <= summary["availability"] <= 1.0
    assert throughput > 25, \
        "passes should not drop the engine below 25 names/s at bench scale"
