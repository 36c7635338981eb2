"""Old-path vs. engine-path throughput (closure memoization at scale).

The pre-engine pipeline materialised every name's delegation graph with
``nx.descendants`` plus a full ``subgraph(...).copy()`` against the shared
universe; the engine reads the same TCB from the builder's memoized closure
index as a zero-copy view.  These benchmarks pin down that difference at
BENCH_CONFIG scale and assert the acceptance floor: the closure path must be
at least 3x faster than the legacy materialisation path.
"""

import time

from repro.core.delegation import DelegationGraphBuilder
from repro.core.engine import EngineConfig, SurveyEngine

from conftest import BENCH_CONFIG

#: Names timed by the closure-vs-legacy comparison.
SAMPLE = 400

#: Acceptance floor on the per-name TCB extraction speedup.
MIN_SPEEDUP = 3.0


def _warm_builder(internet, names):
    builder = DelegationGraphBuilder(internet.make_resolver())
    for name in names:
        builder.tcb_view(name)
    return builder


def test_bench_legacy_tcb_extraction(benchmark, bench_internet, paper_survey):
    """Per-name TCB via a per-name graph copy (the old hot path)."""
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)

    def legacy():
        return [builder.build(name).tcb_size() for name in names]

    sizes = benchmark(legacy)
    assert all(size > 0 for size in sizes)


def test_bench_engine_tcb_extraction(benchmark, bench_internet, paper_survey):
    """Per-name TCB via the memoized closure index (the engine hot path)."""
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)

    def closure_path():
        return [builder.tcb_view(name).tcb_size() for name in names]

    sizes = benchmark(closure_path)
    assert all(size > 0 for size in sizes)


def test_bench_closure_memoization_speedup(bench_internet, paper_survey,
                                           figure_writer):
    """Closure memoization alone must beat graph materialisation >= 3x."""
    names = [record.name for record in
             paper_survey.resolved_records()[:SAMPLE]]
    builder = _warm_builder(bench_internet, names)
    legacy_sizes = []
    closure_sizes = []

    start = time.perf_counter()
    for name in names:
        legacy_sizes.append(builder.build(name).tcb_size())
    legacy_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for name in names:
        closure_sizes.append(builder.tcb_view(name).tcb_size())
    closure_elapsed = time.perf_counter() - start

    assert closure_sizes == legacy_sizes
    speedup = legacy_elapsed / closure_elapsed
    figure_writer.write(
        "engine_scaling", "Closure memoization vs. legacy graph copies",
        [f"names timed                 {len(names)}",
         f"legacy (descendants+copy)   {legacy_elapsed:.3f}s "
         f"({len(names) / legacy_elapsed:.0f} names/s)",
         f"closure (memoized view)     {closure_elapsed:.3f}s "
         f"({len(names) / closure_elapsed:.0f} names/s)",
         f"speedup                     {speedup:.1f}x"])
    assert speedup >= MIN_SPEEDUP, (
        f"closure path only {speedup:.1f}x faster than legacy path")


def test_bench_engine_survey_throughput(bench_internet, figure_writer,
                                        bench_metrics):
    """End-to-end engine survey throughput at BENCH_CONFIG scale.

    Documents names-surveyed/sec through the full staged pipeline (serial
    backend) so regressions in any stage show up in benchmark runs.
    """
    engine = SurveyEngine(
        bench_internet,
        config=EngineConfig(popular_count=BENCH_CONFIG.alexa_count))
    start = time.perf_counter()
    results = engine.run()
    elapsed = time.perf_counter() - start
    throughput = len(results) / elapsed
    figure_writer.write(
        "engine_throughput", "Engine survey throughput (serial backend)",
        [f"names surveyed              {len(results)}",
         f"elapsed                     {elapsed:.2f}s",
         f"throughput                  {throughput:.0f} names/s"])
    bench_metrics.record("engine_survey_throughput", names=len(results),
                         elapsed_s=round(elapsed, 4),
                         names_per_s=round(throughput, 1))
    assert results.headline()["names_resolved"] > 0
    assert throughput > 50, "engine should sustain >50 names/s at bench scale"
