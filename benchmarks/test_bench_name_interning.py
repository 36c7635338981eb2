"""Micro-benchmarks for the integer-interned core's building blocks.

Two hot-path changes ride the CSR-universe PR and get pinned down here:

* ``DomainName.__eq__`` against strings used to construct (and regex-
  validate) a throwaway ``DomainName`` per comparison miss; it now
  normalises textually.  The old behaviour is reimplemented inline as the
  reference.
* The Monte-Carlo availability trial used to build a Python set of down
  servers per sample and re-evaluate the AND/OR structure per draw; it is
  now bit-parallel (one up/down bitmask per server over all samples, one
  graph walk).  The per-sample loop is reimplemented inline as the
  reference; both consume the RNG identically, so the estimates must
  agree exactly.
"""

import random
import time

from repro.dns.errors import NameError_
from repro.dns.name import DomainName
from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import DelegationGraphBuilder

#: Comparisons per side in the __eq__ micro-benchmark.
EQ_ROUNDS = 20000

#: Monte-Carlo samples per name in the vectorization benchmark.
MC_SAMPLES = 200

#: Names in the Monte-Carlo comparison.
MC_NAMES = 25


def _legacy_eq(name: DomainName, other: str) -> bool:
    """The pre-PR string-coercion fallback, kept as the reference."""
    try:
        return name.labels == DomainName(other)._labels
    except NameError_:
        return False


def _legacy_monte_carlo(analyzer: AvailabilityAnalyzer, graph, samples: int,
                        rng: random.Random) -> float:
    """The scalar loop the sweep replaced: a down set per sample."""
    hosts = sorted(graph.tcb())
    successes = 0
    for _ in range(samples):
        down = {host for host in hosts
                if rng.random() >= analyzer.up_probability(host)}
        if analyzer.resolvable_with_failures(graph, down):
            successes += 1
    return successes / samples


def test_bench_name_eq_short_circuit(figure_writer, bench_metrics):
    """Textual __eq__ must beat the construct-and-compare fallback."""
    names = [DomainName(f"host{i}.zone{i % 7}.example.com")
             for i in range(50)]
    probes = ([f"host{i}.zone{i % 7}.example.com" for i in range(50)] +
              [f"other{i}.zone{i % 7}.example.net" for i in range(50)])

    start = time.perf_counter()
    hits = 0
    for _ in range(EQ_ROUNDS // len(names)):
        for name in names:
            for probe in probes:
                if _legacy_eq(name, probe):
                    hits += 1
    legacy_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    fast_hits = 0
    for _ in range(EQ_ROUNDS // len(names)):
        for name in names:
            for probe in probes:
                if name == probe:
                    fast_hits += 1
    fast_elapsed = time.perf_counter() - start

    assert fast_hits == hits
    speedup = legacy_elapsed / fast_elapsed
    comparisons = (EQ_ROUNDS // len(names)) * len(names) * len(probes)
    figure_writer.write(
        "name_eq_short_circuit",
        "DomainName.__eq__(str): textual vs. construct-and-compare",
        [f"comparisons                 {comparisons}",
         f"legacy (coerce per miss)    {legacy_elapsed:.3f}s",
         f"textual (no allocation)     {fast_elapsed:.3f}s",
         f"speedup                     {speedup:.1f}x"])
    bench_metrics.record("name_eq_short_circuit",
                         comparisons=comparisons,
                         legacy_s=round(legacy_elapsed, 4),
                         textual_s=round(fast_elapsed, 4),
                         speedup=round(speedup, 2))
    assert speedup >= 2.0, (
        f"textual __eq__ only {speedup:.1f}x faster than coercion fallback")


def test_bench_monte_carlo_vectorized(bench_internet, paper_survey,
                                      figure_writer, bench_metrics):
    """Bit-parallel Monte-Carlo must match the scalar loop exactly, faster."""
    names = [record.name for record in
             paper_survey.resolved_records()[:MC_NAMES]]
    builder = DelegationGraphBuilder(bench_internet.make_resolver())
    views = [builder.tcb_view(name) for name in names]
    graphs = [builder.build(name) for name in names]
    analyzer = AvailabilityAnalyzer(0.95)

    start = time.perf_counter()
    scalar = [_legacy_monte_carlo(analyzer, graph, MC_SAMPLES,
                                  random.Random(i))
              for i, graph in enumerate(graphs)]
    scalar_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = [analyzer.monte_carlo(view, samples=MC_SAMPLES,
                                       rng=random.Random(i))
                  for i, view in enumerate(views)]
    vectorized_elapsed = time.perf_counter() - start

    assert vectorized == scalar, \
        "bit-parallel Monte-Carlo diverged from the scalar reference"
    speedup = scalar_elapsed / vectorized_elapsed
    figure_writer.write(
        "monte_carlo_vectorized",
        "Monte-Carlo availability: bit-parallel sweep vs. per-sample sets",
        [f"names x samples             {len(names)} x {MC_SAMPLES}",
         f"scalar (set per sample)     {scalar_elapsed:.3f}s",
         f"bit-parallel (masks)        {vectorized_elapsed:.3f}s",
         f"speedup                     {speedup:.1f}x"])
    bench_metrics.record("monte_carlo_vectorized",
                         names=len(names), samples=MC_SAMPLES,
                         scalar_s=round(scalar_elapsed, 4),
                         vectorized_s=round(vectorized_elapsed, 4),
                         speedup=round(speedup, 2))
    assert speedup >= 3.0, (
        f"bit-parallel Monte-Carlo only {speedup:.1f}x faster than scalar")
