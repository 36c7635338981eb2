"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cold_survey --seed 7 --seconds 15 \\
        --trace 0

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The full record (samples, stamps, failures and, when traced, the
"where the time goes" table) goes to ``perfbench/out/``, which git
ignores.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: name -> (unit, better); every workload reports each one.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "names_per_s": ("1/s", "higher"),
    "read_s": ("s", "lower"),
    "store_bytes": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); zero where a workload never enters the layer.
PER_LAYER = {
    "netsim.queries": ("count", "lower"),
    "netsim.self_s": ("s", "lower"),
    "dns.server.queries": ("count", "lower"),
    "dns.server.self_s": ("s", "lower"),
    "dns.resolver.chain_calls": ("count", "lower"),
    "dns.resolver.self_s": ("s", "lower"),
    "dns.resolver.queries_per_chain": ("ratio", "lower"),
    "dns.resolver.invalidate_s": ("s", "lower"),
    "core.delegation.apply_changes_s": ("s", "lower"),
    "core.delegation.tcb_view_calls": ("count", "lower"),
    "core.delegation.self_s": ("s", "lower"),
    "vulns.probes": ("count", "lower"),
    "vulns.self_s": ("s", "lower"),
    "vulns.probe_hit_ratio": ("ratio", "higher"),
    "core.engine.chain_hit_ratio": ("ratio", "higher"),
    "core.tcb.report_s": ("s", "lower"),
    "core.mincut.calls": ("count", "lower"),
    "core.mincut.analyze_s": ("s", "lower"),
    "core.passes.availability.analyze_s": ("s", "lower"),
    "core.engine.aggregate_s": ("s", "lower"),
    "core.passes.value.finalize_s": ("s", "lower"),
    "topology.churn.advance_s": ("s", "lower"),
    "topology.churn.events": ("count", "lower"),
    "core.delta.index_s": ("s", "lower"),
    "core.delta.dirty_names": ("count", "lower"),
    "core.delta.run_delta_s": ("s", "lower"),
    "core.timeline.reduce_s": ("s", "lower"),
    "core.snapshot.diff_s": ("s", "lower"),
    "core.snapstore.append_s": ("s", "lower"),
    "core.snapstore.append_bytes": ("bytes", "lower"),
    "core.atomic.commit_s": ("s", "lower"),
    "core.snapstore.load_epoch_s": ("s", "lower"),
    "core.snapstore.record_for_s": ("s", "lower"),
    "core.snapstore.hydrated_rows": ("count", "lower"),
    "topology.generate_s": ("s", "lower"),
    "distrib.build_s": ("s", "lower"),
    "distrib.bytes_sent": ("bytes", "lower"),
    "distrib.bytes_received": ("bytes", "lower"),
    "distrib.wait_s": ("s", "lower"),
    "distrib.decode_s": ("s", "lower"),
    "distrib.fold_s": ("s", "lower"),
    "distrib.rediscovery_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(outcome) -> dict:
    """Reads repeat identical work spread over the run, so a burst of
    contention slows a minority of them and ``read_s`` is their median."""
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "names_per_s": outcome.names / outcome.op_time_s(),
        "read_s": statistics.median(outcome.read_s),
        "store_bytes": statistics.median(outcome.store_bytes),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome) -> dict:
    """Per-layer figures over the traced run's measured window.

    ``_s`` figures are self times.  ``topology.generate_s`` comes from
    the set-up phase, which it belongs to.  The ``distrib`` figures come
    from the traced socket survey of a ``cold_survey`` run.
    """
    tracer = outcome.tracer
    calls, self_s = tracer.calls, tracer.self_s
    reports = calls("core.tcb.report")
    surveyed = (tracer.counter("core.delta.dirty_names")
                if outcome.epochs else outcome.names)
    context_probes = tracer.counter("core.engine.fingerprint")
    values = {
        "netsim.queries": calls("netsim"),
        "netsim.self_s": self_s("netsim"),
        "dns.server.queries": calls("dns.server"),
        "dns.server.self_s": self_s("dns.server"),
        "dns.resolver.chain_calls": calls("dns.resolver"),
        "dns.resolver.self_s": self_s("dns.resolver"),
        "dns.resolver.queries_per_chain": _ratio(
            calls("netsim", parent="dns.resolver"), calls("dns.resolver")),
        "dns.resolver.invalidate_s": self_s("dns.resolver.invalidate"),
        "core.delegation.apply_changes_s": self_s(
            "core.delegation.apply_changes"),
        "core.delegation.tcb_view_calls": calls("core.delegation"),
        "core.delegation.self_s": self_s("core.delegation"),
        "vulns.probes": calls("vulns"),
        "vulns.self_s": self_s("vulns"),
        "vulns.probe_hit_ratio": (1 - _ratio(calls("vulns"), context_probes)
                                  if context_probes else 0.0),
        "core.engine.chain_hit_ratio": (1 - _ratio(reports, surveyed)
                                        if reports else 0.0),
        "core.tcb.report_s": self_s("core.tcb.report"),
        "core.mincut.calls": calls("core.mincut"),
        "core.mincut.analyze_s": self_s("core.mincut"),
        "core.passes.availability.analyze_s": self_s(
            "core.passes.availability"),
        "core.engine.aggregate_s": self_s("core.engine.aggregate"),
        "core.passes.value.finalize_s": self_s("core.passes.value.finalize"),
        "topology.churn.advance_s": self_s("topology.churn"),
        "topology.churn.events": tracer.counter("topology.churn.events"),
        "core.delta.index_s": self_s("core.delta.index"),
        "core.delta.dirty_names": tracer.counter("core.delta.dirty_names"),
        "core.delta.run_delta_s": self_s("core.delta"),
        "core.timeline.reduce_s": self_s("core.timeline.reduce"),
        "core.snapshot.diff_s": self_s("core.snapshot.diff"),
        "core.snapstore.append_s": self_s("core.snapstore.append"),
        "core.snapstore.append_bytes": tracer.counter(
            "core.snapstore.append_bytes"),
        "core.atomic.commit_s": self_s("core.atomic.commit"),
        "core.snapstore.load_epoch_s": self_s("core.snapstore.load_epoch"),
        "core.snapstore.record_for_s": self_s("core.snapstore.record_for"),
        "core.snapstore.hydrated_rows": tracer.hydrated_rows(),
        "topology.generate_s": self_s("topology.generate", phase="setup"),
        # Connect plus the BUILD round trip, waiting included: the
        # workers regenerate the world before they answer.
        "distrib.build_s": tracer.total_s("distrib.build",
                                          phase="socket.setup"),
        "distrib.bytes_sent": outcome.layer.get("distrib.bytes_sent", 0),
        "distrib.bytes_received": outcome.layer.get(
            "distrib.bytes_received", 0),
        "distrib.wait_s": self_s("distrib.wait", phase="socket.measure",
                                 parent="distrib"),
        "distrib.decode_s": self_s("distrib.decode", phase="socket.measure"),
        # The coordinator's own work in run_shards: packing orders and
        # folding records and maps into the aggregate.
        "distrib.fold_s": self_s("distrib", phase="socket.measure") + self_s(
            "core.engine.aggregate", phase="socket.measure",
            parent="distrib"),
        "distrib.rediscovery_ratio": outcome.layer.get(
            "distrib.rediscovery_ratio", 0.0),
        # Spans are wall-clock; the overhead compares CPU time, which the
        # hypervisor's steal does not move.
        "trace.coverage": _ratio(tracer.top_level_s(),
                                 outcome.window_wall_s),
        "trace.overhead": _ratio(outcome.window_cpu_s,
                                 outcome.untraced_window_cpu_s) - 1,
    }
    return values


def where_the_time_goes(outcome, phase: str = "measure") -> list:
    """Rows of (span, calls, self_s, share of the phase's window)."""
    tracer = outcome.tracer
    window = (outcome.socket_window_wall_s if phase.startswith("socket")
              else outcome.window_wall_s)
    rows = [[name, calls, round(self_time, 4),
             round(_ratio(self_time, window), 4)]
            for name, calls, self_time in tracer.breakdown(phase)]
    uncovered = window - tracer.top_level_s(phase)
    rows.append(["(under no span)", 0, round(uncovered, 4),
                 round(_ratio(uncovered, window), 4)])
    return rows


# -- stamps ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD's commit, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of every source file, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamps(args, outcome) -> dict:
    from repro.core.atomic import fsync_enabled
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "names": outcome.names, "servers": outcome.servers,
        "epochs": outcome.epochs, "fsync": fsync_enabled(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_survey", "churn_store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work,
                                workloads.Ledger(OUT / "ledger.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"stamps": stamps(args, outcome),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failed_fraction": _ratio(outcome.failed, outcome.attempted),
              "problems": outcome.problems,
              "samples": {"setup_s": outcome.setup_s,
                          "op_s": outcome.op_s, "pieces": outcome.pieces,
                          "read_s": outcome.read_s,
                          "store_bytes": outcome.store_bytes},
              "wall_samples": outcome.wall}
    if args.trace:
        values, units = per_layer(outcome), PER_LAYER
        record["where_the_time_goes"] = where_the_time_goes(outcome)
        record["window_wall_s"] = outcome.window_wall_s
        if outcome.socket_window_wall_s:
            record["where_the_time_goes_socket"] = where_the_time_goes(
                outcome, "socket.measure")
            record["socket_window_wall_s"] = outcome.socket_window_wall_s
        for name, calls, self_time, share in record["where_the_time_goes"]:
            print(f"{name:32s} {calls:>9d} {self_time:>9.3f}s "
                  f"{share:>7.1%}", file=sys.stderr)
    else:
        values, units = end_to_end(outcome), END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]}
               for name in units}
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
