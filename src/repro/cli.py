"""Command-line interface: generate a synthetic Internet, survey it, report.

The CLI mirrors how the paper's results would be reproduced from a shell::

    repro-dns survey --sld-count 800 --output snapshot.json
    repro-dns survey --backend socket --workers 4 \\
        --passes availability,dnssec --output signed.json
    repro-dns report snapshot.json
    repro-dns diff snapshot.json signed.json
    repro-dns inspect www.fbi.gov --sld-count 400

Subcommands
-----------
``survey``
    Generate a synthetic Internet, run the full survey (optionally with
    extra analysis passes), print the headline statistics, and optionally
    write a snapshot.  ``--backend`` picks where the names are surveyed:
    ``serial`` (the reference) or ``socket`` (one stripe of the names on
    each worker, see ``worker``); both give byte-identical results.
    Snapshots are JSON by default (``--compress`` for zlib), or the
    columnar binary REPRO-SNAP store with ``--format binary``.  Every
    command that reads a snapshot sniffs the codec from the file's
    leading bytes, so formats mix freely.
``report``
    Re-print the headline statistics and per-figure summaries from a snapshot
    produced by ``survey``.
``diff``
    Compare two snapshots name by name: TCB size, classification, and
    pass-column (availability / DNSSEC) churn.
``resurvey``
    Incremental re-survey: regenerate the snapshot's synthetic Internet,
    apply ``--mutate`` world changes through a change journal, and re-survey
    only the names the changes invalidated — patching everything else from
    the previous snapshot.  The output snapshot is byte-identical to a cold
    full survey of the mutated world.  Alongside each ``--output`` snapshot
    a ``<output>.journal`` sidecar records the applied mutation specs, and
    a later ``resurvey`` of that snapshot replays them first, so chained
    incremental runs keep seeing the correctly re-mutated world::

        repro-dns resurvey prev.json \\
            --mutate 'set-ns:zone=site1.com;ns=ns1.webhost2.com' \\
            --mutate 'set-software:host=dns1.univ3.edu;software=BIND 8.2.2' \\
            --output next.json
``churn``
    Longitudinal churn simulation: run a seeded churn model (registrar
    transfers, server death/replacement, software and region churn, monotone
    DNSSEC adoption) for ``--epochs`` epochs over one synthetic Internet,
    re-surveying incrementally after each epoch, and write the per-epoch
    drift series as a machine-readable ``timeline.json``::

        repro-dns churn --epochs 12 --churn-seed 7 \\
            --rates 'transfer=2,death=0.5,upgrade=3,dnssec=0.05' \\
            --passes availability,dnssec:fraction=0.2 \\
            --output timeline.json
``timeline``
    Render a timeline written by ``churn``: per-epoch drift (hijackable
    fraction, TCB size, availability, DNSSEC progress, churned names) plus
    the biggest movers of the final epoch.
``worker``
    Run a survey worker: a warm serial engine behind a TCP socket,
    driven by a ``--backend socket`` coordinator.  ``--backend socket``
    with ``--worker-addrs host:port,...`` (on ``survey``, ``resurvey``,
    and ``churn``) shards the survey across running workers — possibly
    on other machines — and merges byte-identically to the serial
    backend; without addresses it spawns ``--workers`` local worker
    processes itself::

        repro-dns worker --listen 0.0.0.0:8053        # on each host
        repro-dns survey --backend socket \\
            --worker-addrs hostA:8053,hostB:8053 --output socket.json
``merge``
    Fold shard snapshot files written by ``survey --shard i/n`` into
    one results snapshot, byte-identical to a serial survey's records
    and aggregates::

        repro-dns survey --shard 0/3 --output s0.rsnap   # + 1/3, 2/3
        repro-dns merge s0.rsnap s1.rsnap s2.rsnap --output full.rsnap
``inspect``
    Build the delegation graph of a single name and print its TCB, bottleneck
    analysis, and (if any) attack path.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

# Only what building the parser and printing tables needs is imported
# here; each command imports the rest of the program it runs, so
# ``report`` never loads the resolver, the engine or the generator.
from repro.core.report import format_table, sort_groups_descending
from repro.core.snapshot import (
    SNAPSHOT_FORMATS,
    SnapshotFormatError,
    load_results,
)
from repro.core.survey import BACKENDS, SurveyColumns, SurveyResults


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Reproduce the IMC 2005 DNS transitive-trust survey on a "
                    "synthetic Internet.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    survey = subparsers.add_parser(
        "survey", help="generate a synthetic Internet and survey it")
    _add_generator_arguments(survey)
    survey.add_argument("--max-names", type=int, default=None,
                        help="survey at most this many directory names")
    survey.add_argument("--output", type=str, default=None,
                        help="write a snapshot of the results here")
    _add_snapshot_output_arguments(survey)
    survey.add_argument("--no-bottleneck", action="store_true",
                        help="skip the min-cut bottleneck analysis")
    survey.add_argument("--backend", type=str, default="serial",
                        choices=BACKENDS,
                        help="survey execution backend (all backends "
                             "produce identical results)")
    survey.add_argument("--workers", type=_positive_int, default=1,
                        help="socket backend: how many local workers to "
                             "spawn when --worker-addrs is omitted")
    survey.add_argument("--passes", type=str, default=None,
                        help="comma-separated analysis passes, e.g. "
                             "'availability,dnssec' or "
                             "'availability:up=0.95;samples=100'")
    _add_worker_addr_argument(survey)
    survey.add_argument("--shard", type=_shard_spec, default=None,
                        metavar="I/N",
                        help="survey only stripe I of N (0-based) on a "
                             "serial engine and write a binary shard file "
                             "to --output; N shard files covering every "
                             "stripe merge with 'repro-dns merge' into a "
                             "results snapshot byte-identical to one "
                             "serial survey")
    survey.add_argument("--progress", action="store_true",
                        help="print survey progress to stderr")

    report = subparsers.add_parser(
        "report", help="summarise a previously saved snapshot")
    report.add_argument("snapshot", type=str, help="path to a snapshot JSON")

    diff = subparsers.add_parser(
        "diff", help="compare two snapshots name by name")
    diff.add_argument("snapshot_a", type=str,
                      help="baseline snapshot JSON")
    diff.add_argument("snapshot_b", type=str,
                      help="comparison snapshot JSON")
    diff.add_argument("--top", type=_positive_int, default=10,
                      help="number of most-changed names to list")

    resurvey = subparsers.add_parser(
        "resurvey",
        help="mutate the world and re-survey only the invalidated names")
    resurvey.add_argument("previous", type=str,
                          help="snapshot JSON of the previous survey (must "
                               "have been produced with the same generator "
                               "arguments)")
    _add_generator_arguments(resurvey)
    resurvey.add_argument("--mutate", action="append", default=[],
                          metavar="SPEC",
                          help="world mutation to journal before the "
                               "re-survey, e.g. "
                               "'set-ns:zone=site1.com;ns=ns1.webhost2.com' "
                               "or 'dnssec:fraction=0.5' (repeatable)")
    resurvey.add_argument("--max-names", type=int, default=None,
                          help="survey scope, matching the previous run's "
                               "--max-names")
    resurvey.add_argument("--output", type=str, default=None,
                          help="write the re-survey snapshot here")
    _add_snapshot_output_arguments(resurvey)
    resurvey.add_argument("--no-bottleneck", action="store_true",
                          help="skip the min-cut bottleneck analysis")
    resurvey.add_argument("--backend", type=str, default="serial",
                          choices=BACKENDS,
                          help="re-survey execution backend")
    resurvey.add_argument("--workers", type=_positive_int, default=1,
                          help="socket backend: how many local workers to "
                               "spawn when --worker-addrs is omitted")
    resurvey.add_argument("--passes", type=str, default=None,
                          help="analysis passes, matching the previous run")
    _add_worker_addr_argument(resurvey)
    resurvey.add_argument("--progress", action="store_true",
                          help="print re-survey progress to stderr")

    churn = subparsers.add_parser(
        "churn",
        help="simulate longitudinal churn: seeded world mutations with an "
             "incremental re-survey after every epoch")
    _add_generator_arguments(churn)
    churn.add_argument("--epochs", type=_positive_int, default=10,
                       help="number of churn epochs to simulate")
    churn.add_argument("--churn-seed", type=int, default=0,
                       help="RNG seed for the churn model (independent of "
                            "the world seed, so one world supports many "
                            "churn scenarios)")
    churn.add_argument("--rates", type=str, default=None,
                       help="per-epoch churn rates as class=rate pairs, "
                            "e.g. 'transfer=2,death=0.5,upgrade=3,"
                            "downgrade=1,region=2,dnssec=0.05' (expected "
                            "events per epoch; dnssec is the per-epoch "
                            "increment of the signed-zone fraction)")
    churn.add_argument("--max-names", type=int, default=None,
                       help="survey at most this many directory names")
    churn.add_argument("--output", type=str, default=None,
                       help="write the machine-readable timeline JSON here")
    churn.add_argument("--store", type=str, default=None, metavar="DIR",
                       help="persist every epoch's full results into a "
                            "binary epoch store at DIR (epoch 0 complete, "
                            "later epochs as column deltas; any epoch "
                            "re-opens with 'repro-dns report DIR/"
                            "epoch_NNNN.rsnap' — epoch 0 — or via "
                            "repro.core.snapstore.EpochStore)")
    churn.add_argument("--no-bottleneck", action="store_true",
                       help="skip the min-cut bottleneck analysis")
    churn.add_argument("--backend", type=str, default="serial",
                       choices=BACKENDS,
                       help="survey execution backend for every epoch")
    churn.add_argument("--workers", type=_positive_int, default=1,
                       help="socket backend: how many local workers to "
                            "spawn when --worker-addrs is omitted")
    churn.add_argument("--passes", type=str, default=None,
                       help="analysis passes run every epoch, e.g. "
                            "'availability,dnssec:fraction=0.2' (a dnssec "
                            "pass seeds the adoption model's start state)")
    _add_worker_addr_argument(churn)
    churn.add_argument("--keyframe-every", type=_positive_int, default=None,
                       metavar="K",
                       help="with --store: write a complete snapshot every "
                            "K epochs instead of a column delta, so "
                            "load_epoch overlay chains never exceed K")
    churn.add_argument("--cold-check", action="store_true",
                       help="audit mode: run a cold full survey after every "
                            "epoch and record whether the incremental "
                            "snapshot is byte-identical (slow)")
    churn.add_argument("--progress", action="store_true",
                       help="print per-epoch progress to stderr")
    churn.add_argument("--resume", action="store_true",
                       help="resume an interrupted run from --store: replay "
                            "the committed epochs deterministically (no "
                            "re-survey), then continue live from the first "
                            "missing epoch; the finished timeline matches "
                            "an uninterrupted run")
    churn.add_argument("--no-fsync", action="store_true",
                       help="skip fsync in every snapshot commit (atomic "
                            "temp+rename is kept); for tests and benchmarks "
                            "where power-loss durability is irrelevant")

    timeline = subparsers.add_parser(
        "timeline",
        help="render the per-epoch drift series of a churn timeline")
    timeline.add_argument("timeline", type=str,
                          help="path to a timeline JSON written by churn")
    timeline.add_argument("--movers", type=_positive_int, default=5,
                          help="number of most-changed names to list for "
                               "the final epoch (timelines record at most "
                               "10 per epoch)")
    timeline.add_argument("--fingerprint", action="store_true",
                          help="print only the canonical content "
                               "fingerprint (sha256 over the timeline "
                               "modulo wall-clock timings and per-run "
                               "paths/ports) and exit; two runs of the "
                               "same simulation — interrupted+resumed or "
                               "not, any backend — print the same value")

    fsck = subparsers.add_parser(
        "fsck",
        help="check an epoch store directory (churn --store) or a single "
             "snapshot file for corruption; --salvage quarantines a "
             "store's bad tail so 'churn --resume' can continue from the "
             "valid prefix")
    fsck.add_argument("path", type=str,
                      help="epoch store directory or snapshot file "
                           "(REPRO-SNAP or JSON)")
    fsck.add_argument("--salvage", action="store_true",
                      help="repair a salvageable store: move corrupt or "
                           "orphaned epoch files into <store>/quarantine/ "
                           "and delete uncommitted temp debris (refused "
                           "when epoch 0 itself is bad)")

    worker = subparsers.add_parser(
        "worker",
        help="run a survey worker: a warm serial engine serving BUILD/"
             "SURVEY frames from a socket coordinator (the socket "
             "backend's remote end)")
    worker.add_argument("--listen", type=str, default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="address to listen on (port 0 picks a free "
                             "port; the bound address is printed as "
                             "'listening on HOST:PORT')")
    worker.add_argument("--auth-token", type=str, default=None,
                        help="require a valid HMAC HELLO handshake under "
                             "this shared secret before serving any frame "
                             "(defaults to $REPRO_AUTH_TOKEN; unset "
                             "disables auth)")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="drop a coordinator connection after this "
                             "long without a frame (the worker goes back "
                             "to accepting; warm state is kept)")
    worker.add_argument("--fault-plan", type=str, default=None,
                        metavar="SPEC",
                        help="chaos testing: arm this worker with a "
                             "deterministic fault plan, e.g. "
                             "'seed=7,kill:recv:2' (defaults to "
                             "$REPRO_FAULT_PLAN)")
    worker.add_argument("--parent-pid", type=int, default=None,
                        metavar="PID",
                        help="orphan watchdog: exit when PID stops being "
                             "this process's parent (spawned local fleets "
                             "set it so a crashed coordinator never leaks "
                             "listener processes)")

    merge = subparsers.add_parser(
        "merge",
        help="fold shard snapshot files (survey --shard outputs) into "
             "one results snapshot")
    merge.add_argument("shards", type=str, nargs="+",
                       help="shard snapshot files covering every stripe "
                            "exactly once")
    merge.add_argument("--output", type=str, required=True,
                       help="write the merged binary results snapshot here")

    inspect = subparsers.add_parser(
        "inspect", help="analyse a single name on a fresh synthetic Internet")
    _add_generator_arguments(inspect)
    inspect.add_argument("name", type=str,
                         help="domain name to analyse (e.g. www.fbi.gov)")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _shard_spec(text: str):
    index_text, _, count_text = text.partition("/")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 0/4), got {text!r}")
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= I < N, got {text!r}")
    return index, count


def _add_worker_addr_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--worker-addrs", type=str, default=None,
                        metavar="HOST:PORT,...",
                        help="socket backend: comma-separated addresses of "
                             "running 'repro-dns worker' processes; "
                             "omitted, --backend socket spawns --workers "
                             "local worker processes itself")
    parser.add_argument("--retries", type=int, default=0,
                        help="socket backend: per-incident retry budget "
                             "before a worker is declared dead and its "
                             "shard reassigned to a survivor (the default "
                             "0 is a zero budget: a worker's first failure "
                             "aborts the run)")
    parser.add_argument("--min-workers", type=_positive_int, default=1,
                        help="socket backend: abort once fewer than this "
                             "many workers survive (only --retries > 0 "
                             "can lose a worker)")
    parser.add_argument("--auth-token", type=str, default=None,
                        help="socket backend: shared secret for the HELLO "
                             "auth handshake (defaults to "
                             "$REPRO_AUTH_TOKEN; spawned local workers "
                             "inherit it automatically)")
    parser.add_argument("--fault-plan", action="append", default=[],
                        metavar="I=SPEC",
                        help="chaos testing (spawned local fleet only): arm "
                             "worker I with a deterministic fault plan, "
                             "e.g. '1=seed=7,kill:recv:2' (repeatable)")


def _auth_token(args: argparse.Namespace) -> Optional[str]:
    """The shared auth token: explicit flag, else $REPRO_AUTH_TOKEN."""
    from repro.distrib.wire import ENV_AUTH_TOKEN
    if getattr(args, "auth_token", None):
        return args.auth_token
    return os.environ.get(ENV_AUTH_TOKEN) or None


def _fault_plans(args: argparse.Namespace) -> Dict[int, str]:
    """Parse repeated ``--fault-plan I=SPEC`` into {worker index: spec}."""
    from repro.distrib.faults import FaultPlan
    from repro.distrib.wire import DistribError
    plans: Dict[int, str] = {}
    for item in getattr(args, "fault_plan", []) or []:
        index_text, separator, spec = str(item).partition("=")
        if not separator or not index_text.isdigit():
            raise DistribError(
                f"invalid --fault-plan {item!r}: expected I=SPEC "
                f"(e.g. '1=seed=7,kill:recv:2')")
        FaultPlan.parse(spec)  # validate eagerly, fail before spawning
        plans[int(index_text)] = spec
    return plans


def _worker_fleet(args: argparse.Namespace):
    """(worker_addrs, fleet) for a command; fleet is None unless spawned."""
    from repro.distrib.wire import DistribError
    addrs = tuple(item.strip() for item in (args.worker_addrs or "").split(",")
                  if item.strip())
    plans = _fault_plans(args)
    if args.backend != "socket":
        if addrs:
            raise DistribError(
                "--worker-addrs only applies to --backend socket")
        if args.workers != 1:
            raise DistribError("--workers only applies to --backend socket")
        if plans:
            raise DistribError(
                "--fault-plan only applies to --backend socket")
        return (), None
    min_workers = getattr(args, "min_workers", 1) or 1
    if min_workers > (len(addrs) or args.workers):
        # Fail before any worker process spawns, with the CLI's one-line
        # error contract rather than EngineConfig.validate's ValueError.
        raise DistribError(
            f"--min-workers {min_workers} exceeds the "
            f"{len(addrs) or args.workers} configured workers")
    if addrs:
        if plans:
            raise DistribError(
                "--fault-plan arms spawned local workers; with "
                "--worker-addrs, start each remote worker with its own "
                "--fault-plan instead")
        return addrs, None
    from repro.distrib.coordinator import LocalWorkerFleet
    bad = [index for index in plans if index >= args.workers]
    if bad:
        raise DistribError(
            f"--fault-plan worker index {bad[0]} out of range "
            f"(spawning {args.workers} workers)")
    fleet = LocalWorkerFleet(args.workers, auth_token=_auth_token(args),
                             fault_plans=plans)
    return tuple(fleet.start()), fleet


def _print_fault_report(metadata: Dict[str, object]) -> None:
    """One summary line when the recovery machinery had to act."""
    report = metadata.get("fault_report")
    if not isinstance(report, dict):
        return
    dead = report.get("dead_workers") or []
    print(f"fault recovery: {report.get('retries', 0)} retries, "
          f"{report.get('rebuilds', 0)} rebuilds, "
          f"{report.get('reassignments', 0)} shard reassignments, "
          f"{len(dead)} dead worker(s)"
          f"{' (' + ', '.join(dead) + ')' if dead else ''} in "
          f"{report.get('recovery_seconds', 0)}s")


def _add_snapshot_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", type=str, default="json",
                        choices=SNAPSHOT_FORMATS, dest="format",
                        help="snapshot codec for --output: 'json' (interop, "
                             "human-greppable) or 'binary' (columnar "
                             "REPRO-SNAP: mmap-backed, O(1) open, lazy "
                             "records); loaders sniff the format by magic "
                             "bytes, never by extension")
    parser.add_argument("--compress", action="store_true",
                        help="zlib-compress the JSON snapshot (loaders "
                             "sniff and decompress transparently; not "
                             "applicable to --format binary)")


def _write_snapshot(results: SurveyResults, args: argparse.Namespace):
    """Write ``--output`` honouring ``--format`` / ``--compress``."""
    from repro.core.snapshot import save_results

    if args.compress and args.format == "binary":
        raise SnapshotFormatError(
            "--compress applies to --format json only (binary snapshots "
            "are already compact)")
    return save_results(results, args.output, format=args.format,
                        compress=args.compress)


def _add_generator_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=20040722,
                        help="RNG seed for the synthetic Internet")
    parser.add_argument("--sld-count", type=int, default=800,
                        help="number of generic second-level domains")
    parser.add_argument("--directory-names", type=int, default=1400,
                        help="target number of web-directory names")
    parser.add_argument("--universities", type=int, default=90,
                        help="number of universities in the topology")


def _generate_internet(args: argparse.Namespace):
    """The synthetic Internet the generator arguments describe."""
    from repro.topology.generator import GeneratorConfig, InternetGenerator

    return InternetGenerator(GeneratorConfig(
        seed=args.seed, sld_count=args.sld_count,
        directory_name_count=args.directory_names,
        university_count=args.universities)).generate()


def _print_survey(results: SurveyResults, tld_tables: bool = True) -> None:
    """The headline, the per-TLD tables (if asked), the pass summary and
    the value ranking, all off one :class:`SurveyColumns`, so each
    column is read once."""
    columns = results.columns()
    _print_headline(columns)
    if tld_tables:
        _print_tld_tables(columns)
    _print_extras_summary(columns)
    _print_value_summary(results)


def _print_headline(columns: SurveyColumns) -> None:
    headline = columns.headline()
    rows = [(key, f"{value:.3f}" if isinstance(value, float) else value)
            for key, value in sorted(headline.items())]
    print(format_table(rows, headers=("statistic", "value")))


def _print_extras_summary(columns: SurveyColumns) -> None:
    """Summarise analysis-pass columns, when the survey ran any."""
    summary = columns.extras_summary()
    if not summary:
        return
    print()
    print("Analysis passes (availability / DNSSEC impact)")
    rows = [(key, f"{value:.3f}") for key, value in sorted(summary.items())]
    print(format_table(rows, headers=("pass column", "mean / fraction")))


def _print_value_summary(results: SurveyResults) -> None:
    """Summarise the value pass's finalize() metadata, when present."""
    summary = results.metadata.get("value_summary")
    if not isinstance(summary, dict):
        return
    print()
    print("Nameserver value ranking (Figures 8-9)")
    rows = [(key, f"{value:.3f}" if isinstance(value, float) else value)
            for key, value in sorted(summary.items())]
    print(format_table(rows, headers=("statistic", "value")))
    top = results.metadata.get("value_top_servers") or []
    if top:
        print()
        rows = [(entry.get("rank", index + 1), entry.get("hostname", "?"),
                 entry.get("names_controlled", 0),
                 "yes" if entry.get("vulnerable") else "no")
                for index, entry in enumerate(top)]
        print(format_table(rows, headers=("rank", "nameserver",
                                          "names controlled", "vulnerable")))


def _print_tld_tables(columns: SurveyColumns) -> None:
    for kind, title in (("gtld", "Mean TCB size per gTLD (Figure 3)"),
                        ("cctld", "Mean TCB size per ccTLD (Figure 4)")):
        averages = sort_groups_descending(columns.mean_tcb_by_tld(kind=kind))
        if not averages:
            continue
        print()
        print(title)
        rows = [(tld, f"{mean:.1f}") for tld, mean in averages[:15]]
        print(format_table(rows, headers=("tld", "mean TCB")))


class ProgressPrinter:
    """Prints coarse survey progress to stderr (every ~2% and at the end)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._last_printed = -1

    def __call__(self, done: int, total: int) -> None:
        step = max(total // 50, 1)
        if done != total and done - self._last_printed < step:
            return
        self._last_printed = done
        print(f"surveyed {done}/{total} names", file=self.stream)


def _command_survey(args: argparse.Namespace) -> int:
    from repro.core.passes import build_passes
    from repro.core.survey import Survey

    if args.shard is not None:
        return _command_survey_shard(args)
    internet = _generate_internet(args)
    worker_addrs, fleet = _worker_fleet(args)
    survey = Survey(internet, include_bottleneck=not args.no_bottleneck,
                    backend=args.backend, passes=build_passes(args.passes),
                    worker_addrs=worker_addrs, retries=args.retries,
                    min_workers=args.min_workers,
                    auth_token=_auth_token(args))
    progress = ProgressPrinter() if args.progress else None
    try:
        results = survey.run(max_names=args.max_names, progress=progress)
    finally:
        survey.close()
        if fleet is not None:
            fleet.stop()
    _print_fault_report(results.metadata)
    _print_survey(results)
    if args.output:
        path = _write_snapshot(results, args)
        print(f"\nsnapshot written to {path}")
        # A full survey starts a fresh lineage: a mutation sidecar left
        # over from an earlier resurvey at this path no longer describes
        # this snapshot and must not be replayed onto it.
        sidecar = _sidecar_journal_path(args.output)
        if sidecar.exists():
            sidecar.unlink()
            print(f"stale mutation journal {sidecar} removed")
    return 0


def _command_survey_shard(args: argparse.Namespace) -> int:
    """Survey one stripe of the directory into a binary shard file."""
    from repro.core.engine import EngineConfig, SurveyEngine, stripes
    from repro.core.passes import build_passes
    from repro.core.snapstore import pack_shard_result
    from repro.distrib.wire import DistribError

    if not args.output:
        raise DistribError("--shard requires --output (the shard file)")
    if args.backend != "serial":
        raise DistribError("--shard runs on the serial engine (the socket "
                           "backend shards online; merge offline shards "
                           "with 'repro-dns merge')")
    _worker_fleet(args)  # rejects the socket-only options
    index, count = args.shard
    internet = _generate_internet(args)
    engine = SurveyEngine(internet, config=EngineConfig(
        backend="serial", include_bottleneck=not args.no_bottleneck,
        passes=build_passes(args.passes)))
    entries = engine._select_entries(None, args.max_names)
    # Fewer names than shards leaves the shards past the last name empty.
    shards = stripes(list(enumerate(entries)), count)
    indexed = shards[index] if index < len(shards) else []
    popular = {entry.name for entry in
               internet.directory.alexa_top(engine.config.popular_count)}
    shard = engine.survey_stripe(
        engine._root, indexed, popular,
        progress=ProgressPrinter() if args.progress else None)
    path = pack_shard_result(*shard._replace(popular=popular, meta={
        "shard": f"{index}/{count}",
        "popular_count": engine.config.popular_count,
        "include_bottleneck": engine.config.include_bottleneck,
        "names_requested": len(entries),
        "passes": [pass_.name for pass_ in engine.passes]}),
        path=args.output)
    print(f"shard {index}/{count}: {len(indexed)} of {len(entries)} names "
          f"surveyed, written to {path}")
    return 0


def _watch_parent(parent_pid: int) -> None:
    """Exit when ``parent_pid`` stops being our parent (orphan watchdog).

    A coordinator that dies mid-commit (crash, SIGKILL, crash-matrix
    fault injection) cannot stop the workers it spawned; without this a
    killed ``churn --backend socket`` run leaks listener processes.
    Reparenting (to init or a subreaper) is the death signal: poll ppid
    once a second and exit cleanly when it changes.
    """
    import threading
    import time as time_module

    def watch() -> None:
        while os.getppid() == parent_pid:
            time_module.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watchdog",
                     daemon=True).start()


def _command_worker(args: argparse.Namespace) -> int:
    from repro.distrib.faults import (FaultInjector, FaultPlan,
                                      activate_from_env)
    from repro.distrib.wire import install_fault_injector, parse_address
    from repro.distrib.worker import WorkerServer

    if args.fault_plan:
        install_fault_injector(FaultInjector(FaultPlan.parse(args.fault_plan)))
    else:
        activate_from_env()
    if args.parent_pid:
        _watch_parent(args.parent_pid)
    host, port = parse_address(args.listen)
    server = WorkerServer(host, port, auth_token=_auth_token(args),
                          idle_timeout=args.idle_timeout)
    print(f"listening on {server.address}", flush=True)
    server.serve_forever()
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    from repro.distrib.merge import merge_shard_snapshots

    report = merge_shard_snapshots(args.shards, args.output)
    print(f"merged {report.shards} shard file(s), {report.names} names, "
          f"into {report.output} ({report.bytes_written} bytes)")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    results = load_results(args.snapshot)
    _print_survey(results)
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    from repro.core.snapshot import diff_results

    results_a = load_results(args.snapshot_a)
    results_b = load_results(args.snapshot_b)
    diff = diff_results(results_a, results_b)

    print(f"snapshot diff: {args.snapshot_a} -> {args.snapshot_b}")
    print(f"names: {diff.common} common, "
          f"{len(diff.only_in_a)} only in baseline, "
          f"{len(diff.only_in_b)} only in comparison, "
          f"{diff.changed} changed")

    if diff.numeric:
        print()
        print("Per-name churn (common names)")
        rows = []
        for field in sorted(diff.numeric):
            stats = diff.numeric[field]
            rows.append((field, f"{stats['changed']:.0f}",
                         f"{stats['mean_delta']:+.3f}",
                         f"{stats['mean_abs_delta']:.3f}",
                         f"{stats['max_abs_delta']:.3f}"))
        print(format_table(rows, headers=("field", "changed", "mean d",
                                          "mean |d|", "max |d|")))

    for field in sorted(diff.transitions):
        print()
        print(f"{field} transitions")
        rows = [(f"{before} -> {after}", count)
                for (before, after), count in
                sorted(diff.transitions[field].items(),
                       key=lambda item: (-item[1], item[0]))]
        print(format_table(rows, headers=("transition", "names")))

    movers = diff.top_movers(args.top)
    if movers:
        print()
        print(f"Most-changed names (top {len(movers)})")
        rows = []
        for change in movers:
            details = "; ".join(
                f"{field}: {before} -> {after}"
                for field, (before, after) in sorted(change.fields.items()))
            rows.append((str(change.name), details))
        print(format_table(rows, headers=("name", "changes")))
    return 0


def _sidecar_journal_path(snapshot_path: str):
    import pathlib
    return pathlib.Path(str(snapshot_path) + ".journal")


def _snapshot_sha256(path) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_sidecar(sidecar, snapshot_path) -> List[str]:
    """Mutation specs from a journal sidecar (v1 bare list or v2 dict).

    A v2 sidecar binds itself to its snapshot by content hash: the
    sidecar commits *before* the snapshot publishes (see
    :func:`_commit_snapshot_with_sidecar`), so a crash between the two
    surfaces here as a hash mismatch — a precise error — instead of a
    silently stale journal replay that would corrupt every later
    resurvey in the chain.
    """
    import json as json_module
    payload = json_module.loads(sidecar.read_text(encoding="utf-8"))
    if isinstance(payload, list):  # v1: bare spec list, no binding hash
        return [str(spec) for spec in payload]
    if not isinstance(payload, dict) or "specs" not in payload:
        raise SnapshotFormatError(
            f"{sidecar}: unrecognised journal sidecar (expected a spec "
            f"list or a v2 {{specs, snapshot_sha256}} document)")
    expected = payload.get("snapshot_sha256")
    if expected:
        actual = _snapshot_sha256(snapshot_path)
        if actual != expected:
            raise SnapshotFormatError(
                f"{sidecar}: sidecar does not match {snapshot_path} "
                f"(snapshot sha256 {actual[:12]}..., sidecar recorded "
                f"{expected[:12]}...): the snapshot commit it describes "
                f"never completed — re-run the resurvey that produced "
                f"it, or delete the sidecar to treat the snapshot as "
                f"unmutated")
    return [str(spec) for spec in payload["specs"]]


def _commit_snapshot_with_sidecar(results: SurveyResults, output,
                                  specs: List[str],
                                  args: argparse.Namespace):
    """Publish a resurvey snapshot and its journal sidecar crash-consistently.

    Order matters: the snapshot is staged under a temp name, the sidecar
    — recording the staged snapshot's sha256 — commits first, and only
    then does the snapshot publish over the old one.  A crash at any
    point leaves either the old pair intact or a sidecar whose hash
    exposes the unpublished snapshot (:func:`_load_sidecar` rejects the
    pair); never a published snapshot with a journal missing its
    mutations.
    """
    import json as json_module
    from repro.core.atomic import atomic_write_text, publish_file
    from repro.core.snapshot import save_results

    if args.compress and args.format == "binary":
        raise SnapshotFormatError(
            "--compress applies to --format json only (binary snapshots "
            "are already compact)")
    output.parent.mkdir(parents=True, exist_ok=True)
    staged = output.parent / f".{output.name}.staged.{os.getpid()}"
    try:
        save_results(results, staged, format=args.format,
                     compress=args.compress)
        payload = {"format": 2, "specs": list(specs),
                   "snapshot_sha256": _snapshot_sha256(staged)}
        atomic_write_text(_sidecar_journal_path(output),
                          json_module.dumps(payload, indent=1) + "\n")
        publish_file(staged, output)
    except BaseException:
        try:
            staged.unlink()
        except OSError:
            pass
        raise
    return output


def _command_resurvey(args: argparse.Namespace) -> int:
    from repro.core.engine import EngineConfig, SurveyEngine
    from repro.core.passes import build_passes
    from repro.topology.changes import ChangeJournal, apply_mutation_spec

    previous = load_results(args.previous)
    internet = _generate_internet(args)
    worker_addrs, fleet = _worker_fleet(args)
    engine = SurveyEngine(
        internet,
        config=EngineConfig(backend=args.backend,
                            include_bottleneck=not args.no_bottleneck,
                            passes=build_passes(args.passes),
                            worker_addrs=worker_addrs,
                            retries=args.retries,
                            min_workers=args.min_workers,
                            auth_token=_auth_token(args)))

    try:
        # Snapshots are byte-identical to cold surveys by design, so a
        # snapshot cannot reveal which mutations produced it.  A sidecar
        # journal (<snapshot>.journal) written next to every resurvey
        # output records the applied specs; replaying it first makes
        # chained resurveys see the correctly re-mutated world instead of
        # a pristine regeneration.
        journal = ChangeJournal(internet)
        replayed: List[str] = []
        sidecar = _sidecar_journal_path(args.previous)
        try:
            if sidecar.exists():
                replayed = _load_sidecar(sidecar, args.previous)
                for spec in replayed:
                    apply_mutation_spec(journal, spec)
                print(f"replayed {len(replayed)} prior mutation(s) from "
                      f"{sidecar}")
            prior_events = len(journal)
            for spec in args.mutate:
                event = apply_mutation_spec(journal, spec)
                print(f"mutated: {event}")
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        # Replayed mutations rebuilt world state the previous snapshot
        # already reflects; only the new events determine what is dirty
        # (DNSSEC deployment adoption always sees the whole chain — see
        # ChangeJournal.changes).  The journal itself goes to run_delta
        # (with `since`) rather than a pre-folded ChangeSet: the socket
        # backend ships journal events to its workers as mutation specs.
        progress = ProgressPrinter() if args.progress else None
        outcome = engine.run_delta(previous, journal, since=prior_events,
                                   max_names=args.max_names,
                                   progress=progress)
    finally:
        engine.close()
        if fleet is not None:
            fleet.stop()

    stats = outcome.stats
    _print_fault_report(outcome.results.metadata)
    print(f"re-surveyed {stats.dirty_names}/{stats.total_names} names "
          f"({stats.dirty_fraction:.1%} dirty, {stats.patched_names} "
          f"patched from {args.previous}) in {stats.elapsed_s:.2f}s")
    _print_survey(outcome.results, tld_tables=False)
    if args.output:
        import pathlib
        specs = replayed + [str(spec) for spec in args.mutate]
        path = _commit_snapshot_with_sidecar(
            outcome.results, pathlib.Path(args.output), specs, args)
        print(f"\nsnapshot written to {path}")
        print(f"mutation journal written to "
              f"{_sidecar_journal_path(args.output)}")
    return 0


def _timeline_rows(timeline) -> List[tuple]:
    """Per-epoch drift rows shared by ``churn`` and ``timeline`` output."""
    rows = []
    for snapshot in timeline.snapshots:
        availability = (f"{snapshot.availability_mean:.4f}"
                        if snapshot.availability_mean is not None else "-")
        secure = (f"{snapshot.dnssec_secure_fraction:.1%}"
                  if snapshot.dnssec_secure_fraction is not None else "-")
        rows.append((
            snapshot.epoch, snapshot.events,
            f"{snapshot.dirty_names}/{snapshot.total_names}",
            f"{snapshot.hijackable_fraction:.1%}",
            f"{snapshot.mean_tcb:.1f}",
            f"{snapshot.p95_tcb:.0f}",
            availability,
            f"{snapshot.dnssec_fraction:.0%}",
            secure,
            snapshot.changed_names,
            f"{snapshot.delta_elapsed_s:.2f}s"))
    return rows


_TIMELINE_HEADERS = ("epoch", "events", "dirty", "hijackable", "mean TCB",
                     "p95 TCB", "avail", "signed", "secure", "changed",
                     "survey")


def print_timeline(timeline, movers: int = 5) -> None:
    """Render the drift table plus the final epoch's biggest movers."""
    config = timeline.config
    print(f"churn timeline: {timeline.epochs} epochs, "
          f"churn seed {config.get('churn_seed')}, "
          f"backend {config.get('backend')}, "
          f"rates {config.get('rates')}")
    print()
    print(format_table(_timeline_rows(timeline), headers=_TIMELINE_HEADERS))
    if timeline.interrupted_at is not None:
        print(f"\nINTERRUPTED at epoch {timeline.interrupted_at}/"
              f"{config.get('epochs')}: the run stopped on request; the "
              f"epochs above are complete and committed, the rest were "
              f"never started (resume with 'repro-dns churn --resume')")
    last = timeline.snapshots[-1]
    if last.cold_identical is not None:
        audited = [s for s in timeline.snapshots
                   if s.cold_identical is not None]
        clean = sum(1 for s in audited if s.cold_identical)
        print(f"\ncold audit: {clean}/{len(audited)} epochs byte-identical "
              f"to a cold full survey")
    if last.top_movers:
        print(f"\nBiggest movers of epoch {last.epoch}")
        rows = [(mover["name"], mover["changes"])
                for mover in last.top_movers[:movers]]
        print(format_table(rows, headers=("name", "changes")))


def _command_churn(args: argparse.Namespace) -> int:
    import signal as signal_module

    from repro.core import atomic
    from repro.core.timeline import (dnssec_spec_options, run_churn_timeline,
                                     save_timeline)
    from repro.topology.churn import ChurnModel, ChurnRates

    if args.resume and not args.store:
        print("error: --resume requires --store (the epoch store holds the "
              "committed epochs to resume from)", file=sys.stderr)
        return 2
    if args.no_fsync:
        atomic.set_fsync(False)

    rates = ChurnRates.parse(args.rates)
    internet = _generate_internet(args)

    initial_dnssec, dnssec_seed, sign_tlds = dnssec_spec_options(args.passes)
    model = ChurnModel(internet, rates, seed=args.churn_seed,
                       initial_dnssec=initial_dnssec,
                       dnssec_seed=dnssec_seed,
                       dnssec_sign_tlds=sign_tlds)

    def progress(epoch, snapshot):
        if not args.progress:
            return
        print(f"epoch {epoch}/{args.epochs}: {snapshot.events} events, "
              f"{snapshot.dirty_names}/{snapshot.total_names} re-surveyed "
              f"in {snapshot.delta_elapsed_s:.2f}s", file=sys.stderr)

    # SIGTERM/SIGINT ask the epoch loop to stop at the next epoch
    # boundary: the current epoch's store append and the timeline JSON
    # still commit, the timeline carries ``interrupted_at_epoch``, and
    # the exit code is 3 so wrappers can tell "stopped cleanly, resume
    # me" from success (0) and corruption (2).  A second signal aborts
    # hard the default way.
    stop_requested = {"flag": False}

    def _request_stop(signum, frame):
        if stop_requested["flag"]:
            signal_module.signal(signum, signal_module.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        stop_requested["flag"] = True
        print(f"{signal_module.Signals(signum).name} received: committing "
              f"the current epoch, then stopping (repeat to abort hard)",
              file=sys.stderr)

    previous_handlers = {}
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            previous_handlers[signum] = signal_module.signal(
                signum, _request_stop)
        except (ValueError, OSError):  # e.g. not on the main thread
            pass

    fleet = None
    try:
        # Inside the try: a rejected option must restore the handlers too.
        worker_addrs, fleet = _worker_fleet(args)
        socket_options = None
        if args.backend == "socket":
            socket_options = {"retries": args.retries,
                              "min_workers": args.min_workers,
                              "auth_token": _auth_token(args)}
        try:
            timeline = run_churn_timeline(
                internet, model, epochs=args.epochs, backend=args.backend,
                include_bottleneck=not args.no_bottleneck,
                passes=args.passes, max_names=args.max_names,
                cold_check=args.cold_check, store=args.store,
                keyframe_every=args.keyframe_every, worker_addrs=worker_addrs,
                socket_options=socket_options, progress=progress,
                resume=args.resume,
                should_stop=lambda: stop_requested["flag"])
        except ValueError as error:
            # Resume misuse (nothing to resume, mismatched run arguments,
            # bad --rates): one clear line, not a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
    finally:
        if fleet is not None:
            fleet.stop()
        for signum, handler in previous_handlers.items():
            signal_module.signal(signum, handler)
    timeline.config["generator"] = {
        "seed": args.seed, "sld_count": args.sld_count,
        "directory_names": args.directory_names,
        "universities": args.universities}

    print_timeline(timeline)
    if args.store:
        from repro.core.snapstore import EpochStore
        store = EpochStore(args.store)
        print(f"\nepoch store: {store.epochs} epochs, "
              f"{store.total_bytes()} bytes at {store.root}")
    if args.output:
        path = save_timeline(timeline, args.output)
        print(f"\ntimeline written to {path}")
    if timeline.interrupted_at is not None:
        if args.store:
            hint = (f"every committed epoch is durable — finish with: "
                    f"repro-dns churn --resume --store {args.store} "
                    f"(same remaining arguments)")
        else:
            hint = ("no --store was given, so a rerun must start from "
                    "epoch 0")
        print(f"\nstopped on request after epoch "
              f"{timeline.interrupted_at}/{args.epochs}; {hint}",
              file=sys.stderr)
        return 3
    if args.cold_check and not all(
            snapshot.cold_identical for snapshot in timeline.snapshots[1:]):
        print("\ncold audit FAILED: at least one incremental epoch diverged "
              "from its cold survey", file=sys.stderr)
        return 1
    return 0


def _command_timeline(args: argparse.Namespace) -> int:
    from repro.core.timeline import load_timeline, timeline_fingerprint

    timeline = load_timeline(args.timeline)
    if args.fingerprint:
        print(timeline_fingerprint(timeline))
        return 0
    print_timeline(timeline, movers=args.movers)
    return 0


def _command_fsck(args: argparse.Namespace) -> int:
    """Integrity-check a store or snapshot; exit 0/1/2, --salvage repairs.

    Exit codes: 0 clean (or salvaged), 1 salvageable but --salvage not
    given, 2 corrupt base / unrecognised / missing path.
    """
    import pathlib
    path = pathlib.Path(args.path)
    if path.is_dir():
        return _fsck_store(path, salvage=args.salvage)
    if path.is_file():
        return _fsck_snapshot(path, salvage=args.salvage)
    print(f"error: {path}: no such file or directory", file=sys.stderr)
    return 2


def _fsck_store(path, salvage: bool) -> int:
    from repro.core.snapstore import EpochStore

    store = EpochStore(path)
    report = store.verify()
    epochs = (f"epochs 0..{report.valid_epochs - 1}"
              if report.valid_epochs else "no epochs")
    print(f"{path}: {report.classification} — {report.valid_epochs} valid "
          f"({epochs}), {len(report.problems)} problem(s), "
          f"{len(report.debris)} uncommitted temp file(s)")
    for problem in report.problems:
        print(f"  problem: {problem}")
    for debris in report.debris:
        print(f"  debris: {debris.name} (interrupted commit, never "
              f"visible to readers)")
    if report.classification == "clean":
        return 0
    if report.classification == "corrupt-base":
        print(f"error: {path}: epoch 0 is missing or corrupt — nothing to "
              f"salvage; remove the store to start over", file=sys.stderr)
        return 2
    if not salvage:
        print(f"salvageable: rerun with --salvage to quarantine the bad "
              f"tail and keep epochs 0..{report.valid_epochs - 1}")
        return 1
    _, moved = store.salvage()
    for item in moved:
        action = "removed" if item.parent == store.root else "quarantined"
        print(f"  {action}: {item.name}")
    after = store.verify()
    print(f"{path}: salvaged — {after.valid_epochs} valid epoch(s) kept, "
          f"{len(moved)} file(s) moved or removed")
    return 0 if after.ok else 2


def _fsck_snapshot(path, salvage: bool) -> int:
    import zlib

    from repro.core.snapstore import verify_snapshot_file, sniff_kind

    if salvage:
        print("error: --salvage applies to epoch store directories; a "
              "single corrupt snapshot has no valid prefix to keep",
              file=sys.stderr)
        return 2
    try:
        if sniff_kind(path) is not None:
            verify_snapshot_file(path)
        else:
            load_results(path)  # JSON (possibly zlib): full parse
    except SnapshotFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, zlib.error, OSError) as error:
        print(f"error: {path}: corrupt snapshot: {error}", file=sys.stderr)
        return 2
    print(f"{path}: clean")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    from repro.core.delegation import DelegationGraphBuilder
    from repro.core.hijack import HijackAnalyzer
    from repro.vulns.database import default_database
    from repro.vulns.fingerprint import Fingerprinter

    internet = _generate_internet(args)
    resolver = internet.make_resolver()
    builder = DelegationGraphBuilder(resolver)
    graph = builder.build(args.name)
    if graph.tcb_size() == 0:
        print(f"{args.name}: could not walk any delegation chain "
              f"(name may not exist in this synthetic Internet)")
        return 1

    database = default_database()
    fingerprinter = Fingerprinter(internet.network, database)
    vulnerability_map = {}
    for hostname in graph.tcb():
        result = fingerprinter.fingerprint(hostname)
        vulnerability_map[hostname] = database.is_compromisable(result.banner)

    print(f"name: {graph.target}")
    print(f"TCB size: {graph.tcb_size()} nameservers "
          f"({len(graph.in_bailiwick_servers())} in bailiwick)")
    vulnerable = [host for host, flag in vulnerability_map.items() if flag]
    print(f"vulnerable servers in TCB: {len(vulnerable)}")
    analyzer = HijackAnalyzer(vulnerability_map)
    assessment = analyzer.assess(graph)
    print(f"classification: {assessment.classification}")
    print(f"bottleneck: {assessment.bottleneck.size} servers "
          f"({assessment.bottleneck.safe_in_cut} safe)")
    if assessment.attack_path:
        print("attack path:")
        for step in assessment.attack_path:
            print(f"  {step}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "survey": _command_survey,
        "report": _command_report,
        "diff": _command_diff,
        "resurvey": _command_resurvey,
        "churn": _command_churn,
        "timeline": _command_timeline,
        "fsck": _command_fsck,
        "worker": _command_worker,
        "merge": _command_merge,
        "inspect": _command_inspect,
    }
    # $REPRO_FAULT_PLAN arms *this* process too (io crash points in the
    # atomic-commit protocol, wire faults on the coordinator side) — the
    # crash-matrix tests kill a churn run mid-commit this way.  Spawned
    # local workers never inherit it (the fleet strips the variable), and
    # without the variable this is a no-op, so the fault machinery (and
    # the wire layer under it) is imported only when it is set.
    if os.environ.get("REPRO_FAULT_PLAN"):  # faults.ENV_FAULT_PLAN
        from repro.distrib.faults import activate_from_env
        activate_from_env()
    handler = handlers[args.command]
    try:
        return handler(args)
    except Exception as error:
        # Corrupt, truncated, or wrong-format input — or a distributed
        # survey failure (dead worker, corrupt frame, timeout): one clear
        # line on stderr instead of a traceback, never a hang or a
        # partial result.
        from repro.distrib.wire import DistribError
        if not isinstance(error, (SnapshotFormatError, DistribError)):
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation only
    sys.exit(main())
