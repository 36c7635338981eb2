"""Tests for the ``repro-dns`` command-line interface."""

import json
import signal

import pytest

from repro.cli import build_parser, main

#: Tiny generator arguments so each CLI invocation stays fast.
TINY = ["--sld-count", "40", "--directory-names", "60",
        "--universities", "10", "--seed", "11"]


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_survey_defaults():
    parser = build_parser()
    args = parser.parse_args(["survey"])
    assert args.command == "survey"
    assert args.seed == 20040722
    assert args.output is None


def test_survey_command_prints_headline_and_figures(capsys):
    exit_code = main(["survey", "--max-names", "30", *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "mean_tcb_size" in output
    assert "fraction_completely_hijackable" in output
    assert "Figure 3" in output
    # The ccTLD table (Figure 4) only appears when enough ccTLD names were
    # surveyed, which a tiny --max-names run cannot guarantee.


def test_survey_command_writes_snapshot(tmp_path, capsys):
    snapshot = tmp_path / "snapshot.json"
    exit_code = main(["survey", "--max-names", "25", "--output",
                      str(snapshot), *TINY])
    assert exit_code == 0
    assert snapshot.exists()
    payload = json.loads(snapshot.read_text())
    assert payload["records"]
    assert "snapshot written" in capsys.readouterr().out


def test_report_command_reads_snapshot(tmp_path, capsys):
    snapshot = tmp_path / "snapshot.json"
    main(["survey", "--max-names", "25", "--output", str(snapshot), *TINY])
    capsys.readouterr()
    exit_code = main(["report", str(snapshot)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "mean_tcb_size" in output


def test_survey_no_bottleneck_flag(capsys):
    exit_code = main(["survey", "--max-names", "15", "--no-bottleneck", *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "mean_mincut_size" in output


def test_inspect_known_anecdote(capsys):
    exit_code = main(["inspect", "www.fbi.gov", *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "TCB size" in output
    assert "classification" in output


def test_inspect_unknown_name(capsys):
    exit_code = main(["inspect", "www.does-not-exist.zz", *TINY])
    assert exit_code == 1
    assert "could not walk" in capsys.readouterr().out


def test_survey_rejects_deleted_backend(capsys):
    for deleted in ("thread", "process"):
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--backend", deleted, *TINY])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"argument --backend: invalid choice: '{deleted}'" in error
        assert "(choose from 'serial', 'socket')" in error


def test_survey_backends_agree_on_headline(capsys, worker_trio):
    outputs = {}
    for backend in ("serial", "socket"):
        addrs = ["--worker-addrs", ",".join(worker_trio)] \
            if backend == "socket" else []
        main(["survey", "--max-names", "30", "--backend", backend, *addrs,
              *TINY])
        outputs[backend] = capsys.readouterr().out
    assert outputs["serial"] == outputs["socket"]


def test_survey_progress_flag_prints_to_stderr(capsys):
    exit_code = main(["survey", "--max-names", "20", "--progress", *TINY])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "surveyed 20/20 names" in captured.err
    assert "surveyed 20/20 names" not in captured.out


def test_survey_passes_flag_prints_pass_summary(capsys):
    exit_code = main(["survey", "--max-names", "25", "--passes",
                      "availability,dnssec:fraction=0.5", *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Analysis passes" in output
    assert "availability" in output
    assert "dnssec_status=" in output


def test_diff_command_reports_churn(tmp_path, capsys):
    # Same world surveyed with and without the bottleneck analysis: names
    # align, min-cut sizes and classifications churn.
    base = tmp_path / "base.json"
    other = tmp_path / "other.json"
    main(["survey", "--max-names", "30", "--output", str(base), *TINY])
    main(["survey", "--max-names", "30", "--output", str(other),
          "--no-bottleneck", *TINY])
    capsys.readouterr()
    exit_code = main(["diff", str(base), str(other), "--top", "5"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "snapshot diff" in output
    assert "common" in output
    assert "tcb_size" in output
    assert "mincut_size" in output


def test_resurvey_command_round_trip(tmp_path, capsys):
    """Survey -> mutate -> resurvey: the incremental snapshot must equal a
    cold survey of the mutated world, and only touched names re-survey."""
    prev = tmp_path / "prev.json"
    nxt = tmp_path / "next.json"
    main(["survey", "--output", str(prev), *TINY])
    capsys.readouterr()

    # Pick the discovered server with the smallest TCB footprint so the
    # re-survey provably touches a minority of the directory.
    from repro.core.snapshot import load_results
    previous = load_results(prev)
    counts = {}
    for record in previous.resolved_records():
        for host in record.tcb_servers:
            counts[host] = counts.get(host, 0) + 1
    victim = min(sorted(counts), key=lambda host: counts[host])
    mutation = f"set-software:host={victim};software=BIND 8.2.2"
    exit_code = main(["resurvey", str(prev), "--mutate", mutation,
                      "--output", str(nxt), *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "mutated: software(" in output
    assert "re-surveyed" in output and "patched from" in output
    assert "snapshot written" in output

    # The mutation's footprint is a single university server: most of the
    # directory must have been patched, not re-surveyed.
    import re
    match = re.search(r"re-surveyed (\d+)/(\d+) names", output)
    dirty, total = int(match.group(1)), int(match.group(2))
    assert 0 < dirty < total / 2

    # And the snapshot equals a cold survey of the same mutated world.
    from repro.core.snapshot import diff_results
    from repro.core.engine import SurveyEngine
    from repro.topology.changes import apply_mutation_spec, ChangeJournal
    from repro.topology.generator import GeneratorConfig, InternetGenerator
    internet = InternetGenerator(GeneratorConfig(
        seed=11, sld_count=40, directory_name_count=60,
        university_count=10)).generate()
    apply_mutation_spec(ChangeJournal(internet), mutation)
    cold = SurveyEngine(internet).run()
    diff = diff_results(load_results(nxt), cold)
    assert diff.is_identical


def test_resurvey_chains_through_sidecar_journal(tmp_path, capsys):
    """resurvey of a resurvey-produced snapshot replays the earlier
    mutations from the sidecar journal, so the chained snapshot matches a
    cold survey of the *twice*-mutated world."""
    prev = tmp_path / "prev.json"
    mid = tmp_path / "mid.json"
    last = tmp_path / "last.json"
    main(["survey", "--output", str(prev), *TINY])
    capsys.readouterr()

    from repro.core.snapshot import diff_results, load_results
    host_a, host_b = sorted(load_results(prev).vulnerable_servers |
                            load_results(prev).compromisable_servers |
                            set(load_results(prev).fingerprints))[:2]
    first = f"set-software:host={host_a};software=BIND 8.2.2"
    second = f"set-software:host={host_b};software=BIND 9.2.3"

    main(["resurvey", str(prev), "--mutate", first, "--output", str(mid),
          *TINY])
    assert (tmp_path / "mid.json.journal").exists()
    capsys.readouterr()
    main(["resurvey", str(mid), "--mutate", second, "--output", str(last),
          *TINY])
    output = capsys.readouterr().out
    assert "replayed 1 prior mutation(s)" in output
    sidecar = json.loads((tmp_path / "last.json.journal").read_text())
    assert sidecar["specs"] == [first, second]
    # The v2 sidecar binds itself to the published snapshot by hash.
    import hashlib
    assert sidecar["snapshot_sha256"] == \
        hashlib.sha256(last.read_bytes()).hexdigest()

    # Cold survey of the twice-mutated world must match the chained result.
    from repro.core.engine import SurveyEngine
    from repro.topology.changes import ChangeJournal, apply_mutation_spec
    from repro.topology.generator import GeneratorConfig, InternetGenerator
    internet = InternetGenerator(GeneratorConfig(
        seed=11, sld_count=40, directory_name_count=60,
        university_count=10)).generate()
    journal = ChangeJournal(internet)
    apply_mutation_spec(journal, first)
    apply_mutation_spec(journal, second)
    cold = SurveyEngine(internet).run()
    diff = diff_results(load_results(last), cold)
    assert diff.is_identical
    assert load_results(last).vulnerable_servers == cold.vulnerable_servers


def test_survey_output_removes_stale_sidecar_journal(tmp_path, capsys):
    """Overwriting a snapshot with a fresh full survey must retire any
    mutation sidecar a previous resurvey left at that path."""
    snap = tmp_path / "snap.json"
    sidecar = tmp_path / "snap.json.journal"
    sidecar.write_text('["set-software:host=x.example.com"]')
    main(["survey", "--max-names", "15", "--output", str(snap), *TINY])
    output = capsys.readouterr().out
    assert not sidecar.exists()
    assert "stale mutation journal" in output


def test_resurvey_rejects_bad_mutation_spec(tmp_path, capsys):
    prev = tmp_path / "prev.json"
    main(["survey", "--output", str(prev), *TINY])
    capsys.readouterr()
    assert main(["resurvey", str(prev), "--mutate", "frobnicate:zone=com",
                 *TINY]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: bad mutation spec "
                            "'frobnicate:zone=com': unknown mutation kind")


@pytest.mark.parametrize("spec, cause", [
    ("dnssec:fraction=x", "could not convert string to float: 'x'"),
    ("add-server:host=..", "empty label"),
    ("frob:x=1", "unknown mutation kind 'frob'"),
])
@pytest.mark.parametrize("source", ["--mutate", "sidecar"])
def test_resurvey_reports_malformed_specs_without_a_traceback(
        tmp_path, capsys, spec, cause, source):
    """A spec that does not parse, from the command line or replayed from
    the previous snapshot's sidecar journal, is one error line and exit
    code 2."""
    prev = tmp_path / "prev.json"
    main(["survey", "--max-names", "15", "--output", str(prev), *TINY])
    capsys.readouterr()
    if source == "sidecar":
        (tmp_path / "prev.json.journal").write_text(json.dumps([spec]))
        argv = ["resurvey", str(prev), *TINY]
    else:
        argv = ["resurvey", str(prev), "--mutate", spec, *TINY]
    assert main(argv + ["--max-names", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad mutation spec {spec!r}: "
                                   f"{cause}")
    assert captured.err.count("\n") == 1
    assert "re-surveyed" not in captured.out


def test_diff_command_identical_snapshots(tmp_path, capsys):
    snapshot = tmp_path / "snap.json"
    main(["survey", "--max-names", "20", "--output", str(snapshot), *TINY])
    capsys.readouterr()
    exit_code = main(["diff", str(snapshot), str(snapshot)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "0 changed" in output


def test_churn_command_writes_validated_timeline(tmp_path, capsys):
    timeline_path = tmp_path / "timeline.json"
    exit_code = main(["churn", "--epochs", "3", "--churn-seed", "4",
                      "--rates", "transfer=1,death=0.5,upgrade=1,dnssec=0.2",
                      "--output", str(timeline_path), *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "churn timeline: 3 epochs" in output
    assert "hijackable" in output

    payload = json.loads(timeline_path.read_text())
    assert payload["format_version"] == 1
    assert [row["epoch"] for row in payload["snapshots"]] == [0, 1, 2, 3]
    fractions = [row["dnssec_fraction"] for row in payload["snapshots"]]
    assert fractions == sorted(fractions)
    assert sum(row["changed_names"] for row in payload["snapshots"]) > 0


def test_churn_command_cold_check_passes(capsys):
    exit_code = main(["churn", "--epochs", "2", "--churn-seed", "4",
                      "--rates", "transfer=1,upgrade=1", "--cold-check",
                      *TINY])
    assert exit_code == 0
    assert "cold audit: 2/2 epochs byte-identical" in capsys.readouterr().out


def test_churn_command_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(["churn", "--epochs", "2", "--churn-seed", "11",
              "--rates", "transfer=1,upgrade=2,region=1",
              "--output", str(path), *TINY])
        capsys.readouterr()
    payloads = [json.loads(path.read_text()) for path in paths]
    for payload in payloads:
        for row in payload["snapshots"]:
            row["delta_elapsed_s"] = 0
    assert payloads[0] == payloads[1]


def test_churn_command_rejects_bad_rates(capsys):
    with pytest.raises(ValueError, match="unknown churn class"):
        main(["churn", "--epochs", "1", "--rates", "meteor=1", *TINY])


def test_timeline_command_renders_drift(tmp_path, capsys):
    timeline_path = tmp_path / "timeline.json"
    main(["churn", "--epochs", "3", "--churn-seed", "4",
          "--rates", "transfer=1,upgrade=1,dnssec=0.2",
          "--passes", "dnssec:fraction=0.2",
          "--output", str(timeline_path), *TINY])
    capsys.readouterr()
    exit_code = main(["timeline", str(timeline_path)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "epoch" in output and "hijackable" in output
    assert "signed" in output
    # The dnssec pass contributes the secure-fraction drift column.
    assert "secure" in output


def test_timeline_command_rejects_corrupt_timeline(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "config": {},
                               "snapshots": []}))
    with pytest.raises(ValueError, match="no snapshots"):
        main(["timeline", str(bad)])


# -- snapshot formats ------------------------------------------------------------------

def test_survey_binary_output_round_trips(tmp_path, capsys):
    """--format binary writes a REPRO-SNAP file every reading subcommand
    accepts by sniffing magic bytes, never the file extension."""
    from repro.core.snapstore import MAGIC

    snap = tmp_path / "snapshot.json"  # deliberately misleading extension
    exit_code = main(["survey", "--max-names", "25", "--format", "binary",
                      "--output", str(snap), *TINY])
    assert exit_code == 0
    assert snap.read_bytes().startswith(MAGIC)
    capsys.readouterr()
    assert main(["report", str(snap)]) == 0
    assert "mean_tcb_size" in capsys.readouterr().out
    assert main(["diff", str(snap), str(snap)]) == 0
    assert "0 changed" in capsys.readouterr().out


def test_survey_compressed_output_round_trips(tmp_path, capsys):
    """--compress emits zlib the loader sniffs transparently; the binary
    and compressed-JSON codecs describe byte-identical results."""
    plain = tmp_path / "plain.json"
    packed = tmp_path / "packed.json"
    binary = tmp_path / "binary.rsnap"
    main(["survey", "--max-names", "25", "--output", str(plain), *TINY])
    main(["survey", "--max-names", "25", "--output", str(packed),
          "--compress", *TINY])
    main(["survey", "--max-names", "25", "--output", str(binary),
          "--format", "binary", *TINY])
    assert packed.stat().st_size < plain.stat().st_size
    capsys.readouterr()
    assert main(["diff", str(packed), str(binary)]) == 0
    assert "0 changed" in capsys.readouterr().out


def test_survey_rejects_compressed_binary(tmp_path, capsys):
    exit_code = main(["survey", "--max-names", "15", "--format", "binary",
                      "--compress", "--output", str(tmp_path / "s.rsnap"),
                      *TINY])
    assert exit_code == 2
    assert "error:" in capsys.readouterr().err


def test_report_rejects_corrupt_snapshot(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("this is not a snapshot of anything")
    exit_code = main(["report", str(junk)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not a recognised snapshot" in err


def test_report_rejects_truncated_binary(tmp_path, capsys):
    snap = tmp_path / "snap.rsnap"
    main(["survey", "--max-names", "15", "--format", "binary",
          "--output", str(snap), *TINY])
    snap.write_bytes(snap.read_bytes()[:40])
    capsys.readouterr()
    exit_code = main(["report", str(snap)])
    assert exit_code == 2
    assert "error:" in capsys.readouterr().err


def test_resurvey_accepts_binary_previous(tmp_path, capsys):
    """The incremental path works straight off an mmap'd binary previous
    and can emit a binary successor."""
    prev = tmp_path / "prev.rsnap"
    nxt = tmp_path / "next.rsnap"
    main(["survey", "--output", str(prev), "--format", "binary", *TINY])
    capsys.readouterr()

    from repro.core.snapshot import load_results
    previous = load_results(prev)
    victim = sorted(previous.fingerprints)[0]
    mutation = f"set-software:host={victim};software=BIND 8.2.2"
    exit_code = main(["resurvey", str(prev), "--mutate", mutation,
                      "--output", str(nxt), "--format", "binary", *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "re-surveyed" in output and "patched from" in output
    restored = load_results(nxt)
    assert restored.metadata == load_results(prev).metadata


def test_churn_store_flag_archives_epochs(tmp_path, capsys):
    from repro.core.snapstore import EpochStore

    store_dir = tmp_path / "epochs"
    exit_code = main(["churn", "--epochs", "2", "--churn-seed", "4",
                      "--rates", "transfer=1,upgrade=1",
                      "--store", str(store_dir), *TINY])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "epoch store:" in output
    store = EpochStore(store_dir)
    assert store.epochs == 3
    assert store.total_bytes() < 2 * store.epoch_path(0).stat().st_size
    assert len(store.load_epoch(2).records) > 0

# -- the distributed survey surface -------------------------------------------------------


def test_parser_worker_and_merge_defaults():
    parser = build_parser()
    worker_args = parser.parse_args(["worker"])
    assert worker_args.command == "worker"
    assert worker_args.listen == "127.0.0.1:0"
    merge_args = parser.parse_args(["merge", "a.rsnap", "b.rsnap",
                                    "--output", "out.rsnap"])
    assert merge_args.shards == ["a.rsnap", "b.rsnap"]
    with pytest.raises(SystemExit):  # --output is required
        parser.parse_args(["merge", "a.rsnap"])


def test_parser_shard_spec():
    parser = build_parser()
    args = parser.parse_args(["survey", "--shard", "2/5"])
    assert args.shard == (2, 5)
    for bad in ("5/5", "-1/3", "1of3", "2/"):
        with pytest.raises(SystemExit):
            parser.parse_args(["survey", "--shard", bad])


def test_survey_shard_requires_output(capsys):
    exit_code = main(["survey", "--shard", "0/2", *TINY])
    assert exit_code == 2
    assert "requires --output" in capsys.readouterr().err


def test_worker_addrs_rejected_off_socket_backend(capsys):
    exit_code = main(["survey", "--worker-addrs", "127.0.0.1:9999",
                      "--max-names", "5", *TINY])
    assert exit_code == 2
    assert "only applies to --backend socket" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["survey", "resurvey", "churn"])
def test_workers_rejected_off_socket_backend(command, tmp_path, capsys):
    """``--workers`` sizes a spawned socket fleet and nothing else; the
    rejection leaves churn's signal handlers as it found them."""
    args = [command, "--workers", "2", "--max-names", "5", *TINY]
    if command == "resurvey":
        previous = tmp_path / "previous.json"
        assert main(["survey", "--max-names", "5", "--output",
                     str(previous), *TINY]) == 0
        args.insert(1, str(previous))
    elif command == "churn":
        args += ["--epochs", "1"]
    capsys.readouterr()
    handler = signal.getsignal(signal.SIGINT)
    assert main(args) == 2
    assert capsys.readouterr().err == \
        "error: --workers only applies to --backend socket\n"
    assert signal.getsignal(signal.SIGINT) is handler


def test_survey_socket_backend_spawns_local_fleet(tmp_path, capsys):
    """``--backend socket`` without addresses spawns ``--workers`` local
    worker processes and the result matches a serial run of the world."""
    serial_path = tmp_path / "serial.json"
    socket_path = tmp_path / "socket.json"
    main(["survey", "--max-names", "30", "--output", str(serial_path),
          *TINY])
    exit_code = main(["survey", "--max-names", "30", "--backend", "socket",
                      "--workers", "2", "--output", str(socket_path),
                      *TINY])
    assert exit_code == 0
    capsys.readouterr()
    assert main(["diff", str(serial_path), str(socket_path)]) == 0
    assert " 0 changed" in capsys.readouterr().out


def test_churn_keyframe_every_flag(tmp_path, capsys):
    from repro.core.snapstore import (EpochStore, KIND_DELTA, KIND_RESULTS,
                                      sniff_kind)

    store_dir = tmp_path / "epochs"
    exit_code = main(["churn", "--epochs", "4", "--churn-seed", "4",
                      "--rates", "transfer=1,upgrade=1",
                      "--store", str(store_dir), "--keyframe-every", "2",
                      *TINY])
    assert exit_code == 0
    assert "epoch store:" in capsys.readouterr().out
    store = EpochStore(store_dir)
    assert store.epochs == 5
    kinds = [sniff_kind(store.epoch_path(epoch)) for epoch in range(5)]
    assert kinds == [KIND_RESULTS, KIND_DELTA, KIND_RESULTS, KIND_DELTA,
                     KIND_RESULTS]
    assert len(store.load_epoch(4).records) > 0


def test_report_prints_the_same_for_binary_and_json_twin(tmp_path, capsys):
    """``report`` reads a binary snapshot off its columns and a JSON one
    off hydrated records; both print byte for byte the same tables."""
    from repro.core.snapshot import load_results, save_results

    binary = tmp_path / "snap.rsnap"
    twin = tmp_path / "snap.json.z"
    assert main(["survey", "--max-names", "40", "--format", "binary",
                 "--passes", "availability,value", "--output", str(binary),
                 *TINY]) == 0
    save_results(load_results(binary), twin, compress=True)
    capsys.readouterr()
    assert main(["report", str(binary)]) == 0
    from_binary = capsys.readouterr().out
    assert main(["report", str(twin)]) == 0
    assert capsys.readouterr().out == from_binary
    assert "Nameserver value ranking" in from_binary
    assert "availability" in from_binary


# -- import policy ---------------------------------------------------------------------

#: Modules ``report`` never needs: the engine, the graph builder, the
#: resolver and server stack, the socket coordinator and the generator.
REPORT_NEVER_IMPORTS = ("repro.core.engine", "repro.core.delegation",
                        "repro.dns.resolver", "repro.dns.server",
                        "repro.distrib.coordinator")

PACKAGES = ("repro", "repro.core", "repro.dns", "repro.vulns",
            "repro.topology", "repro.netsim", "repro.distrib")


def test_report_imports_only_what_it_runs(tmp_path):
    """``python -m repro.cli report`` on a binary snapshot loads none of
    the survey machinery (read from ``-X importtime``, which lists every
    module the process imported)."""
    import os
    import pathlib
    import subprocess
    import sys

    snap = tmp_path / "snap.rsnap"
    assert main(["survey", "--max-names", "15", "--format", "binary",
                 "--output", str(snap), *TINY]) == 0
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "report",
         str(snap)], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert "mean_tcb_size" in child.stdout
    imported = {line.rsplit("|", 1)[1].strip()
                for line in child.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "repro.core.snapstore" in imported
    assert not imported & set(REPORT_NEVER_IMPORTS)
    assert not {name for name in imported
                if name.startswith("repro.topology.")}


@pytest.mark.parametrize("package", PACKAGES)
def test_package_reexports_resolve_on_first_access(package):
    import importlib

    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
