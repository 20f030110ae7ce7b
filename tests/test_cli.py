"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, parse_rate


def test_parse_rate():
    assert parse_rate("100M") == 100e6
    assert parse_rate("25G") == 25e9
    assert parse_rate("64k") == 64e3
    assert parse_rate("123456") == 123456.0
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_rate("fast")


def test_matrix_command(capsys):
    assert main(["matrix"]) == 0
    out = capsys.readouterr().out
    assert "810" in out
    assert "paper-fluid" in out


def test_run_command_fluid(capsys):
    rc = main([
        "run", "--cca1", "cubic", "--cca2", "cubic", "--aqm", "fifo",
        "--bw", "100M", "--duration", "5", "--engine", "fluid", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "jain index" in out
    assert "utilization" in out
    assert "engine      : fluid" in out


def test_run_command_packet(capsys):
    rc = main([
        "run", "--cca1", "reno", "--cca2", "cubic", "--aqm", "fifo",
        "--bw", "10M", "--duration", "4", "--mss", "1500", "--flows", "1",
    ])
    assert rc == 0
    assert "client1 (reno)" in capsys.readouterr().out


def test_run_with_telemetry_writes_valid_log(tmp_path, capsys):
    tel_dir = str(tmp_path / "telemetry")
    rc = main([
        "run", "--cca1", "cubic", "--cca2", "cubic", "--aqm", "fifo",
        "--bw", "10M", "--duration", "3", "--mss", "1500", "--flows", "1",
        "--telemetry", "--telemetry-dir", tel_dir, "--trace-dump",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run log     :" in out
    logs = list((tmp_path / "telemetry").glob("*.jsonl"))
    assert any(p.name.endswith(".trace.jsonl") for p in logs)
    assert main(["obs", "validate", tel_dir]) == 0
    capsys.readouterr()
    assert main(["obs", "summary", tel_dir]) == 0
    summary = capsys.readouterr().out
    assert "status      : ok" in summary
    assert "retransmits" in summary


def test_sweep_with_telemetry_writes_campaign_log(tmp_path, capsys):
    out_file = str(tmp_path / "results.jsonl")
    tel_dir = str(tmp_path / "telemetry")
    rc = main([
        "sweep", "--preset", "smoke", "--out", out_file, "--quiet",
        "--telemetry", "--telemetry-dir", tel_dir,
    ])
    assert rc == 0
    capsys.readouterr()
    assert main(["obs", "tail", tel_dir]) == 0
    assert "done" in capsys.readouterr().out
    assert main(["obs", "validate", tel_dir]) == 0


def test_sweep_and_report_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "results.jsonl")
    rc = main(["sweep", "--preset", "smoke", "--out", out_file, "--quiet"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", "--results", out_file, "--what", "table3"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Avg(phi)" in text
    rc = main(["report", "--results", out_file, "--what", "fig2"])
    assert rc == 0
    assert "bbrv1-vs-cubic" in capsys.readouterr().out


def test_report_missing_results(tmp_path, capsys):
    rc = main(["report", "--results", str(tmp_path / "none.jsonl")])
    assert rc == 1


def test_claims_report(tmp_path, capsys):
    out_file = str(tmp_path / "results.jsonl")
    main(["sweep", "--preset", "smoke", "--out", out_file, "--quiet"])
    capsys.readouterr()
    rc = main(["report", "--results", out_file, "--what", "claims"])
    text = capsys.readouterr().out
    assert rc in (0, 2)
    assert "passed" in text
    # The smoke preset is tiny: most claims should be skipped, none crash.
    assert "SKIP" in text


def test_export_command(tmp_path, capsys):
    out_file = str(tmp_path / "results.jsonl")
    main(["sweep", "--preset", "smoke", "--out", out_file, "--quiet"])
    capsys.readouterr()
    csv_file = str(tmp_path / "runs.csv")
    rc = main(["export", "--results", out_file, "--table", "runs", "--out", csv_file])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    header = open(csv_file).readline()
    assert "jain_index" in header


#: sha256 of ``repro export --table flows`` over the golden fixtures, as the
#: release that stored one record per flow wrote it (24 flows, 12 runs).
GOLDEN_FLOWS_CSV_SHA256 = "5222b95e03a85fe99600a8c157a9dc14e8d189970d4354955e0d38bc55049d80"


def test_export_flows_writes_the_same_csv_from_flow_columns(tmp_path, capsys):
    """The golden fixtures stored with flow columns export byte for byte
    the flows CSV the per-flow record layout exported."""
    import hashlib
    import json
    from pathlib import Path

    from repro.experiments.storage import ResultStore
    from repro.metrics.summary import FlowStats, FlowTable

    store = ResultStore(tmp_path / "golden.jsonl")
    for fixture in sorted((Path(__file__).parent / "fixtures" / "golden").glob("*.json")):
        row = json.loads(fixture.read_text(encoding="utf-8"))
        flows = FlowTable.from_records(FlowStats(**f) for f in row["flows"])
        store.append_dict({**row, "flows": flows.to_dict()})
    store.close()
    csv_file = tmp_path / "flows.csv"
    rc = main(["export", "--results", str(store.path), "--table", "flows", "--out", str(csv_file)])
    assert rc == 0 and "wrote 24 rows" in capsys.readouterr().out
    assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == GOLDEN_FLOWS_CSV_SHA256


def test_export_missing_results(tmp_path):
    rc = main(["export", "--results", str(tmp_path / "none.jsonl")])
    assert rc == 1


def test_export_figures_command(tmp_path, capsys):
    out_file = str(tmp_path / "results.jsonl")
    main(["sweep", "--preset", "smoke", "--out", out_file, "--quiet"])
    capsys.readouterr()
    rc = main(["export-figures", "--results", out_file, "--out-dir", str(tmp_path / "figs")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig2" in out
    assert (tmp_path / "figs" / "fig7.csv").exists()


def test_report_what_choices_are_the_figure_table(capsys):
    from repro.analysis.figures import FIGURES

    parser = build_parser()
    for what in ("table3", *FIGURES, "claims", "all"):
        assert parser.parse_args(["report", "--what", what]).what == what
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["report", "--what", "fig9"])
    assert exc.value.code == 2
    assert "(choose from 'table3', 'fig2', " in capsys.readouterr().err


def test_parser_rejects_unknown_choices():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--aqm", "wred"])
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--preset", "everything"])


def test_sweep_with_cache_warm_second_pass(tmp_path, capsys):
    """The cache: line is the CI smoke job's contract — a second sweep
    against the same cache (fresh store, so resume can't mask it) must
    report zero engine runs."""
    cache_dir = str(tmp_path / "cache")
    rc = main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "a.jsonl"),
               "--quiet", "--cache", cache_dir])
    assert rc == 0
    first = capsys.readouterr().out
    assert "cache: 0 hits, 2 engine runs, 2 entries" in first

    rc = main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "b.jsonl"),
               "--quiet", "--cache", cache_dir])
    assert rc == 0
    second = capsys.readouterr().out
    assert "cache: 2 hits, 0 engine runs, 2 entries" in second
    # The warm pass still produced a full result store.
    from repro.experiments.storage import ResultStore

    assert len(ResultStore(tmp_path / "b.jsonl").load()) == 2


def test_cache_stats_and_merge_commands(tmp_path, capsys):
    import json

    from repro.experiments.cache import ResultCache
    from repro.experiments.storage import ResultStore

    cache_dir = str(tmp_path / "cache")
    main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "a.jsonl"), "--quiet"])
    capsys.readouterr()
    with ResultCache(cache_dir, worker="w1") as cache:  # a shard left unmerged
        for result in ResultStore(tmp_path / "a.jsonl"):
            cache.put(result)

    assert main(["cache", "stats", cache_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 2
    assert stats["shards"] == 1

    assert main(["cache", "merge", cache_dir]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"entries": 2, "shards_folded": 1, "duplicates": 0, "stale": 0}

    assert main(["cache", "stats", cache_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["shards"] == 0 and stats["canonical_exists"] is True


@pytest.mark.parametrize("command", ["stats", "merge"])
def test_cache_commands_refuse_a_missing_root_and_create_nothing(tmp_path, capsys, command):
    typo = tmp_path / "cahce"
    assert main(["cache", command, str(typo)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(typo) in captured.err
    assert not typo.exists()


def test_reading_creates_no_directories(tmp_path, capsys):
    """Inspecting a cache holding another release's namespace, or reporting
    on a store under a missing directory, leaves the file tree as it was."""
    (tmp_path / "cache" / "repro-0.0.0" / "shards").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0
    assert main(["report", "--results", str(tmp_path / "missing" / "dir" / "r.jsonl")]) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_sweep_queue_mode(tmp_path, capsys):
    queue_dir = str(tmp_path / "queue")
    cache_dir = str(tmp_path / "cache")
    rc = main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "r.jsonl"),
               "--quiet", "--queue", queue_dir, "--cache", cache_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed 2 runs" in out
    assert "2/2 tasks done" in out
    from repro.experiments.queue import WorkQueue

    assert WorkQueue.open(queue_dir).drained
    # Rejoining the drained queue is a no-op sweep answered by the cache.
    rc = main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "r.jsonl"),
               "--quiet", "--queue", queue_dir, "--cache", cache_dir])
    assert rc == 0
    assert "completed 0 runs" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--telemetry"], ["--trace"], ["--profile"], ["--no-resume"]])
def test_sweep_queue_refuses_what_it_cannot_honour(tmp_path, capsys, flags):
    """One line, exit 2, and nothing run or created."""
    queue_dir = tmp_path / "queue"
    argv = ["sweep", "--preset", "smoke", "--out", str(tmp_path / "r.jsonl"), "--quiet",
            "--queue", str(queue_dir), "--telemetry-dir", str(tmp_path / "t")]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "--queue refuses" in captured.err
    assert not queue_dir.exists() and not (tmp_path / "t").exists()


def test_sweep_queue_honours_jobs_timeout_and_retries(tmp_path, capsys):
    queue_dir = str(tmp_path / "queue")
    rc = main(["sweep", "--preset", "smoke", "--out", str(tmp_path / "r.jsonl"), "--quiet",
               "--queue", queue_dir, "--jobs", "2", "--timeout", "0.001", "--retries", "1"])
    assert rc == 2
    assert "completed 0 runs, 2 FAILED, 2 retried" in capsys.readouterr().out
    failures = (tmp_path / "r.failures.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in failures] == ["timeout", "timeout"]


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
    (["sweep", "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
    (["sweep", "--queue", "q", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
    (["sweep", "--timeout", "0"], "argument --timeout: must be positive and finite, got 0"),
    (["sweep", "--timeout", "nan"], "argument --timeout: must be positive and finite, got nan"),
    (["sweep", "--timeout", "inf"], "argument --timeout: must be positive and finite, got inf"),
    (["sweep", "--retries", "-1"], "argument --retries: must be >= 0, got -1"),
    (["serve", "--cache", "c", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
])
def test_numeric_flags_are_argparse_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message) and "Traceback" not in err


def test_serve_help_lists_its_flags(capsys):
    """``repro serve`` is an ordinary subcommand of the one command tree."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--cache", "--port", "--jobs", "--telemetry-dir"):
        assert flag in out
    assert "fairness" in out


def test_serve_flags_parse_in_the_command_tree(tmp_path):
    args = build_parser().parse_args(["serve", "--cache", str(tmp_path), "--port", "0"])
    assert (args.cache, args.port, args.host, args.jobs) == (str(tmp_path), 0, "127.0.0.1", 1)
    assert args.telemetry_dir is None


@pytest.mark.parametrize("spelling", ["fluid-batched", "fluid_batched"])
def test_engine_flag_accepts_both_spellings(tmp_path, capsys, spelling):
    parser = build_parser()
    assert parser.parse_args(["run", "--engine", spelling]).engine == "fluid_batched"
    assert parser.parse_args(["sweep", "--engine", spelling]).engine == "fluid_batched"
    cell = _write_cell(tmp_path)
    assert main(["scenario", "show", cell, "--engine", spelling]) == 0
    assert "(engine=fluid_batched)" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["run"], ["sweep"], ["scenario", "show", "cell.json"]])
def test_unknown_engine_is_an_argparse_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--engine", "ns3"])
    assert exc.value.code == 2
    assert "ns3" in capsys.readouterr().err


def test_sweep_seeds_without_scenario_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "smoke", "--engine", "fluid", "--seeds", "7,8",
              "--limit", "1", "--out", str(tmp_path / "r.jsonl")])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


def test_bench_subcommand_is_gone(capsys):
    """The perf ledger (BENCHMARK.json) is the repo's one benchmark."""
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "serve" in out and "bench" not in out


# -- scenario IR surface (docs/SCENARIO.md) -----------------------------------------


def _write_cell(tmp_path, **overrides):
    """A small fluid-friendly scenario document on disk."""
    import json

    doc = {
        "topology": {"bottleneck_bw_bps": 20_000_000, "mss_bytes": 1500},
        "flows": [
            {"cca": "cubic", "node": 0, "count": 1},
            {"cca": "cubic", "node": 1, "count": 1},
        ],
        "duration_s": 5.0,
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_from_scenario_document(tmp_path, capsys):
    cell = _write_cell(tmp_path)
    rc = main(["run", "--scenario", cell, "--engine", "fluid"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine      : fluid" in out
    assert "cubic-vs-cubic_fifo_2bdp_20Mbps_seed3" in out


def test_run_flags_and_scenario_document_share_one_path(tmp_path, capsys):
    """Flags parse into the same IR, so both spellings produce the same
    config label (and thus the same cache key)."""
    cell = _write_cell(tmp_path)
    assert main(["run", "--scenario", cell, "--engine", "fluid"]) == 0
    from_doc = capsys.readouterr().out.splitlines()[0]
    assert main([
        "run", "--cca1", "cubic", "--cca2", "cubic", "--bw", "20M",
        "--mss", "1500", "--flows", "1", "--duration", "5", "--seed", "3",
        "--engine", "fluid",
    ]) == 0
    from_flags = capsys.readouterr().out.splitlines()[0]
    assert from_doc == from_flags


def test_run_rejects_bad_scenario_document(tmp_path, capsys):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"flows": [{"cca": "cubic", "node": 0}], "nonsense": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(path)])
    assert "unknown field" in str(exc.value)


def test_scenario_show_prints_canonical_form_and_cache_key(tmp_path, capsys):
    cell = _write_cell(tmp_path)
    rc = main(["scenario", "show", cell, "--engine", "fluid"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"version": 1' in out
    assert "cubic-vs-cubic_fifo_2bdp_20Mbps_seed3" in out
    import re

    key = re.search(r"cache key : ([0-9a-f]{64})", out)
    assert key, out
    # The printed key is the legacy cache's content address.
    from repro.experiments.cache import config_key, default_salt
    from repro.experiments.config import ExperimentConfig

    cfg = ExperimentConfig(
        cca_pair=("cubic", "cubic"), bottleneck_bw_bps=20_000_000, mss_bytes=1500,
        flows_per_node=1, duration_s=5.0, seed=3, engine="fluid",
    )
    assert key.group(1) == config_key(cfg, default_salt())


def test_scenario_show_refuses_non_finite_documents(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"topology": {"bottleneck_bw_bps": 1e999}, "duration_s": 1e999}')
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "show", str(path)])
    assert exc.value.code != 0
    assert "topology.bottleneck_bw_bps" in str(exc.value)
    out = capsys.readouterr().out
    assert "Infinity" not in out and "Infinity" not in str(exc.value)


def test_validate_command_fluid_pair(tmp_path, capsys):
    cell = _write_cell(tmp_path)
    rc = main(["validate", "--scenario", cell, "--engines", "fluid,fluid-batched"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK    fluid vs fluid_batched [exact]" in out
    assert "cross-engine agreement: clean" in out


def test_sweep_scenario_document_with_seeds(tmp_path, capsys):
    cell = _write_cell(tmp_path)
    out_path = tmp_path / "results.jsonl"
    rc = main([
        "sweep", "--scenario", cell, "--seeds", "1,2", "--engine", "fluid",
        "--out", str(out_path), "--quiet",
    ])
    assert rc == 0
    assert "completed 2 runs" in capsys.readouterr().out
    from repro.experiments.storage import ResultStore

    seeds = {r.config["seed"] for r in ResultStore(out_path).load()}
    assert seeds == {1, 2}
