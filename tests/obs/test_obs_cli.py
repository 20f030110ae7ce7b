"""Unit tests for the `repro obs` subcommand tree."""

import pytest

from repro.cli import main
from repro.obs.cli import render_campaign_tail, render_summary
from repro.obs.runlog import RUN_LOG_SCHEMA


def _records():
    return [
        {"record": "manifest", "t_wall": 1.0, "schema": RUN_LOG_SCHEMA,
         "label": "cell-1", "config": {}, "config_hash": "abc", "repro_version": "1.0.0",
         "seed": 1, "engine": "packet"},
        {"record": "metrics", "t_wall": 2.0,
         "counters": {"sim_events_processed_total": 1234,
                      'queue_dropped_enqueue_total{queue="bottleneck"}': 7,
                      "tcp_retransmits_total": 3},
         "gauges": {}, "histograms": {"tcp_cwnd_segments":
                                      {"buckets": [1.0], "counts": [2, 0], "sum": 4.0, "count": 2}}},
        {"record": "summary", "t_wall": 3.0, "status": "ok", "wall_s": 2.0,
         "events": 1234, "events_per_sec": 617.0, "peak_rss_kb": 100,
         "jain_index": 0.99, "link_utilization": 0.95,
         "total_retransmits": 3, "bottleneck_drops": 7},
    ]


def test_render_summary_headline():
    text = render_summary(_records())
    assert "cell-1" in text
    assert "status      : ok" in text
    assert "J=0.9900" in text
    assert "drops (enqueue)" in text
    assert "retransmits" in text
    assert "1.2k" in text  # events formatted
    assert "tcp_cwnd_segments" in text


def test_render_summary_error_run():
    records = _records()
    records[-1].update(status="error", error="RuntimeError('x')",
                       trace_dump="t.trace.jsonl", trace_events_dumped=5)
    text = render_summary(records)
    assert "error       : RuntimeError('x')" in text
    assert "t.trace.jsonl" in text


def test_render_campaign_tail():
    records = [
        {"record": "campaign_progress", "t_wall": 1.0, "finished": i, "total": 4,
         "failed": 1 if i > 2 else 0, "label": f"cell-{i}", "eta_s": 10.0 - i,
         "events_per_sec": 100.0}
        for i in range(1, 4)
    ]
    text = render_campaign_tail(records)
    assert "3/4 done" in text
    assert "1 FAILED" in text
    assert "cell-3" in text
    assert render_campaign_tail([]) == "no campaign progress records"


def test_obs_validate_cli_roundtrip(tmp_path, capsys):
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "cell.jsonl"
    with RunLogWriter(log) as w:
        w.manifest(label="cell", config={}, config_hash="h",
                   repro_version="1", seed=1, engine="packet")
        w.metrics({"counters": {}, "gauges": {}, "histograms": {}})
        w.summary(status="ok", wall_s=1.0, events=10, events_per_sec=10.0, peak_rss_kb=5)
    assert main(["obs", "validate", str(log)]) == 0
    capsys.readouterr()
    assert main(["obs", "summary", str(tmp_path)]) == 0
    assert "cell" in capsys.readouterr().out
    assert main(["obs", "prom", str(log)]) == 0


def test_obs_validate_flags_bad_log(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"record": "summary", "t_wall": 1.0}\n')
    assert main(["obs", "validate", str(bad)]) == 1
    assert "manifest" in capsys.readouterr().err


def test_obs_prom_writes_file(tmp_path, capsys):
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "cell.jsonl"
    with RunLogWriter(log) as w:
        w.manifest(label="cell", config={}, config_hash="h",
                   repro_version="1", seed=1, engine="packet")
        w.metrics({"counters": {"x_total": 5}, "gauges": {}, "histograms": {}})
        w.summary(status="ok", wall_s=1.0, events=10, events_per_sec=10.0, peak_rss_kb=5)
    out = tmp_path / "metrics.prom"
    assert main(["obs", "prom", str(log), "--out", str(out)]) == 0
    assert "repro_x_total 5" in out.read_text()
    # A directory resolves to its newest run log.
    capsys.readouterr()
    assert main(["obs", "prom", str(tmp_path)]) == 0
    assert "repro_x_total 5" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
@pytest.mark.parametrize(
    "subcommand", ["summary", "validate", "prom", "tail", "trace", "profile"]
)
def test_obs_commands_report_unreadable_logs_in_one_line(tmp_path, capsys, subcommand, damage):
    """A missing file or a corrupt middle line is `<path>: <error>` on
    stderr and exit 1 on every subcommand, never a traceback."""
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "cell.jsonl"
    if damage == "corrupt":
        with RunLogWriter(log) as w:
            w.manifest(label="cell", config={}, config_hash="h",
                       repro_version="1", seed=1, engine="packet")
            w.metrics({"counters": {}, "gauges": {}, "histograms": {}})
            w.summary(status="ok", wall_s=1.0, events=10, events_per_sec=10.0, peak_rss_kb=5)
        lines = log.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        log.write_text("\n".join(lines) + "\n")
    assert main(["obs", subcommand, str(log)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{log}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert ("No such file" in err) if damage == "missing" else ("cell.jsonl:2" in err)


def test_obs_summary_reads_a_log_whose_last_line_is_cut(tmp_path, capsys):
    """A writer killed mid-append leaves a partial last line: the summary
    is rendered from the records before it, with one warning."""
    from repro.experiments.storage import TornWriteWarning
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "cell.jsonl"
    with RunLogWriter(log) as w:
        w.manifest(label="cell", config={}, config_hash="h",
                   repro_version="1", seed=1, engine="packet")
        w.summary(status="ok", wall_s=1.0, events=10, events_per_sec=10.0, peak_rss_kb=5)
        w.metrics({"counters": {}, "gauges": {}, "histograms": {}})
    text = log.read_text()
    log.write_text(text[: len(text) - 20])
    with pytest.warns(TornWriteWarning, match=r"cell\.jsonl:3"):
        assert main(["obs", "summary", str(log)]) == 0
    out = capsys.readouterr().out
    assert "cell" in out and "ok" in out


def test_obs_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["obs", "summary", str(empty)]) == 1


# -- trace / profile / diff / tail --follow ---------------------------------------


def _write_traced_log(path, label="cell", seed=1, base=100.0):
    from repro.obs.runlog import RunLogWriter

    with RunLogWriter(path) as w:
        w.manifest(label=label, config={}, config_hash="h",
                   repro_version="1", seed=seed, engine="packet")
        w.write("span", span_id=f"{label}.2", parent_id=f"{label}.1",
                name="transfer", cat="phase", t_start=base + 0.5,
                dur_s=1.0, pid=9, labels={})
        w.write("span", span_id=f"{label}.1", parent_id=None, name="run",
                cat="run", t_start=base, dur_s=2.0, pid=9,
                labels={"seed": seed})
        w.write("profile", kinds={"link_tx": {"self_s": 0.4, "events": 10},
                                  "ack_process": {"self_s": 0.5, "events": 5}},
                loop_wall_s=1.0, events=15, stride=1)
        w.summary(status="ok", wall_s=2.0, events=15, events_per_sec=7.5,
                  peak_rss_kb=1)


def test_obs_trace_exports_perfetto_json(tmp_path, capsys):
    import json

    from repro.obs.chrome_trace import validate_chrome_trace

    _write_traced_log(tmp_path / "cell.jsonl")
    assert main(["obs", "trace", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "trace.json" in out and "ui.perfetto.dev" in out
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["spans"] == 2
    # Explicit output path.
    target = tmp_path / "custom.json"
    assert main(["obs", "trace", str(tmp_path / "cell.jsonl"),
                 "--out", str(target)]) == 0
    assert target.exists()


def test_obs_trace_warns_on_spanless_log(tmp_path, capsys):
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "plain.jsonl"
    with RunLogWriter(log) as w:
        w.manifest(label="plain", config={}, config_hash="h",
                   repro_version="1", seed=1, engine="packet")
        w.summary(status="ok", wall_s=1.0, events=1, events_per_sec=1.0,
                  peak_rss_kb=1)
    assert main(["obs", "trace", str(log)]) == 0
    assert "no span records" in capsys.readouterr().err


def test_obs_profile_table_and_missing_records(tmp_path, capsys):
    _write_traced_log(tmp_path / "cell.jsonl")
    assert main(["obs", "profile", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "link_tx" in out and "ack_process" in out
    assert main(["obs", "profile", str(tmp_path), "--top", "1"]) == 0
    top1 = capsys.readouterr().out
    assert "ack_process" in top1 and "link_tx" not in top1

    empty = tmp_path / "noprofile"
    empty.mkdir()
    from repro.obs.runlog import RunLogWriter

    with RunLogWriter(empty / "x.jsonl") as w:
        w.manifest(label="x", config={}, config_hash="h",
                   repro_version="1", seed=1, engine="packet")
        w.summary(status="ok", wall_s=1.0, events=1, events_per_sec=1.0,
                  peak_rss_kb=1)
    assert main(["obs", "profile", str(empty)]) == 1
    assert "no profile records" in capsys.readouterr().err


def test_obs_diff_renders_phase_and_kind_tables(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    _write_traced_log(a / "cell.jsonl", base=100.0)
    _write_traced_log(b / "cell.jsonl", base=200.0)
    assert main(["obs", "diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "transfer" in out and "run" in out
    assert "link_tx" in out


def test_obs_tail_follow_renders_and_exits(tmp_path, capsys):
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "campaign.jsonl"
    with RunLogWriter(log) as w:
        w.write("campaign_progress", finished=2, total=4, failed=0,
                retried=0, label="cell-2", eta_s=5.0, events_per_sec=10.0)
    # One render then exit: the file is static, so a second update never
    # fires (renders happen only when the fingerprint changes).
    assert main(["obs", "tail", str(tmp_path), "--follow",
                 "--interval", "0.05", "--max-updates", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/4 done" in out


def test_obs_validate_covers_campaign_log(tmp_path, capsys):
    from repro.obs.runlog import RunLogWriter

    log = tmp_path / "campaign.jsonl"
    with RunLogWriter(log) as w:
        w.write("campaign_progress", finished=1, total=1, failed=0,
                retried=0, label="cell-1", eta_s=0.0, events_per_sec=1.0)
        w.write("span", span_id="c.1", parent_id="ghost.7", name="campaign",
                cat="campaign", t_start=1.0, dur_s=1.0, pid=1, labels={})
    # The dangling parent_id must fail validation (span-tree integrity).
    assert main(["obs", "validate", str(log)]) == 1
    assert "does not resolve" in capsys.readouterr().err
