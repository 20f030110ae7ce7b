"""Unit tests for run-log writing, reading, and schema validation."""

import json

import pytest

from repro.experiments.storage import TornWriteWarning
from repro.obs.runlog import (
    RUN_LOG_SCHEMA,
    RunLogWriter,
    read_run_log,
    validate_run_log,
)


def _manifest_kwargs(**over):
    base = dict(
        label="cell-1",
        config={"seed": 1},
        config_hash="abc123",
        repro_version="1.0.0",
        seed=1,
        engine="packet",
    )
    base.update(over)
    return base


def _write_minimal(path):
    with RunLogWriter(path, clock=lambda: 42.0) as w:
        w.manifest(**_manifest_kwargs())
        w.progress(sim_time_s=1.0, events=100, events_per_sec=50.0)
        w.metrics({"counters": {"x": 1}, "gauges": {}, "histograms": {}})
        w.summary(status="ok", wall_s=2.0, events=100, events_per_sec=50.0, peak_rss_kb=1000)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "run.jsonl"
    _write_minimal(path)
    records = read_run_log(path)
    assert [r["record"] for r in records] == ["manifest", "progress", "metrics", "summary"]
    assert records[0]["schema"] == RUN_LOG_SCHEMA
    assert all(r["t_wall"] == 42.0 for r in records)
    assert validate_run_log(records) == []


def test_writer_refuses_after_close(tmp_path):
    w = RunLogWriter(tmp_path / "run.jsonl")
    w.close()
    with pytest.raises(RuntimeError):
        w.write("progress", sim_time_s=0, events=0, events_per_sec=0)
    w.close()  # idempotent


def test_read_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "manifest"}\nnot json\n{"record": "summary"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: corrupt"):
        read_run_log(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="not an object"):
        read_run_log(path)


def test_read_skips_a_torn_last_line_with_a_warning(tmp_path):
    """A writer killed mid-append (or still appending) leaves a partial last
    line: the records before it are read, as the result store reads."""
    path = tmp_path / "run.jsonl"
    with RunLogWriter(path) as w:
        w.manifest(**_manifest_kwargs())
    whole = read_run_log(path)
    line = json.dumps({"record": "progress", "t_wall": 1.0, "sim_time_s": 1.0})
    with path.open("a") as fh:
        fh.write(line[: len(line) // 2])
    with pytest.warns(TornWriteWarning, match=r"run\.jsonl:2"):
        assert read_run_log(path) == whole


def test_validate_empty_and_missing_manifest():
    assert validate_run_log([]) == ["run log is empty"]
    errors = validate_run_log(
        [{"record": "summary", "t_wall": 1.0, "status": "ok", "wall_s": 1.0,
          "events": 1, "events_per_sec": 1.0, "peak_rss_kb": 1}]
    )
    assert any("first record must be the manifest" in e for e in errors)


def test_validate_flags_schema_and_fields(tmp_path):
    path = tmp_path / "run.jsonl"
    _write_minimal(path)
    records = read_run_log(path)
    records[0]["schema"] = "repro-runlog/999"
    errors = validate_run_log(records)
    assert any("schema" in e for e in errors)

    del records[0]["schema"]
    errors = validate_run_log(records)
    assert any("missing fields" in e for e in errors)


def test_validate_requires_summary_and_traceback(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLogWriter(path) as w:
        w.manifest(**_manifest_kwargs())
    errors = validate_run_log(read_run_log(path))
    assert any("no summary record" in e for e in errors)

    with RunLogWriter(path) as w:
        w.manifest(**_manifest_kwargs())
        w.summary(status="error", wall_s=1.0, events=0, events_per_sec=0.0, peak_rss_kb=0)
    errors = validate_run_log(read_run_log(path))
    assert any("traceback" in e for e in errors)


def test_validate_flags_malformed_metrics():
    records = [
        {"record": "manifest", "t_wall": 1.0, "schema": RUN_LOG_SCHEMA, "label": "x",
         "config": {}, "config_hash": "h", "repro_version": "1", "seed": 1, "engine": "packet"},
        {"record": "metrics", "t_wall": 1.0, "counters": {"x": "NaN-string"},
         "gauges": {}, "histograms": {"h": {"buckets": []}}},
        {"record": "summary", "t_wall": 1.0, "status": "ok", "wall_s": 1.0,
         "events": 1, "events_per_sec": 1.0, "peak_rss_kb": 1},
    ]
    errors = validate_run_log(records)
    assert any("counters must map names to numbers" in e for e in errors)
    assert any("histogram 'h' malformed" in e for e in errors)


def test_validate_flags_unknown_record_type():
    records = [{"record": "mystery", "t_wall": 1.0}]
    errors = validate_run_log(records)
    assert any("unknown record type" in e for e in errors)


def test_records_are_single_json_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    _write_minimal(path)
    for line in path.read_text().splitlines():
        json.loads(line)  # every line independently parseable


def _span_rec(span_id="a.1", **over):
    rec = {"record": "span", "t_wall": 1.0, "span_id": span_id,
           "parent_id": None, "name": "x", "cat": "phase",
           "t_start": 1.0, "dur_s": 0.5, "pid": 1, "labels": {}}
    rec.update(over)
    return rec


def test_validate_spans_flags_broken_trees():
    from repro.obs.runlog import validate_spans

    assert validate_spans([_span_rec()]) == []
    errors = validate_spans([_span_rec(), _span_rec()])
    assert any("duplicate span_id" in e for e in errors)
    errors = validate_spans([_span_rec(dur_s=-1.0)])
    assert any("non-negative" in e for e in errors)
    errors = validate_spans([_span_rec(span_id=None)])
    assert any("bad span_id" in e for e in errors)
    errors = validate_spans([_span_rec(parent_id="ghost.9")])
    assert any("does not resolve" in e for e in errors)
    errors = validate_spans([_span_rec(labels=["not", "a", "dict"])])
    assert any("labels must be an object" in e for e in errors)
    errors = validate_spans([_span_rec(t_start="noon")])
    assert any("t_start must be numeric" in e for e in errors)


def test_validate_run_log_checks_span_and_profile_records(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLogWriter(path) as w:
        w.manifest(**_manifest_kwargs())
        w.write("span", span_id="b.1", parent_id="missing.0", name="run",
                cat="run", t_start=1.0, dur_s=1.0, pid=2, labels={})
        w.write("profile", kinds={"link_tx": {"self_s": 0.1}},  # no 'events'
                loop_wall_s=0.2, events=10, stride=1)
        w.summary(status="ok", wall_s=1.0, events=10, events_per_sec=10.0,
                  peak_rss_kb=1)
    errors = validate_run_log(read_run_log(path))
    assert any("does not resolve" in e for e in errors)
    assert any("kind 'link_tx' malformed" in e for e in errors)


def test_validate_reports_bench_record_as_unknown_type(tmp_path):
    """The ``bench`` record type went with the harness that wrote it."""
    path = tmp_path / "bench.jsonl"
    with RunLogWriter(path) as w:
        w.manifest(**_manifest_kwargs())
        w.write("bench", name="single_flow_datapath", wall_s=1.5,
                events=1000, events_per_sec=666.7)
        w.summary(status="ok", wall_s=1.5, events=1000,
                  events_per_sec=666.7, peak_rss_kb=1)
    assert validate_run_log(read_run_log(path)) == [
        "record 2: unknown record type 'bench'"
    ]


def test_validate_campaign_log(tmp_path):
    from repro.obs.runlog import validate_campaign_log

    path = tmp_path / "campaign.jsonl"
    with RunLogWriter(path) as w:
        w.write("campaign_progress", finished=1, total=2, failed=0,
                retried=0, label="cell-1", eta_s=3.0, events_per_sec=10.0)
        w.write("campaign_retry", label="cell-2", attempt=1, delay_s=0.5,
                error="boom", kind="error")
        w.write("span", span_id="c.1", parent_id=None, name="campaign",
                cat="campaign", t_start=1.0, dur_s=2.0, pid=1, labels={})
    assert validate_campaign_log(read_run_log(path)) == []

    assert validate_campaign_log([]) == ["campaign log is empty"]
    errors = validate_campaign_log(
        [{"record": "summary", "t_wall": 1.0}]
    )
    assert any("does not belong in a campaign log" in e for e in errors)
    errors = validate_campaign_log(
        [{"record": "campaign_progress", "t_wall": 1.0, "finished": 1}]
    )
    assert any("missing fields" in e for e in errors)
