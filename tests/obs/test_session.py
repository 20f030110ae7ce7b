"""Integration tests: telemetry sessions around real experiment runs."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, run_packet_experiment
from repro.obs.runlog import read_run_log, validate_run_log
from repro.obs.session import TelemetryOptions, TelemetrySession
from repro.units import mbps


def _cfg(**over):
    base = dict(
        cca_pair=("cubic", "cubic"),
        bottleneck_bw_bps=mbps(10),
        duration_s=3.0,
        mss_bytes=1500,
        flows_per_node=1,
        seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_session_none_when_options_none():
    assert TelemetrySession.start(_cfg(), None) is None


def test_packet_run_writes_valid_log(tmp_path):
    cfg = _cfg()
    opts = TelemetryOptions(dir=str(tmp_path), trace_dump=True)
    result = run_packet_experiment(cfg, opts)

    log = tmp_path / f"{cfg.label()}.jsonl"
    records = read_run_log(log)
    assert validate_run_log(records) == []
    kinds = [r["record"] for r in records]
    assert kinds[0] == "manifest"
    assert "progress" in kinds  # 3 s simulated at a 1 s cadence
    assert kinds[-1] == "summary"

    manifest = records[0]
    assert manifest["label"] == cfg.label()
    assert manifest["config"] == cfg.to_dict()
    summary = records[-1]
    assert summary["status"] == "ok"
    assert summary["events"] > 0
    assert summary["jain_index"] == pytest.approx(result.jain_index)

    obs = result.extra["obs"]
    assert obs["run_log"] == str(log)
    assert obs["events_per_sec"] > 0
    assert (tmp_path / f"{cfg.label()}.trace.jsonl").exists()


def test_metrics_snapshot_matches_datapath_counters(tmp_path):
    cfg = _cfg(seed=6)
    result = run_packet_experiment(cfg, TelemetryOptions(dir=str(tmp_path)))
    records = read_run_log(tmp_path / f"{cfg.label()}.jsonl")
    metrics = [r for r in records if r["record"] == "metrics"][-1]
    counters = metrics["counters"]
    segs = sum(f.segments_sent for f in result.flows)
    assert counters["tcp_segments_sent_total"] == segs
    assert counters["tcp_retransmits_total"] == result.total_retransmits
    assert (
        counters['queue_dropped_enqueue_total{queue="bottleneck"}']
        + counters['queue_dropped_dequeue_total{queue="bottleneck"}']
        == result.bottleneck_drops
    )
    # The cwnd sampler ran (default 0.1 s cadence over 3 s).
    assert metrics["histograms"]["tcp_cwnd_segments"]["count"] > 0


def test_telemetry_does_not_perturb_outcomes(tmp_path):
    cfg = _cfg(seed=7, aqm="fq_codel", buffer_bdp=0.5)
    plain = run_packet_experiment(cfg)
    observed = run_packet_experiment(cfg, TelemetryOptions(dir=str(tmp_path)))
    assert [f.__dict__ for f in plain.flows] == [f.__dict__ for f in observed.flows]
    assert plain.jain_index == observed.jain_index
    assert plain.bottleneck_drops == observed.bottleneck_drops
    assert plain.total_retransmits == observed.total_retransmits


def _single_flow():
    """One CUBIC flow over the 20 Mbps dumbbell, built but not started."""
    from repro.cca.registry import make_cca
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell

    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(20), buffer_bdp=2.0, mss_bytes=1500, seed=1)
    )
    conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500, flow_id=1)
    return db, conn


def _transfer(db, conn):
    from repro.units import seconds

    conn.start()
    db.network.run(seconds(0.625))
    return db.sim.events_processed, conn.receiver.bytes_received


def test_disabled_telemetry_is_free_on_the_datapath():
    """Wiring *disabled* telemetry in schedules no event and moves no byte:
    a disabled registry, NULL-tracer phase spans with no profiler, and a
    fairness probe with no cadence all end where the bare datapath ends."""
    from repro.obs.fairness import instrument_packet_fairness
    from repro.obs.instrument import instrument_experiment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import CAT_RUN, NULL_SPAN_TRACER

    bare = _transfer(*_single_flow())
    assert bare[0] > 1000 and bare[1] > 0

    db, conn = _single_flow()
    instrument_experiment(MetricsRegistry(enabled=False), db, [conn.sender], cwnd_interval_ns=None)
    assert _transfer(db, conn) == bare

    # The way the experiment runner wraps a run when tracing is off.
    spans = NULL_SPAN_TRACER
    run_span = spans.start("run", CAT_RUN, labels={})
    with spans.span("setup"):
        db, conn = _single_flow()
    assert db.sim.profiler is None  # the plain (unprofiled) loop must run
    with spans.span("transfer"):
        outcome = _transfer(db, conn)
    run_span.close()
    assert outcome == bare

    db, conn = _single_flow()
    sampler = instrument_packet_fairness(
        db.sim,
        db.bottleneck_qdisc,
        db.config.scaled_bottleneck_bps,
        [(1, 0, lambda: conn.receiver.bytes_received)],
        None,
    )
    assert sampler is None  # a disabled probe must not touch the event loop
    assert _transfer(db, conn) == bare


def test_config_hash_is_the_parent_commits_scheme(tmp_path):
    """12 hex of sha-256 over sorted-key JSON; literals computed before
    ``config_hash`` moved here from the deleted bench harness."""
    from repro.obs.session import config_hash

    cfg = {"seed": 1, "cca_pair": ("bbrv1", "cubic"), "bottleneck_bw_bps": 1e9}
    assert config_hash(cfg) == "8e5995519de8"
    assert config_hash(dict(reversed(list(cfg.items())))) == "8e5995519de8"
    assert config_hash({**cfg, "seed": 2}) != "8e5995519de8"

    session = TelemetrySession.start(_cfg(), TelemetryOptions(dir=str(tmp_path)))
    session.record_failure(RuntimeError("stop"))
    manifest = read_run_log(session.run_log_path)[0]
    assert manifest["config_hash"] == "f153a41f58bf"


def test_fluid_run_writes_manifest_and_summary(tmp_path):
    cfg = _cfg(engine="fluid", duration_s=5.0)
    run_experiment(cfg, TelemetryOptions(dir=str(tmp_path)))
    records = read_run_log(tmp_path / f"{cfg.label()}.jsonl")
    assert validate_run_log(records) == []
    assert records[0]["engine"] == "fluid"


def test_failure_writes_error_summary_and_trace_dump(tmp_path):
    cfg = _cfg()
    session = TelemetrySession.start(cfg, TelemetryOptions(dir=str(tmp_path)))
    session.recorder.record("queue_drop", 10, point="tail", flow=1, seq=2)
    try:
        raise RuntimeError("boom")
    except RuntimeError as exc:
        session.record_failure(exc)
    records = read_run_log(session.run_log_path)
    assert validate_run_log(records) == []
    summary = records[-1]
    assert summary["status"] == "error"
    assert "boom" in summary["error"]
    assert "RuntimeError" in summary["traceback"]
    assert summary["trace_events_dumped"] == 1
    assert session.trace_path.exists()


def test_options_roundtrip_picklable():
    import pickle

    opts = TelemetryOptions(dir="t", trace_capacity=16, trace_dump=True, sample_interval_s=None)
    assert TelemetryOptions.from_dict(opts.to_dict()) == opts
    assert pickle.loads(pickle.dumps(opts)) == opts
