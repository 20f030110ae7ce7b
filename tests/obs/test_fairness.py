"""Unit + integration tests for the fairness observatory probe.

Covers the pure-Python :class:`FairnessProbe` math, the run-log /
registry / Chrome-trace integration, and the end-to-end contract on the
packet and fluid engines: sampling is opt-in and never perturbs
outcomes.  (Bit-identity of the series between the two fluid engines
lives in ``tests/fluid/test_batched_vs_scalar.py``.)
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_packet_experiment
from repro.obs.chrome_trace import build_chrome_trace, validate_chrome_trace
from repro.obs.fairness import (
    FairnessProbe,
    fairness_records,
    fairness_summary,
    fluid_sample_stride,
    instrument_packet_fairness,
    register_fairness_gauges,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import read_run_log, validate_run_log
from repro.obs.session import TelemetryOptions
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


# --- probe math ----------------------------------------------------------------


def test_probe_series_math():
    probe = FairnessProbe(capacity_bps=100.0, node_of=[0, 0, 1], interval_s=1.0)
    # Node 0 carries flows of 30+30, node 1 one flow of 40.
    probe.sample(1.0, [30.0, 30.0, 40.0], queue_pkts=7.0)
    assert probe.t_s == [1.0]
    # Per-node rates (60, 40): Jain = 100^2 / (2 * (3600 + 1600)).
    assert probe.jain[0] == pytest.approx(10000 / (2 * 5200))
    # Per-flow rates (30, 30, 40): Jain = 100^2 / (3 * (900+900+1600)).
    assert probe.flow_jain[0] == pytest.approx(10000 / (3 * 3400))
    assert probe.phi[0] == pytest.approx(1.0)
    assert probe.queue_pkts == [7.0]
    assert probe.sender_bps == [[60.0], [40.0]]


def test_probe_derived_dynamics():
    probe = FairnessProbe(capacity_bps=100.0, node_of=[0, 1], interval_s=1.0)
    # Jain: 0.5, then perfectly fair for 3 samples, dip, fair again.
    plan = [
        (1.0, [100.0, 0.0]),
        (2.0, [50.0, 50.0]),
        (3.0, [50.0, 50.0]),
        (4.0, [50.0, 50.0]),
        (5.0, [100.0, 0.0]),  # oscillation + (phi stays 1.0, no sync loss)
        (6.0, [50.0, 50.0]),
    ]
    for t, rates in plan:
        probe.sample(t, rates)
    assert probe.convergence_time_s() == pytest.approx(2.0)
    assert probe.oscillations() == 1
    assert probe.sync_loss_times_s() == []
    d = probe.to_dict()
    assert d["samples"] == 6
    assert d["convergence_time_s"] == pytest.approx(2.0)
    assert d["oscillations"] == 1


def test_probe_detects_sync_loss():
    probe = FairnessProbe(capacity_bps=100.0, node_of=[0, 1], interval_s=1.0)
    probe.sample(1.0, [50.0, 50.0])
    probe.sample(2.0, [20.0, 20.0])  # phi 1.0 -> 0.4: synchronized back-off
    assert probe.sync_loss_times_s() == [2.0]


def test_probe_validation():
    with pytest.raises(ValueError):
        FairnessProbe(capacity_bps=0.0, node_of=[0], interval_s=1.0)
    with pytest.raises(ValueError):
        FairnessProbe(capacity_bps=1.0, node_of=[0], interval_s=0.0)
    with pytest.raises(ValueError):
        FairnessProbe(capacity_bps=1.0, node_of=[], interval_s=1.0)
    probe = FairnessProbe(capacity_bps=1.0, node_of=[0, 1], interval_s=1.0)
    with pytest.raises(ValueError):
        probe.sample(1.0, [1.0])  # wrong flow count


def test_fairness_records_and_summary():
    probe = FairnessProbe(capacity_bps=100.0, node_of=[0, 1], interval_s=0.5)
    probe.sample(0.5, [60.0, 40.0], queue_pkts=3.0)
    probe.sample(1.0, [50.0, 50.0], queue_pkts=1.0)
    d = probe.to_dict()
    recs = list(fairness_records(d))
    assert len(recs) == 2
    assert recs[0]["t_sim_s"] == 0.5
    assert recs[0]["sender_bps"] == [60.0, 40.0]
    assert recs[1]["jain"] == pytest.approx(1.0)
    assert recs[1]["queue_pkts"] == 1.0
    digest = fairness_summary(d)
    assert digest["samples"] == 2
    assert digest["interval_s"] == 0.5
    assert digest["oscillations"] == 0
    assert digest["sync_losses"] == 0


def test_register_fairness_gauges_snapshot():
    probe = FairnessProbe(capacity_bps=100.0, node_of=[0, 1], interval_s=1.0)
    probe.sample(1.0, [100.0, 0.0], queue_pkts=4.0)
    registry = MetricsRegistry(enabled=True)
    register_fairness_gauges(registry, probe.to_dict())
    snap = registry.snapshot()
    assert snap["gauges"]["fairness_jain"] == pytest.approx(0.5)
    assert snap["gauges"]["fairness_phi"] == pytest.approx(1.0)
    assert snap["gauges"]["fairness_queue_pkts"] == 4.0
    # Not converged: the sentinel is -1, not None (gauges are numeric).
    assert snap["gauges"]["fairness_convergence_time_s"] == -1.0
    assert snap["counters"]["fairness_samples_total"] == 1


def test_fluid_sample_stride():
    assert fluid_sample_stride(1.0, 0.01) == 100
    assert fluid_sample_stride(0.001, 0.01) == 1  # floor at one step


# --- packet engine end to end --------------------------------------------------


def test_disabled_instrumentation_returns_none():
    assert instrument_packet_fairness(None, None, 1.0, [], None) is None
    assert instrument_packet_fairness(None, None, 1.0, [], 0) is None


def test_packet_run_records_fairness():
    result = run_packet_experiment(_cfg(fairness_interval_s=1.0))
    f = result.extra["fairness"]
    assert f["engine"] == "packet"
    assert f["samples"] >= 3
    assert len(f["t_s"]) == f["samples"] == len(f["jain"]) == len(f["phi"])
    assert all(0.0 <= j <= 1.0 + 1e-9 for j in f["jain"])
    assert all(p >= 0.0 for p in f["phi"])
    # Two sender nodes, one series per node, one point per sample.
    assert len(f["sender_bps"]) == 2
    assert all(len(s) == f["samples"] for s in f["sender_bps"])


def test_packet_sampling_never_perturbs_outcomes():
    cfg = _cfg(seed=11, aqm="fq_codel", buffer_bdp=0.5)
    plain = run_packet_experiment(cfg)
    sampled = run_packet_experiment(
        dataclasses.replace(cfg, fairness_interval_s=0.5)
    )
    assert [f.__dict__ for f in plain.flows] == [f.__dict__ for f in sampled.flows]
    assert plain.jain_index == sampled.jain_index
    assert plain.bottleneck_drops == sampled.bottleneck_drops
    assert plain.total_retransmits == sampled.total_retransmits


def test_fairness_interval_validation():
    with pytest.raises(ValueError):
        _cfg(fairness_interval_s=-1.0)


def test_unsampled_config_dict_omits_fairness_key():
    # Compatibility contract: configs that never sampled serialize the
    # same bytes as before the knob existed (golden fixtures included).
    assert "fairness_interval_s" not in _cfg().to_dict()
    assert _cfg(fairness_interval_s=2.0).to_dict()["fairness_interval_s"] == 2.0


# --- fluid engine end to end ---------------------------------------------------


def test_fluid_run_records_fairness_without_perturbing():
    from repro.experiments.runner import run_experiment

    cfg = _cfg(engine="fluid", bottleneck_bw_bps=mbps(100), seed=3)
    plain = run_experiment(cfg)
    sampled = run_experiment(dataclasses.replace(cfg, fairness_interval_s=0.5))
    f = sampled.extra["fairness"]
    assert f["engine"] == "fluid"
    assert f["samples"] >= 3
    pd, sd = plain.to_dict(), sampled.to_dict()
    for d in (pd, sd):
        d.pop("wallclock_s")
        d.pop("extra", None)
        d["config"].pop("fairness_interval_s", None)
    assert pd == sd


# --- telemetry session / run log / trace export --------------------------------


def test_session_streams_fairness_records(tmp_path):
    cfg = _cfg(seed=8, fairness_interval_s=1.0)
    opts = TelemetryOptions(dir=str(tmp_path), spans=True)
    result = run_packet_experiment(cfg, opts)

    records = read_run_log(tmp_path / f"{cfg.label()}.jsonl")
    assert validate_run_log(records) == []
    fair = [r for r in records if r["record"] == "fairness"]
    assert len(fair) == result.extra["fairness"]["samples"]
    assert result.extra["obs"]["fairness_samples"] == len(fair)
    assert fair[0]["t_sim_s"] == pytest.approx(1.0)

    summary = records[-1]
    assert summary["fairness"]["samples"] == len(fair)

    metrics = [r for r in records if r["record"] == "metrics"][-1]
    assert metrics["gauges"]["fairness_jain"] == pytest.approx(
        result.extra["fairness"]["jain"][-1]
    )

    # Perfetto export: counter events for every sample x metric, valid.
    doc = build_chrome_trace([tmp_path / f"{cfg.label()}.jsonl"])
    assert validate_chrome_trace(doc) == []
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(counters) == 3 * len(fair)  # jain, phi, queue_pkts
    assert doc["otherData"]["fairness_samples"] == len(fair)
    names = {e["name"].split(" ")[0] for e in counters}
    assert names == {"jain", "phi", "queue_pkts"}


def test_validator_rejects_bad_fairness_record():
    records = [
        {"record": "manifest", "t_wall": 0.0, "schema": "repro-runlog/1",
         "label": "x", "config": {}, "config_hash": "0", "repro_version": "0",
         "seed": 1, "engine": "packet"},
        {"record": "fairness", "t_wall": 0.0, "t_sim_s": 1.0, "jain": 1.5,
         "phi": 0.9},
        {"record": "summary", "t_wall": 0.0, "status": "ok"},
    ]
    errors = validate_run_log(records)
    assert any("jain" in e for e in errors)
