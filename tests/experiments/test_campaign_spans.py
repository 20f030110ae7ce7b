"""Campaign-side span tracing: the inline and the worker transports.

Spans stream into the same ``campaign.jsonl`` as the progress records;
these tests check the timeline a ``repro obs trace`` export would see —
a ``campaign`` root, per-attempt ``worker`` spans with stable lane
numbers, ``store`` spans, and ``retry`` instant markers.
"""

import os

from repro.experiments.campaign import CampaignProgress, run_campaign, run_task
from repro.experiments.config import ExperimentConfig
from repro.experiments.storage import ResultStore
from repro.obs.runlog import read_run_log, validate_spans
from repro.obs.spans import CAT_CAMPAIGN, CAT_WORKER
from repro.units import mbps


def _configs(n=2, base_seed=300):
    return [
        ExperimentConfig(
            cca_pair=("cubic", "cubic"),
            bottleneck_bw_bps=mbps(100),
            duration_s=5.0,
            engine="fluid",
            seed=base_seed + i,
        )
        for i in range(n)
    ]


def _fail_once_worker(payload):
    """Fail each label's first attempt; succeed afterwards (flag files)."""
    config_dict, scratch = payload
    label = ExperimentConfig.from_dict(config_dict).label()
    flag = os.path.join(scratch["dir"], f"{label}.attempted")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        raise RuntimeError("transient failure")
    return run_task("one", [config_dict])[0]


class _Scratch(dict):
    def to_dict(self):
        return dict(self)


def _spans_from(log_path):
    records = [r for r in read_run_log(log_path) if r["record"] == "span"]
    assert validate_spans(records) == []
    return records


def test_serial_campaign_emits_root_worker_and_store_spans(tmp_path):
    log = tmp_path / "campaign.jsonl"
    store = ResultStore(tmp_path / "results.jsonl")
    tracker = CampaignProgress(log, quiet=True, spans=True)
    configs = _configs(2)
    run_campaign(
        configs, store=store, progress=tracker, span_tracer=tracker.spans
    )
    tracker.close()

    spans = _spans_from(log)
    by_name = {s["name"]: s for s in spans}

    root = next(s for s in spans if s["cat"] == CAT_CAMPAIGN)
    assert root["name"] == "campaign"
    assert root["parent_id"] is None
    assert root["labels"]["mode"] == "serial"
    assert root["labels"]["configs"] == 2
    assert root["labels"]["ok"] == 2
    assert root["labels"]["failed"] == 0

    workers = sorted(
        (s for s in spans if s["cat"] == CAT_WORKER), key=lambda s: s["t_start"]
    )
    assert [w["name"] for w in workers] == [c.label() for c in configs]
    assert all(w["lane"] == 0 for w in workers)
    assert all(w["parent_id"] == root["span_id"] for w in workers)
    # One lane means strictly sequential execution.
    for prev, cur in zip(workers, workers[1:]):
        assert prev["t_start"] + prev["dur_s"] <= cur["t_start"]

    stores = [s for s in spans if s["name"] == "store"]
    assert len(stores) == 2
    assert "store" in by_name


def test_hardened_campaign_lanes_retries_and_outcomes(tmp_path):
    log = tmp_path / "campaign.jsonl"
    tracker = CampaignProgress(log, quiet=True, spans=True)
    jobs = 2
    results = run_campaign(
        _configs(3),
        jobs=jobs,
        worker_fn=_fail_once_worker,
        telemetry=_Scratch(dir=str(tmp_path)),
        retries=2,
        backoff_s=0.01,
        progress=tracker,
        on_failure=tracker.failure,
        on_retry=tracker.retry,
        span_tracer=tracker.spans,
    )
    tracker.close()
    assert results.summary() == {"ok": 3, "failed": 0, "retried": 3, "total": 3}

    spans = _spans_from(log)
    root = next(s for s in spans if s["cat"] == CAT_CAMPAIGN)
    assert root["labels"]["mode"] == "workers"
    assert root["labels"]["ok"] == 3
    assert root["labels"]["retried"] == 3

    attempts = [
        s for s in spans if s["cat"] == CAT_WORKER and s["dur_s"] > 0.0
    ]
    # 3 failing first attempts + 3 successful second attempts.
    assert len(attempts) == 6
    assert all(a["parent_id"] == root["span_id"] for a in attempts)
    # Worker-slot lanes are reused, so the trace never shows more than
    # ``jobs`` lanes.
    assert {a["lane"] for a in attempts} <= set(range(jobs))
    assert sorted(a["labels"]["outcome"] for a in attempts) == [
        "error", "error", "error", "ok", "ok", "ok"
    ]
    assert {a["labels"]["attempt"] for a in attempts} == {1, 2}

    # Spans sharing a lane never overlap (slot freed before reuse).
    for lane in {a["lane"] for a in attempts}:
        on_lane = sorted(
            (a for a in attempts if a["lane"] == lane),
            key=lambda s: s["t_start"],
        )
        for prev, cur in zip(on_lane, on_lane[1:]):
            assert prev["t_start"] + prev["dur_s"] <= cur["t_start"]

    retries = [s for s in spans if s["name"] == "retry"]
    assert len(retries) == 3
    assert all(r["dur_s"] == 0.0 for r in retries)
    assert all(r["labels"]["kind"] == "error" for r in retries)
    assert all(r["labels"]["attempt"] == 1 for r in retries)


def test_worker_campaign_spans_one_attempt_per_task_on_jobs_lanes(tmp_path):
    log = tmp_path / "campaign.jsonl"
    tracker = CampaignProgress(log, quiet=True, spans=True)
    configs = _configs(4)
    run_campaign(configs, jobs=2, progress=tracker, span_tracer=tracker.spans)
    tracker.close()

    spans = _spans_from(log)
    root = next(s for s in spans if s["cat"] == CAT_CAMPAIGN)
    assert root["labels"]["mode"] == "workers"
    attempts = [s for s in spans if s["cat"] == CAT_WORKER]
    assert sorted(a["name"] for a in attempts) == sorted(c.label() for c in configs)
    assert {a["lane"] for a in attempts} == {0, 1}
    assert all(a["labels"] == {"attempt": 1, "outcome": "ok"} for a in attempts)
