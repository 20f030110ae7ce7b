"""Chaos tests for the hardened campaign executor.

Misbehaving workers are injected through the ``worker_fn`` seam: a hang
(to be killed at its deadline), a silent death (``os._exit``), and a
fail-once-then-succeed worker (to prove retry-with-backoff).  The custom
workers interpret the ``telemetry_dict`` half of their payload as a
scratch directory for cross-process bookkeeping.
"""

import os
import time

import pytest

from repro.experiments.campaign import (
    CampaignProgress,
    _backoff_delay,
    load_failures,
    run_campaign,
    run_task,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.queue import WorkQueue, run_queue_worker
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult
from repro.units import mbps

HANG_SEED = 101
CRASH_SEED = 102


def _configs(n=1, base_seed=100):
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


# -- module-level worker functions (must survive the process boundary) ------------


def _plain_worker(payload):
    """The default worker body, in ``worker_fn`` terms."""
    return run_task("one", [payload[0]])[0]


def _hang_worker(payload):
    time.sleep(60)
    return _plain_worker(payload)


def _crash_worker(payload):
    os._exit(13)


def _raising_worker(payload):
    raise RuntimeError("worker exploded")


def _fail_once_worker(payload):
    """Fail the first attempt per label; succeed afterwards (flag files)."""
    config_dict, scratch = payload
    label = ExperimentConfig.from_dict(config_dict).label()
    flag = os.path.join(scratch["dir"], f"{label}.attempted")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        raise RuntimeError("transient failure")
    return _plain_worker(payload)


def _chaos_worker(payload):
    """Hang on one seed, crash on another, run everything else normally."""
    config_dict, _ = payload
    if config_dict["seed"] == HANG_SEED:
        time.sleep(60)
    if config_dict["seed"] == CRASH_SEED:
        os._exit(13)
    return _plain_worker(payload)


def _counting_worker(payload):
    """Log which labels actually executed, then run normally."""
    config_dict, scratch = payload
    label = ExperimentConfig.from_dict(config_dict).label()
    with open(os.path.join(scratch["dir"], "ran.log"), "a") as fh:
        fh.write(label + "\n")
    return _plain_worker(payload)


class _Scratch(dict):
    """Duck-types TelemetryOptions just enough to ride the telemetry slot."""

    def to_dict(self):
        return dict(self)


def _count_worker_starts(monkeypatch):
    """Count process starts from here on: the returned list grows by one each."""
    import multiprocessing.process

    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(1)
        return real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


# -- watchdog ---------------------------------------------------------------------


def test_hung_worker_is_killed_and_recorded_as_timeout(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    start = time.monotonic()
    results = run_campaign(
        _configs(1), store=store, worker_fn=_hang_worker, timeout_s=0.3
    )
    assert time.monotonic() - start < 30  # nowhere near the 60 s sleep
    assert results.summary() == {"ok": 0, "failed": 1, "retried": 0, "total": 1}
    (row,) = results.failures
    assert row.kind == "timeout"
    assert "watchdog" in row.error
    # Persisted to the sibling failures file with its kind intact.
    assert load_failures(store)[0].kind == "timeout"


def test_crashed_worker_recorded_as_crash(tmp_path):
    results = run_campaign(_configs(1), worker_fn=_crash_worker, timeout_s=30)
    (row,) = results.failures
    assert row.kind == "crash"
    assert "exitcode" in row.error


def test_result_sent_just_before_exit_is_not_a_crash(tmp_path, monkeypatch):
    """A worker that sends and dies between the parent's ``poll()`` and its
    ``is_alive()`` has reported: the result is in the pipe.  Make the first
    poll miss exactly that way — the one worker that would serve both tasks
    is killed just after sending the first result — and a fresh worker
    takes the second task."""
    import multiprocessing
    from multiprocessing.connection import Connection

    real_poll = Connection.poll
    missed = []

    def poll_missing_once(self, timeout=0.0):
        if missed:
            return real_poll(self, timeout)
        missed.append(self)
        assert real_poll(self, 30.0)  # the worker has sent its result ...
        (worker,) = multiprocessing.active_children()
        worker.kill()
        worker.join(30.0)  # ... and died ...
        return False  # ... just after this poll looked

    monkeypatch.setattr(Connection, "poll", poll_missing_once)
    started = _count_worker_starts(monkeypatch)
    store = ResultStore(tmp_path / "r.jsonl")
    results = run_campaign(_configs(2), store=store, worker_fn=_plain_worker)
    assert results.summary() == {"ok": 2, "failed": 0, "retried": 0, "total": 2}
    assert len(missed) == 1 and len(store) == 2
    assert len(started) == 2
    assert load_failures(store) == []


def _slow_chaos_worker(payload):
    """Like ``_chaos_worker``, but a healthy run takes 0.4 s, so a fault on
    the first task is seen while later tasks still wait for a lane."""
    if payload[0]["seed"] not in (HANG_SEED, CRASH_SEED):
        time.sleep(0.4)
    return _chaos_worker(payload)


@pytest.mark.parametrize("seeds,kwargs,workers", [
    ((200,), {}, 0),  # one config: inline, no worker at all
    ((200, 201, 202, 203), {}, 2),
    ((200,), {"worker_fn": _slow_chaos_worker}, 1),
    ((200, 201, 202, 203), {"worker_fn": _slow_chaos_worker}, 2),
    ((CRASH_SEED, 200, 201, 202), {"worker_fn": _slow_chaos_worker}, 3),
    ((HANG_SEED, 200, 201, 202, 203), {"worker_fn": _slow_chaos_worker, "timeout_s": 0.5}, 3),
], ids=["inline", "plain", "one-task", "hardened", "crash", "timeout"])
def test_workers_started_are_lanes_used_plus_one_per_lost_worker(monkeypatch, seeds, kwargs,
                                                                 workers):
    """``jobs=2`` over N tasks forks ``min(jobs, N)`` long-lived workers, and
    one more per worker lost to a timeout or crash while tasks still wait."""
    started = _count_worker_starts(monkeypatch)
    configs = [_configs(1, seed)[0] for seed in seeds]
    results = run_campaign(configs, jobs=2, **kwargs)
    assert results.summary()["total"] == len(seeds)
    assert results.summary()["failed"] == sum(s in (HANG_SEED, CRASH_SEED) for s in seeds)
    assert len(started) == workers


def _slow_chaos_run(config):
    """``_slow_chaos_worker`` in the queue's ``run_fn`` terms."""
    return ExperimentResult.from_dict(_slow_chaos_worker((config.to_dict(), None))["ok"])


@pytest.mark.parametrize("seeds,kwargs,workers", [
    ((200, 201), {"jobs": 1}, 0),  # unhardened: inline, no worker at all
    ((200, 201), {"jobs": 1, "timeout_s": 30.0}, 1),
    ((200,), {"jobs": 2}, 1),
    ((200, 201, 202, 203), {"jobs": 2}, 2),
    ((CRASH_SEED, 200, 201, 202), {"jobs": 2}, 3),
    ((HANG_SEED, 200, 201, 202, 203), {"jobs": 2, "timeout_s": 0.5}, 3),
], ids=["inline", "hardened-one-lane", "one-task", "plain", "crash", "timeout"])
def test_queue_drain_forks_lanes_used_plus_one_per_lost_worker(tmp_path, monkeypatch, seeds,
                                                               kwargs, workers):
    """A queue drain forks as a campaign does, except that it cannot know
    how many tasks it will claim: ``jobs=N`` forks ``min(N, tasks)``
    workers, plus one per worker lost while tasks still wait."""
    started = _count_worker_starts(monkeypatch)
    queue = WorkQueue.create(tmp_path / "q", [_configs(1, seed)[0] for seed in seeds])
    results = run_queue_worker(queue, run_fn=_slow_chaos_run, **kwargs)
    assert results.summary()["total"] == len(seeds)
    assert results.summary()["failed"] == sum(s in (HANG_SEED, CRASH_SEED) for s in seeds)
    assert queue.drained
    assert len(started) == workers


def test_raising_worker_recorded_as_error():
    results = run_campaign(_configs(1), worker_fn=_raising_worker)
    (row,) = results.failures
    assert row.kind == "error"
    assert "worker exploded" in row.error
    assert "Traceback" in row.traceback


def test_timeout_and_retry_validation():
    with pytest.raises(ValueError, match="timeout_s"):
        run_campaign(_configs(1), timeout_s=0)
    with pytest.raises(ValueError, match="retries"):
        run_campaign(_configs(1), retries=-1)


@pytest.mark.parametrize("option,value", [
    ("timeout_s", float("nan")), ("timeout_s", float("inf")), ("timeout_s", -1.0),
    ("backoff_s", float("nan")), ("backoff_s", float("inf")), ("backoff_s", -0.5),
    ("retries", -1), ("jobs", 0),
])
def test_both_entries_refuse_timing_no_transport_can_honour(tmp_path, option, value):
    """A NaN backoff would never come due (the retry loop would spin), a NaN
    deadline would kill every run at once: refused before any task is drawn."""
    queue = WorkQueue.create(tmp_path / "q", _configs(1))
    for entry in (lambda **kw: run_campaign(_configs(1), **kw),
                  lambda **kw: run_queue_worker(queue, **kw)):
        with pytest.raises(ValueError, match=option):
            entry(**{"retries": 1, option: value})
    assert queue.counts()["pending"] == 1


# -- retry with backoff -----------------------------------------------------------


def test_retry_succeeds_on_second_attempt(tmp_path):
    retries_seen = []
    results = run_campaign(
        _configs(1),
        worker_fn=_fail_once_worker,
        telemetry=_Scratch(dir=str(tmp_path)),
        retries=2,
        backoff_s=0.01,
        on_retry=lambda label, attempt, delay, failure: retries_seen.append(
            (label, attempt, failure.kind)
        ),
    )
    assert results.summary() == {"ok": 1, "failed": 0, "retried": 1, "total": 1}
    assert retries_seen == [(_configs(1)[0].label(), 1, "error")]


def test_retries_exhausted_reports_attempts():
    results = run_campaign(_configs(1), worker_fn=_raising_worker, retries=2, backoff_s=0.01)
    assert results.summary() == {"ok": 0, "failed": 1, "retried": 2, "total": 1}
    assert results.failures[0].attempts == 3  # initial try + 2 retries


def test_backoff_delay_is_deterministic_and_exponential():
    d1 = _backoff_delay("some-label", 1, 0.5)
    d2 = _backoff_delay("some-label", 2, 0.5)
    d3 = _backoff_delay("some-label", 3, 0.5)
    assert d1 == _backoff_delay("some-label", 1, 0.5)  # seeded jitter
    assert 0.5 <= d1 <= 0.5 * 1.25
    assert 1.0 <= d2 <= 1.0 * 1.25
    assert 2.0 <= d3 <= 2.0 * 1.25
    assert d1 != _backoff_delay("other-label", 1, 0.5)


# -- the acceptance scenario ------------------------------------------------------


def test_campaign_survives_hang_and_crash_then_retry_pass_clears(tmp_path):
    """One hang + one crash: the rest completes, both are FailedRun rows,
    and a follow-up resume pass re-runs exactly the two failures."""
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(4, base_seed=100)  # seeds 100..103; 101 hangs, 102 crashes
    results = run_campaign(
        configs, store=store, jobs=2, worker_fn=_chaos_worker, timeout_s=5.0
    )
    assert results.summary() == {"ok": 2, "failed": 2, "retried": 0, "total": 4}
    kinds = {f.config["seed"]: f.kind for f in results.failures}
    assert kinds == {HANG_SEED: "timeout", CRASH_SEED: "crash"}
    assert sorted(r.config["seed"] for r in results) == [100, 103]
    assert len(store) == 2

    # Retry pass: resume re-runs only the failed/missing configs.
    scratch = tmp_path / "pass2"
    scratch.mkdir()
    second = run_campaign(
        configs,
        store=store,
        worker_fn=_counting_worker,
        telemetry=_Scratch(dir=str(scratch)),
    )
    assert second.summary() == {"ok": 4, "failed": 0, "retried": 0, "total": 4}
    assert len(store) == 4
    ran = sorted((scratch / "ran.log").read_text().splitlines())
    assert ran == sorted(c.label() for c in configs if c.seed in (HANG_SEED, CRASH_SEED))


def test_retry_records_flow_into_campaign_log(tmp_path):
    from repro.obs.runlog import read_run_log

    log = tmp_path / "campaign.jsonl"
    tracker = CampaignProgress(log, quiet=True)
    run_campaign(
        _configs(1),
        worker_fn=_raising_worker,
        retries=1,
        backoff_s=0.01,
        progress=tracker,
        on_failure=tracker.failure,
        on_retry=tracker.retry,
    )
    tracker.close()
    records = read_run_log(log)
    kinds = [r["record"] for r in records]
    assert kinds == ["campaign_retry", "campaign_progress"]
    retry = records[0]
    assert retry["attempt"] == 1
    assert "worker exploded" in retry["error"]
    assert records[1]["retried"] == 1
    assert records[1]["failed"] == 1
