"""Multi-process queue tests: disjoint work, no lost results, SIGKILL resume.

Workers are real forked processes sharing one queue directory, one
ResultStore, and one ResultCache root — the deployment shape the sweep
service promises to make safe.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time

from helpers import done_records

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.queue import WorkQueue, run_queue_worker
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps

N_CONFIGS = 12


def _configs():
    return [
        ExperimentConfig(
            cca_pair=("cubic", "cubic"),
            bottleneck_bw_bps=mbps(100),
            duration_s=5.0,
            engine="fluid",
            seed=s,
        )
        for s in range(N_CONFIGS)
    ]


def _fake_run(cfg):
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[SenderStats("client1", "cubic", 50e6, 0, 1)],
        flows=FlowTable(),
        jain_index=1.0,
        link_utilization=1.0,
        total_retransmits=0,
        total_throughput_bps=100e6,
        bottleneck_drops=0,
        duration_s=cfg.duration_s,
        engine=cfg.engine,
        wallclock_s=0.01,
    )


def _worker(queue_dir, store_path, cache_root, call_log, worker_name):
    """One campaign worker process draining the shared queue."""

    def logged_run(cfg):
        # O_APPEND line per engine invocation → cross-process call count.
        with open(call_log, "a") as fh:
            fh.write(f"{worker_name} {cfg.seed}\n")
        time.sleep(0.01)  # widen the interleaving window
        return _fake_run(cfg)

    queue = WorkQueue.create(queue_dir, _configs())  # join
    store = ResultStore(store_path)
    cache = ResultCache(cache_root, worker=worker_name)
    run_queue_worker(queue, store=store, cache=cache, run_fn=logged_run)
    store.close()
    cache.close()


def test_two_workers_share_queue_without_duplication(tmp_path):
    queue_dir = tmp_path / "q"
    store_path = tmp_path / "results.jsonl"
    cache_root = tmp_path / "cache"
    call_log = tmp_path / "calls.log"
    call_log.touch()
    WorkQueue.create(queue_dir, _configs())

    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(
            target=_worker,
            args=(queue_dir, store_path, cache_root, call_log, f"w{i}"),
        )
        for i in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0

    queue = WorkQueue.open(queue_dir)
    assert queue.drained

    # No lost results: every config persisted exactly once.
    rows = ResultStore(store_path).load()
    assert sorted(r.config["seed"] for r in rows) == list(range(N_CONFIGS))

    # No duplicate computation: exactly one engine invocation per config.
    calls = call_log.read_text().splitlines()
    assert len(calls) == N_CONFIGS
    assert sorted(int(line.split()[1]) for line in calls) == list(range(N_CONFIGS))

    # Both worker cache shards fold into one canonical store.
    merged = ResultCache(cache_root).merge()
    assert merged["entries"] == N_CONFIGS and merged["duplicates"] == 0


def _slow_worker(queue_dir, store_path, fast_seeds):
    """Worker that persists ``fast_seeds`` quickly, then stalls forever."""

    def gated_run(cfg):
        if cfg.seed not in fast_seeds:
            time.sleep(600)
        return _fake_run(cfg)

    queue = WorkQueue.create(queue_dir, _configs())
    store = ResultStore(store_path)
    run_queue_worker(queue, store=store, run_fn=gated_run)


def test_sigkill_mid_sweep_reruns_only_incomplete_configs(tmp_path):
    queue_dir = tmp_path / "q"
    store_path = tmp_path / "results.jsonl"
    WorkQueue.create(queue_dir, _configs())
    fast = {0, 1, 2}

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(target=_slow_worker, args=(queue_dir, store_path, fast))
    victim.start()

    # Wait until the victim has persisted the fast configs and is wedged
    # inside the next task, then SIGKILL it mid-claim.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if len(ResultStore(store_path).load()) >= len(fast):
                break
        except (ValueError, FileNotFoundError):
            pass
        time.sleep(0.05)
    else:  # pragma: no cover - only on runaway hosts
        raise AssertionError("victim never persisted the fast configs")
    time.sleep(0.2)  # let it enter (and claim) the stalled task
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)  # reap: the stale-pid check needs a truly dead pid
    assert victim.exitcode == -signal.SIGKILL

    stored_after_kill = {r.config["seed"] for r in ResultStore(store_path).load()}
    assert fast <= stored_after_kill
    assert WorkQueue.open(queue_dir).counts()["claimed"] == 1, "victim should die holding a claim"

    calls = []

    def counting_run(cfg):
        calls.append(cfg.seed)
        return _fake_run(cfg)

    queue = WorkQueue.open(queue_dir)
    result = run_queue_worker(queue, store=ResultStore(store_path), run_fn=counting_run)
    assert queue.drained

    # Only the configs the dead worker never persisted were re-run.
    assert sorted(calls) == sorted(set(range(N_CONFIGS)) - stored_after_kill)
    assert result.summary()["failed"] == 0

    # The final store is complete with no duplicate rows.
    seeds = sorted(r.config["seed"] for r in ResultStore(store_path).load())
    assert seeds == list(range(N_CONFIGS))


def _stress_worker(queue_dir, store_path, call_log):
    def logged_run(cfg):
        with open(call_log, "a") as fh:
            fh.write(f"{cfg.seed}\n")
        return _fake_run(cfg)

    with ResultStore(store_path) as store:
        run_queue_worker(WorkQueue.open(queue_dir), store=store, run_fn=logged_run)


def test_more_workers_than_cores_contend_for_one_journal(tmp_path):
    """Instant tasks, so claims and completions collide on the journal's
    lock as often as they can: every config still runs and is stored
    exactly once, and every task has one done record."""
    n, workers = 48, max(4, 2 * (os.cpu_count() or 1))
    configs = [dataclasses.replace(_configs()[0], seed=s) for s in range(n)]
    queue_dir, store_path, call_log = tmp_path / "q", tmp_path / "r.jsonl", tmp_path / "calls"
    WorkQueue.create(queue_dir, configs)
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_stress_worker, args=(queue_dir, store_path, call_log))
             for _ in range(workers)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert sorted(int(s) for s in call_log.read_text().split()) == list(range(n))
    assert sorted(r.config["seed"] for r in ResultStore(store_path).load()) == list(range(n))
    queue = WorkQueue.open(queue_dir)
    assert queue.drained
    assert sorted(d["task"] for d in done_records(queue_dir)) == sorted(
        t.task_id for t in queue.tasks)
