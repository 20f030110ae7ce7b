"""Unit tests for the filesystem work queue and its claim protocol."""

import json
import os

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.campaign import task_id_for
from repro.experiments.queue import (
    QueueTask,
    WorkQueue,
    plan_tasks,
    run_queue_worker,
)
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps


def _config(seed=1, engine="fluid", **kw):
    return ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        bottleneck_bw_bps=mbps(100),
        duration_s=5.0,
        engine=engine,
        seed=seed,
        **kw,
    )


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


# -- task planning ------------------------------------------------------------------


def test_task_ids_are_content_addressed():
    a = task_id_for([_config(1).to_dict()])
    assert a == task_id_for([_config(1).to_dict()])
    assert a != task_id_for([_config(2).to_dict()])
    assert len(a) == 20


def test_plan_tasks_singles():
    tasks = plan_tasks([_config(1), _config(2)])
    assert [t.kind for t in tasks] == ["one", "one"]
    assert all(len(t.configs) == 1 for t in tasks)


def test_plan_tasks_groups_batched_shards():
    configs = [_config(s, engine="fluid_batched") for s in (1, 2)] + [_config(3)]
    tasks = plan_tasks(configs)
    kinds = sorted(t.kind for t in tasks)
    assert "shard" in kinds and "one" in kinds
    shard_cfgs = [c for t in tasks if t.kind == "shard" for c in t.configs]
    assert {c["seed"] for c in shard_cfgs} == {1, 2}


# -- create / open / join -----------------------------------------------------------


def test_create_then_join_same_configs(tmp_path):
    configs = [_config(1), _config(2)]
    q1 = WorkQueue.create(tmp_path / "q", configs)
    q2 = WorkQueue.create(tmp_path / "q", configs)  # join, not overwrite
    assert {t.task_id for t in q1.tasks} == {t.task_id for t in q2.tasks}
    assert (tmp_path / "q" / "tasks.jsonl").exists()


def test_join_with_different_configs_raises(tmp_path):
    WorkQueue.create(tmp_path / "q", [_config(1)])
    with pytest.raises(ValueError, match="frozen sweep"):
        WorkQueue.create(tmp_path / "q", [_config(99)])


def _batched_grid():
    """Mixed AQMs and flow counts, one lock-step key: a lane-budgeted sweep."""
    return [
        _config(seed, engine="fluid_batched", aqm=aqm, flows_per_node=w)
        for seed, (aqm, w) in enumerate(
            ((aqm, w) for aqm in ("fifo", "red", "fq_codel") for w in (1, 5)), start=1
        )
    ]


def test_two_creators_plan_the_same_batched_task_list(tmp_path):
    """``create`` plans from the lane-budget constant alone, so a second
    creator joins instead of finding "a different task set"."""
    configs = _batched_grid()
    q1 = WorkQueue.create(tmp_path / "q", configs)
    frozen = (tmp_path / "q" / "tasks.jsonl").read_bytes()
    q2 = WorkQueue.create(tmp_path / "q", configs)
    assert (tmp_path / "q" / "tasks.jsonl").read_bytes() == frozen
    assert [t.task_id for t in q1.tasks] == [t.task_id for t in q2.tasks]
    assert [t.kind for t in q1.tasks] == ["shard"]  # six blocks, one task


def test_queue_planned_per_aqm_and_width_still_drains_to_the_same_store(tmp_path):
    """A ``tasks.jsonl`` frozen before lane budgeting (one shard per AQM
    family x flow count) is still a valid queue: it drains, to the bytes a
    freshly planned queue stores — but ``create`` will not join it."""
    configs = _batched_grid()
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    with (old_dir / "tasks.jsonl").open("w") as fh:
        for config in configs:  # one (AQM, width) each: HEAD's plan for this list
            dicts = [config.to_dict()]
            task = QueueTask(task_id_for(dicts), "shard", dicts)
            fh.write(json.dumps(task.to_dict(), sort_keys=True) + "\n")

    def drained_lines(queue, store_path):
        with ResultStore(store_path) as store:
            outcome = run_queue_worker(queue, store=store)
        assert queue.drained and len(outcome) == len(configs) and not outcome.failures
        rows = [json.loads(line) for line in store_path.read_text().splitlines()]
        for row in rows:
            row.pop("wallclock_s")
        return sorted(json.dumps(row, sort_keys=True) for row in rows)

    old = drained_lines(WorkQueue.open(old_dir), tmp_path / "old.jsonl")
    new = drained_lines(WorkQueue.create(tmp_path / "new", configs), tmp_path / "new.jsonl")
    assert old == new
    with pytest.raises(ValueError, match="frozen sweep"):
        WorkQueue.create(old_dir, configs)


def test_open_missing_queue_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        WorkQueue.open(tmp_path / "nope")


# -- claim protocol -----------------------------------------------------------------


def test_claim_is_exclusive(tmp_path):
    q1 = WorkQueue.create(tmp_path / "q", [_config(1)])
    q2 = WorkQueue.open(tmp_path / "q")
    task = q1.claim()
    assert task is not None
    assert q2.claim() is None  # live claim from q1 blocks it
    q1.release(task.task_id)
    assert q2.claim() is not None  # released claim is takeable again


def test_done_tasks_are_skipped(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1), _config(2)])
    first = q.claim()
    q.complete(first.task_id, results=1)
    assert q.is_done(first.task_id)
    second = q.claim()
    assert second is not None and second.task_id != first.task_id
    q.complete(second.task_id, results=1)
    assert q.claim() is None
    assert q.drained


def test_stale_claim_from_dead_pid_is_reclaimed(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task = q.tasks[0]
    # Forge a claim owned by a dead process on this host.
    dead_pid = 2**22 - 1  # beyond default pid_max: guaranteed dead
    q._claim_path(task.task_id).write_text(
        json.dumps({"pid": dead_pid, "host": __import__("socket").gethostname()})
    )
    claimed = q.claim()
    assert claimed is not None and claimed.task_id == task.task_id
    assert task.task_id in q.reclaimed


def test_live_claim_is_not_stolen(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task = q.tasks[0]
    q._claim_path(task.task_id).write_text(
        json.dumps({"pid": os.getpid(), "host": __import__("socket").gethostname()})
    )
    assert q.claim() is None
    assert q.reclaimed == set()


def test_cross_host_claim_is_never_stale(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task = q.tasks[0]
    q._claim_path(task.task_id).write_text(
        json.dumps({"pid": 1, "host": "some-other-host"})
    )
    assert q.claim() is None


def test_claim_stats_each_done_marker_once(tmp_path, monkeypatch):
    """Done markers are never removed, so a drain must not re-``stat`` the
    finished tasks on every claim: O(N) ``is_done`` calls, not O(N^2)."""
    n = 40
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(n)])
    calls = []
    real = WorkQueue.is_done
    monkeypatch.setattr(
        WorkQueue, "is_done", lambda self, task_id: calls.append(task_id) or real(self, task_id)
    )
    result = run_queue_worker(q, run_fn=_fake_run)
    assert result.summary()["ok"] == n and q.drained
    # counts() once (2 per task), one per claim, drained once.
    assert len(calls) <= 5 * n


def test_claim_sees_tasks_another_worker_finished(tmp_path):
    """The done memo is per instance and only ever grows from the disk's
    truth: a second worker's completions are picked up, its live claims
    are re-examined on every claim."""
    q1 = WorkQueue.create(tmp_path / "q", [_config(1), _config(2)])
    q2 = WorkQueue.open(tmp_path / "q")
    first = q1.claim()
    assert q2.claim().task_id != first.task_id  # live claim skipped, not remembered
    q1.release(first.task_id)
    assert q2.claim().task_id == first.task_id  # ... so a released one is found
    q2.complete(first.task_id, results=1)
    assert q1.claim() is None and q1.is_done(first.task_id)


def test_counts(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in (1, 2, 3)])
    assert q.counts() == {"tasks": 3, "configs": 3, "done": 0, "claimed": 0, "pending": 3}
    t = q.claim()
    assert q.counts()["claimed"] == 1
    q.complete(t.task_id, results=1)
    c = q.counts()
    assert c["done"] == 1 and c["pending"] == 2
    assert not q.drained


# -- worker loop --------------------------------------------------------------------


def test_run_queue_worker_drains_and_persists(tmp_path):
    configs = [_config(s) for s in (1, 2, 3)]
    q = WorkQueue.create(tmp_path / "q", configs)
    store = ResultStore(tmp_path / "r.jsonl")
    seen = []
    result = run_queue_worker(
        q,
        store=store,
        run_fn=_fake_run,
        progress=lambda i, total, r: seen.append((i, total)),
    )
    assert result.summary()["ok"] == 3
    assert result.engine_runs == 3 and result.cache_hits == 0
    assert q.drained
    assert len(store.load()) == 3
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_run_queue_worker_uses_cache(tmp_path):
    configs = [_config(s) for s in (1, 2)]
    cache = ResultCache(tmp_path / "cache", worker="warmup")
    for cfg in configs:
        cache.put(_fake_run(cfg))
    cache.close()

    q = WorkQueue.create(tmp_path / "q", configs)
    calls = []

    def counting_run(cfg):
        calls.append(cfg.label())
        return _fake_run(cfg)

    worker_cache = ResultCache(tmp_path / "cache", worker="w1")
    result = run_queue_worker(q, cache=worker_cache, run_fn=counting_run)
    assert calls == []  # warm cache: zero engine invocations
    assert result.cache_hits == 2 and result.engine_runs == 0
    assert q.drained


def test_run_queue_worker_records_failures(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1), _config(2)])
    store = ResultStore(tmp_path / "r.jsonl")

    def flaky(cfg):
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return _fake_run(cfg)

    result = run_queue_worker(q, store=store, run_fn=flaky)
    assert result.summary()["ok"] == 1 and result.summary()["failed"] == 1
    assert q.drained  # failed tasks still complete (recorded, not retried forever)
    failures = (tmp_path / "r.failures.jsonl")
    assert failures.exists() and "boom" in failures.read_text()


def test_reclaimed_task_skips_persisted_configs(tmp_path):
    """After a SIGKILL the new owner re-runs only what the store lacks."""
    import socket

    configs = [_config(s) for s in (1, 2)]
    store = ResultStore(tmp_path / "r.jsonl")
    # The dead worker persisted seed 1, then died before complete().
    store.append(_fake_run(configs[0]))
    store.close()
    q = WorkQueue.create(tmp_path / "q", configs)
    for task in q.tasks:
        if task.configs[0]["seed"] == 1:
            q._claim_path(task.task_id).write_text(
                json.dumps({"pid": 2**22 - 1, "host": socket.gethostname()})
            )
    calls = []

    def counting_run(cfg):
        calls.append(cfg.seed)
        return _fake_run(cfg)

    result = run_queue_worker(q, store=ResultStore(tmp_path / "r.jsonl"), run_fn=counting_run)
    assert calls == [2]  # seed 1 recovered from the store, not recomputed
    assert q.drained
    rows = ResultStore(tmp_path / "r.jsonl").load()
    assert sorted(r.config["seed"] for r in rows) == [1, 2]  # no duplicate line
    assert result.summary()["ok"] == 2


def test_queue_task_roundtrip():
    t = QueueTask("abc", "one", [_config(1).to_dict()])
    assert QueueTask.from_dict(t.to_dict()) == t
