"""Unit tests for the filesystem work queue and its claim protocol."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.experiments import queue as queue_mod
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
from helpers import done_records, forge_claim


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
    forge_claim(tmp_path / "q", task.task_id, pid=dead_pid, host=socket.gethostname())
    claimed = q.claim()
    assert claimed is not None and claimed.task_id == task.task_id
    assert task.task_id in q.reclaimed


def test_live_claim_is_not_stolen(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task = q.tasks[0]
    forge_claim(tmp_path / "q", task.task_id, pid=os.getpid(), host=socket.gethostname())
    assert q.claim() is None
    assert q.reclaimed == set()


def test_cross_host_claim_is_never_stale(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task = q.tasks[0]
    forge_claim(tmp_path / "q", task.task_id, pid=1, host="some-other-host")
    assert q.claim() is None


def _journal_reads(monkeypatch, journal):
    """Count the bytes ``os.pread`` returns from ``journal``."""
    read = []
    real = os.pread

    def pread(fd, size, offset):
        data = real(fd, size, offset)
        if os.path.samestat(os.fstat(fd), os.stat(journal)):
            read.append(len(data))
        return data

    monkeypatch.setattr(os, "pread", pread)
    return read


def test_a_drain_is_linear_in_the_task_list(tmp_path, monkeypatch):
    """``claim()`` resumes its walk at the first task not known done and
    folds each journal byte once, so a drain costs O(N), not O(N^2): it
    visits at most 3 tasks per task and reads the journal exactly once."""
    n = 40
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(n)])
    visits = []

    class VisitCounting(set):
        def __contains__(self, task_id):
            visits.append(task_id)
            return super().__contains__(task_id)

    q.done = VisitCounting()
    read = _journal_reads(monkeypatch, q.journal)
    result = run_queue_worker(q, run_fn=_fake_run)
    assert result.summary()["ok"] == n
    assert len(visits) <= 3 * n
    assert q.drained
    assert sum(read) == q.journal.stat().st_size


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


def _sleepy_run(cfg):
    time.sleep(0.05)
    return _fake_run(cfg)


def test_a_two_lane_drain_holds_at_most_two_live_claims(tmp_path):
    """A task is claimed only when a lane is free, and a finished task's
    done record lands before the next claim."""
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(6)])
    result = run_queue_worker(q, run_fn=_sleepy_run, jobs=2)
    assert result.summary()["ok"] == 6 and q.drained
    live, most = set(), 0
    for line in q.journal.read_text().splitlines():
        record = json.loads(line)
        if record["op"] == "claim":
            live.add(record["task"])
        else:
            live.discard(record["task"])
        most = max(most, len(live))
    assert most == 2


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
    configs = [_config(s) for s in (1, 2)]
    store = ResultStore(tmp_path / "r.jsonl")
    # The dead worker persisted seed 1, then died before complete().
    store.append(_fake_run(configs[0]))
    store.close()
    q = WorkQueue.create(tmp_path / "q", configs)
    for task in q.tasks:
        if task.configs[0]["seed"] == 1:
            forge_claim(tmp_path / "q", task.task_id, pid=2**22 - 1, host=socket.gethostname())
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


def test_a_reclaim_recovers_only_rows_of_an_equal_config_and_each_once(tmp_path):
    """The dead owner's store holds seed 1 twice and a row of seed 2's cell
    at another duration (same label): seed 1 is recovered once, seed 2 runs."""
    configs = [_config(s) for s in (1, 2)]
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_fake_run(configs[0]))
    store.append(_fake_run(configs[0]))
    store.append(_fake_run(dataclasses.replace(configs[1], duration_s=3.0)))
    store.close()
    q = WorkQueue.create(tmp_path / "q", configs)
    for task in q.tasks:
        forge_claim(tmp_path / "q", task.task_id, pid=2**22 - 1, host=socket.gethostname())
    calls = []

    def counting_run(cfg):
        calls.append(cfg.seed)
        return _fake_run(cfg)

    result = run_queue_worker(q, store=ResultStore(tmp_path / "r.jsonl"), run_fn=counting_run)
    assert calls == [2]
    assert sorted((r.config["seed"], r.config["duration_s"]) for r in result) == [(1, 5.0), (2, 5.0)]
    assert q.drained and result.summary()["ok"] == 2


def test_queue_task_roundtrip():
    t = QueueTask("abc", "one", [_config(1).to_dict()])
    assert QueueTask.from_dict(t.to_dict()) == t


# -- durability contract ------------------------------------------------------------


def _fsyncs(monkeypatch):
    """Record the inode of every file ``os.fsync`` is called on."""
    synced = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd).st_ino) or real(fd))
    return synced


def _creations(monkeypatch, root):
    """Record every name created inside ``root`` by ``os.open``, ``io.open``
    (``Path.open``), ``os.link``, ``os.rename``, ``os.replace`` or ``os.mkdir``."""
    import io

    created = []

    def spy(module, name, target):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            path = args[target]
            new = not isinstance(path, int) and not os.path.lexists(path)
            out = real(*args, **kwargs)
            inside = os.fspath(path).startswith(os.path.join(root, ""))
            if new and inside and os.path.lexists(path):
                created.append(os.fspath(path))
            return out

        monkeypatch.setattr(module, name, wrapper)

    for module, name, target in ((os, "open", 0), (io, "open", 0), (os, "link", 1),
                                 (os, "rename", 1), (os, "replace", 1), (os, "mkdir", 0)):
        spy(module, name, target)
    return created


def test_a_drain_syncs_once_store_first_and_creates_no_file_per_task(tmp_path, monkeypatch):
    """A drain of 135 fast tasks, as in the ledger's ``grid_warm``: the task
    list's fsync, then one checkpoint at the end (store, then journal) — 3
    fsyncs, none per task — and no file created per task: the task list
    and the journal are all the queue directory holds."""
    n = 135
    monkeypatch.setattr(queue_mod, "monotonic", lambda: 0.0)  # a drain faster than a second
    synced = _fsyncs(monkeypatch)
    created = _creations(monkeypatch, tmp_path / "q")
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(n)])
    with ResultStore(tmp_path / "r.jsonl") as store:
        result = run_queue_worker(q, store=store, run_fn=_fake_run)
    assert result.summary()["ok"] == n and q.drained
    names = {os.stat(path).st_ino: name for name, path in (
        ("tasks", tmp_path / "q" / "tasks.jsonl"), ("store", store.path), ("journal", q.journal))}
    assert [names[ino] for ino in synced] == ["tasks", "store", "journal"]
    assert len(created) <= 3, created  # the task list's temp name, its link, the journal
    assert sorted(os.listdir(tmp_path / "q")) == ["journal.jsonl", "tasks.jsonl"]


def test_a_slow_drain_checkpoints_after_each_task_a_second_or_more_later(tmp_path, monkeypatch):
    clock = itertools.count()  # every look at the clock: one second later
    monkeypatch.setattr(queue_mod, "monotonic", lambda: float(next(clock)))
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in (1, 2, 3)])
    synced = _fsyncs(monkeypatch)
    with ResultStore(tmp_path / "r.jsonl") as store:
        run_queue_worker(q, store=store, run_fn=_fake_run)
    store_ino, journal_ino = store.path.stat().st_ino, q.journal.stat().st_ino
    assert synced == [store_ino, journal_ino] * 4  # after each of 3 tasks, and at the end


def test_result_store_sync_fsyncs_an_open_store_only(tmp_path, monkeypatch):
    synced = _fsyncs(monkeypatch)
    store = ResultStore(tmp_path / "r.jsonl")
    store.sync()  # nothing appended: no write handle yet
    assert synced == []
    store.append(_fake_run(_config(1)))
    store.sync()
    assert synced == [store.path.stat().st_ino]
    store.close()
    store.sync()
    assert len(synced) == 1


def _killed_after(queue_dir, store_path, k, checkpoints):
    """Drain, and SIGKILL this process when the engine is handed task k + 1.
    The clock is frozen, so no checkpoint comes first (each would be logged)."""
    queue_mod.monotonic = lambda: 0.0
    real = WorkQueue.checkpoint

    def logged(self, store=None):
        with checkpoints.open("a") as fh:
            fh.write("checkpoint\n")
        real(self, store)

    WorkQueue.checkpoint = logged
    calls = itertools.count(1)

    def run(cfg):
        if next(calls) > k:
            os.kill(os.getpid(), signal.SIGKILL)
        return _fake_run(cfg)

    with ResultStore(store_path) as store:
        run_queue_worker(WorkQueue.open(queue_dir), store=store, run_fn=run)


def test_done_records_outlive_a_sigkill_before_any_checkpoint(tmp_path):
    n, k = 6, 4
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(n)])
    checkpoints = tmp_path / "checkpoints.log"
    victim = multiprocessing.get_context("fork").Process(
        target=_killed_after, args=(tmp_path / "q", tmp_path / "r.jsonl", k, checkpoints))
    victim.start()
    victim.join(timeout=60)
    assert victim.exitcode == -signal.SIGKILL
    assert not checkpoints.exists()
    finished = {d["task"] for d in done_records(tmp_path / "q")}
    assert len(finished) == k and all(q.is_done(task_id) for task_id in finished)
    assert len(ResultStore(tmp_path / "r.jsonl").load()) == k

    calls = []

    def counting_run(cfg):
        calls.append(cfg.seed)
        return _fake_run(cfg)

    with ResultStore(tmp_path / "r.jsonl") as store:
        result = run_queue_worker(WorkQueue.open(tmp_path / "q"), store=store, run_fn=counting_run)
    done_seeds = {t.configs[0]["seed"] for t in q.tasks if t.task_id in finished}
    assert len(calls) == n - k and not done_seeds & set(calls)  # 0 engines for the k
    assert result.summary()["ok"] == n - k
    seeds = sorted(r.config["seed"] for r in ResultStore(tmp_path / "r.jsonl").load())
    assert seeds == list(range(n))


# -- a robust journal ---------------------------------------------------------------


def _torn(record: dict) -> bytes:
    """The first half of ``record``'s journal line: a writer killed mid-write."""
    line = json.dumps(record, sort_keys=True).encode()
    return line[: len(line) // 2]


def test_a_torn_claim_reads_as_never_made(tmp_path):
    q = WorkQueue.create(tmp_path / "q", [_config(1)])
    task_id = q.tasks[0].task_id
    fragment = _torn({"op": "claim", "task": task_id, "pid": 2**22 - 1, "host": "h"})
    q.journal.write_bytes(fragment)
    reader = WorkQueue.open(tmp_path / "q")
    assert reader.counts()["claimed"] == 0 and not reader.is_done(task_id)
    assert q.claim().task_id == task_id and q.reclaimed == set()
    # The appender ended the fragment's line first: every later reader
    # skips it and sees one claim, this process's.
    assert q.journal.read_bytes().startswith(fragment + b"\n")
    assert reader.counts()["claimed"] == 1
    assert WorkQueue.open(tmp_path / "q").claim() is None


def test_a_torn_done_record_reads_as_not_done_and_the_reclaim_recovers_its_rows(tmp_path):
    config = _config(1)
    with ResultStore(tmp_path / "r.jsonl") as store:
        store.append(_fake_run(config))
    q = WorkQueue.create(tmp_path / "q", [config])
    task_id = q.tasks[0].task_id
    forge_claim(tmp_path / "q", task_id, pid=2**22 - 1, host=socket.gethostname())
    with q.journal.open("ab") as fh:
        fh.write(_torn({"op": "done", "task": task_id, "results": 1, "failures": 0}))
    assert not q.is_done(task_id) and q.counts()["claimed"] == 1
    calls = []
    with ResultStore(tmp_path / "r.jsonl") as store:
        result = run_queue_worker(q, store=store, run_fn=lambda c: calls.append(c) or _fake_run(c))
    assert calls == [] and task_id in q.reclaimed
    assert (result.cache_hits, result.engine_runs, len(result)) == (1, 0, 1)
    assert done_records(tmp_path / "q") == [{"task": task_id, "results": 1, "failures": 0}]
    assert len(ResultStore(tmp_path / "r.jsonl").load()) == 1


def _drain_inherited(queue, call_log):
    """Drain a queue instance this forked child inherited.  Every
    ``os.write`` is slowed, so a lock the two children shared would let
    both claim one task."""
    real_write = os.write

    def slow_write(fd, data):
        time.sleep(0.02)
        return real_write(fd, data)

    os.write = slow_write

    def logged(cfg):
        with open(call_log, "a") as fh:
            fh.write(f"{cfg.seed}\n")
        return _fake_run(cfg)

    run_queue_worker(queue, run_fn=logged)


def test_forked_children_draining_one_inherited_instance_exclude_each_other(tmp_path):
    n = 8
    q = WorkQueue.create(tmp_path / "q", [_config(s) for s in range(n)])
    assert q.counts()["pending"] == n  # the parent has used the journal before forking
    call_log = tmp_path / "calls.log"
    ctx = multiprocessing.get_context("fork")
    children = [ctx.Process(target=_drain_inherited, args=(q, call_log)) for _ in range(2)]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=60)
        assert child.exitcode == 0
    assert sorted(int(seed) for seed in call_log.read_text().split()) == list(range(n))
    assert WorkQueue.open(tmp_path / "q").drained


def test_a_queue_in_the_old_layout_is_refused(tmp_path):
    """A queue directory with ``claims/`` or ``done/`` is in the layout
    before the journal: joining it would redo the work its files record."""
    configs = [_config(1)]
    WorkQueue.create(tmp_path / "q", configs)
    for old in ("claims", "done"):
        (tmp_path / "q" / old).mkdir()
        for join in (lambda: WorkQueue.open(tmp_path / "q"),
                     lambda: WorkQueue.create(tmp_path / "q", configs)):
            with pytest.raises(ValueError, match=r"old claims/ and done/ layout: finish it "
                               r"with the previous version, or use a fresh directory"):
                join()
        (tmp_path / "q" / old).rmdir()
    assert WorkQueue.open(tmp_path / "q").counts()["pending"] == 1
