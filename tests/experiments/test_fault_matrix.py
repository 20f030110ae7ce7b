"""Fault matrix over the executor protocol: task -> run_task -> outcome -> record.

One oracle for every transport: {config raises, shard raises, worker dies,
worker dies holding a shard, worker hangs} x {inline, workers, workers
with a watchdog deadline} x {the planned list, a work queue}, over each
combination that transport can experience (a hang needs ``timeout_s``, so
watchdog only; a death needs a worker process to lose; a hardened sweep
never carries a shard, but a queue's tasks are frozen shards either way).
Every cell must leave the *same recorded outcome*: the same ``FailedRun``
rows (modulo traceback text), one ``failures.jsonl`` line per failed
config, a store holding exactly the successes, byte for byte, an engine
handed each config exactly once, and a second pass that re-runs exactly
the failed configs.

Faults are injected at the engine entry points the transports look up at
call time, so the same fault reaches every transport; the hardened workers
and the queue drain also take it through their own seams (``worker_fn``,
the chaos tests' way in, and ``run_fn``, the queue tests').  Each cell runs in
a forked child under a hard deadline: a transport that hangs fails its
cell instead of hanging pytest.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import socket
import time
import traceback

import pytest
from helpers import done_records, forge_claim

from repro.experiments import campaign, queue as queue_mod, runner
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import failures_path, run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.queue import WorkQueue, run_queue_worker
from repro.experiments.storage import ResultStore
from repro.fluid import batched
from repro.units import mbps

BAD_SEED = 702
HANG_TIMEOUT_S = 2.0
CELL_DEADLINE_S = 45.0


def _config(seed, engine="fluid", duration_s=5.0):
    return ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        bottleneck_bw_bps=mbps(100),
        duration_s=duration_s,
        engine=engine,
        seed=seed,
    )


def _singles():
    return [_config(s) for s in (700, 701, BAD_SEED, 703)]


def _two_shards():
    """A three-config shard holding the bad seed, and a two-config one."""
    return [_config(s, "fluid_batched") for s in (701, BAD_SEED, 703)] + [
        _config(s, "fluid_batched", duration_s=4.0) for s in (710, 711)
    ]


def _shard_of_two():
    """A two-config shard holding the bad seed, and a three-config one."""
    return [_config(s, "fluid_batched") for s in (701, BAD_SEED)] + [
        _config(s, "fluid_batched", duration_s=4.0) for s in (710, 711, 712)
    ]


#: fault -> what a batched-fluid run does on the bad seed
SHARD_FAULTS = {"shard raises": "raises", "shard dies": "dies"}


# -- fault injection ----------------------------------------------------------------


def _strike(fault, config, armed):
    if config.seed != BAD_SEED or not armed.exists():
        return
    if fault == "raises":
        raise RuntimeError("injected fault")
    if fault == "dies":
        os._exit(9)
    if fault == "hangs":
        time.sleep(600)


def _inject(monkeypatch, fault, tmp_path):
    """Patch the engine entry points: log every config an engine is handed
    (one O_APPEND line each, so the count holds across processes), strike
    on the bad seed while ``armed`` exists, and zero ``wallclock_s`` — the
    one field that differs between two runs of a config — so stores compare
    byte for byte."""
    real_run, real_batch = runner.run_experiment, batched.run_fluid_batch
    log, armed = tmp_path / "engine.log", tmp_path / "armed"
    armed.touch()

    def logged(configs):
        with open(log, "a") as fh:
            fh.writelines(c.label() + "\n" for c in configs)

    def run_experiment(config, telemetry=None):
        logged([config])
        _strike(fault, config, armed)
        return dataclasses.replace(real_run(config, telemetry), wallclock_s=0.0)

    def run_fluid_batch(configs):
        logged(configs)
        for config in configs:
            _strike(SHARD_FAULTS.get(fault), config, armed)
        return [dataclasses.replace(r, wallclock_s=0.0) for r in real_batch(configs)]

    monkeypatch.setattr(campaign, "run_experiment", run_experiment)
    monkeypatch.setattr(queue_mod, "run_experiment", run_experiment)
    monkeypatch.setattr(batched, "run_fluid_batch", run_fluid_batch)


def _through_worker_fn(payload):
    """The ``worker_fn`` seam: the patched engine, in the seam's own terms."""
    config = ExperimentConfig.from_dict(payload[0])
    return {"ok": campaign.run_experiment(config).to_dict()}


# -- transports ---------------------------------------------------------------------


def _queue(configs, store, cache, qdir, **kwargs):
    return run_queue_worker(WorkQueue.create(qdir, configs), store=store, cache=cache, **kwargs)


TRANSPORTS = {
    "inline": lambda configs, store, cache, qdir: run_campaign(
        configs, store=store, cache=cache, jobs=1),
    "workers": lambda configs, store, cache, qdir: run_campaign(
        configs, store=store, cache=cache, jobs=2),
    "watchdog": lambda configs, store, cache, qdir: run_campaign(
        configs, store=store, cache=cache, jobs=2, timeout_s=HANG_TIMEOUT_S),
    "watchdog-worker_fn": lambda configs, store, cache, qdir: run_campaign(
        configs, store=store, cache=cache, jobs=2, timeout_s=HANG_TIMEOUT_S,
        worker_fn=_through_worker_fn),
    "queue": _queue,
    "queue-run_fn": lambda configs, store, cache, qdir: _queue(
        configs, store, cache, qdir, run_fn=lambda c: campaign.run_experiment(c)),
    "queue-workers": lambda configs, store, cache, qdir: _queue(
        configs, store, cache, qdir, jobs=2),
    "queue-watchdog": lambda configs, store, cache, qdir: _queue(
        configs, store, cache, qdir, jobs=2, timeout_s=HANG_TIMEOUT_S),
}

#: fault -> (configs, transports that can experience it, kind and error recorded)
FAULTS = {
    "raises": (_singles, sorted(TRANSPORTS), "error", "RuntimeError('injected fault')"),
    "shard raises": (_two_shards, ["inline", "workers", "queue", "queue-workers",
                                   "queue-watchdog"], "error", "RuntimeError('injected fault')"),
    "dies": (_singles, ["workers", "watchdog", "watchdog-worker_fn", "queue-workers",
                        "queue-watchdog"], "crash", "worker died without reporting (exitcode 9)"),
    "shard dies": (_shard_of_two, ["workers", "queue-workers", "queue-watchdog"], "crash",
                   "worker died without reporting (exitcode 9)"),
    "hangs": (_singles, ["watchdog", "watchdog-worker_fn", "queue-watchdog"], "timeout",
              f"run exceeded the {HANG_TIMEOUT_S:g}s wall-clock timeout "
              "and was killed by the watchdog"),
}
CELLS = [(fault, transport) for fault, spec in FAULTS.items() for transport in spec[1]]


def _bounded(fn, *args):
    """``fn(*args)`` in a forked child (its own process group, so a hung
    cell's workers die with it), failing the test past the deadline."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def body():
        os.setsid()
        try:
            send.send((True, fn(*args)))
        except BaseException:
            send.send((False, traceback.format_exc()))

    child = ctx.Process(target=body)
    child.start()
    try:
        if not recv.poll(CELL_DEADLINE_S):
            pytest.fail(f"still running after {CELL_DEADLINE_S:g}s: the transport hangs")
        ok, value = recv.recv()
        child.join(CELL_DEADLINE_S)
    finally:
        if child.is_alive():
            os.killpg(child.pid, signal.SIGKILL)
            child.join()
    assert ok, value
    return value


def _two_passes(transport, configs, tmp_path):
    """The sweep under the fault, then the same sweep with the fault gone
    (resumed from the store by the campaign, answered from the cache by a
    re-created queue).  Per pass: the summary, the configs engines were
    handed, and the store and failure lines on disk afterwards."""
    sweep = TRANSPORTS[transport]
    log = tmp_path / "engine.log"
    passes = []
    for name in ("first", "second"):
        log.write_text("")
        with ResultStore(tmp_path / "r.jsonl") as store, \
                ResultCache(tmp_path / "cache", worker=name) as cache:
            outcome = sweep(configs, store, cache, tmp_path / f"queue-{name}")
        passes.append({
            "summary": outcome.summary(),
            "ran": sorted(log.read_text().splitlines()),
            "store": sorted(store.path.read_text().splitlines()),
            "failures": failures_path(store).read_text().splitlines(),
        })
        (tmp_path / "armed").unlink(missing_ok=True)
    return passes


@pytest.mark.parametrize("fault,transport", CELLS)
def test_every_transport_records_the_same_outcome(tmp_path, monkeypatch, fault, transport):
    make_configs, _, kind, error = FAULTS[fault]
    configs = make_configs()
    if fault in SHARD_FAULTS:
        failed = [c for c in configs if c.duration_s == 5.0]  # every member of the shard
    else:
        failed = [c for c in configs if c.seed == BAD_SEED]
    survivors = [c for c in configs if c not in failed]

    def stored(members):
        return sorted(
            json.dumps(dataclasses.replace(runner.run_experiment(c), wallclock_s=0.0).to_dict(),
                       sort_keys=True)
            for c in members
        )

    want_failures = sorted(
        ({"config": c.to_dict(), "label": c.label(), "error": error, "kind": kind,
          "attempts": 1} for c in failed),
        key=lambda row: row["label"],
    )
    want_store, want_full_store = stored(survivors), stored(configs)

    _inject(monkeypatch, fault, tmp_path)
    first, second = _bounded(_two_passes, transport, configs, tmp_path)

    assert first["summary"] == {"ok": len(survivors), "failed": len(failed),
                                "retried": 0, "total": len(configs)}
    assert first["store"] == want_store
    rows = [json.loads(line) for line in first["failures"]]
    assert all(("Traceback" in row.pop("traceback")) == (kind == "error") for row in rows)
    assert sorted(rows, key=lambda row: row["label"]) == want_failures
    assert first["ran"] == sorted(c.label() for c in configs)

    assert second["summary"] == {"ok": len(configs), "failed": 0, "retried": 0,
                                 "total": len(configs)}
    assert second["ran"] == sorted(c.label() for c in failed)
    assert sorted(set(second["store"])) == want_full_store
    if not transport.startswith("queue"):
        # (a re-created queue replays its cache hits into the store it is given)
        assert len(second["store"]) == len(configs)
    assert second["failures"] == first["failures"]


@pytest.mark.parametrize("engine,kind", [("fluid", "one"), ("fluid_batched", "shard")])
def test_reclaimed_task_recovers_the_rows_its_dead_owner_persisted(tmp_path, monkeypatch,
                                                                   engine, kind):
    """The queue's own fault: the owner of a task is SIGKILLed after one of
    its rows reached the store.  Whatever the task's kind, the next worker
    returns and counts that row, runs an engine for the rest only, and the
    done record counts all of them."""
    configs = [_config(s, engine) for s in (720, 721, 722)]
    _inject(monkeypatch, None, tmp_path)
    with ResultStore(tmp_path / "r.jsonl") as store:
        store.append(dataclasses.replace(runner.run_experiment(configs[1]), wallclock_s=0.0))
    queue = WorkQueue.create(tmp_path / "q", configs)
    assert {t.kind for t in queue.tasks} == {kind}
    for task in queue.tasks:  # every claim forged: owner dead, same host
        forge_claim(tmp_path / "q", task.task_id, pid=2**22 - 1, host=socket.gethostname())

    seen = []
    with ResultStore(tmp_path / "r.jsonl") as store:
        outcome = run_queue_worker(
            queue, store=store, progress=lambda i, total, r: seen.append((i, total))
        )
    assert outcome.summary() == {"ok": 3, "failed": 0, "retried": 0, "total": 3}
    assert (outcome.cache_hits, outcome.engine_runs) == (1, 2)
    assert seen == [(1, 3), (2, 3), (3, 3)]
    ran = sorted((tmp_path / "engine.log").read_text().splitlines())
    assert ran == sorted(c.label() for c in (configs[0], configs[2]))
    stored = [r.config["seed"] for r in ResultStore(tmp_path / "r.jsonl").load()]
    assert sorted(stored) == [720, 721, 722]  # three lines, no duplicate
    done = done_records(tmp_path / "q")
    assert sum(d["results"] for d in done) == 3 and not any(d["failures"] for d in done)
