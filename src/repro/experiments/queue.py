"""Filesystem work queue: N campaign processes pull shards safely.

The queue turns a config list into durable *tasks* that any number of
worker processes — on one host or on many sharing a filesystem — can
drain concurrently without coordination beyond atomic file creation:

    <queue>/
        tasks.jsonl        # the frozen task list (written once, atomically)
        claims/<id>.json   # O_CREAT|O_EXCL claim marker: exactly one winner
        done/<id>.json     # completion marker, written after results persist

A *task* is either one config (``kind="one"``) or a whole batched-fluid
lock-step shard (``kind="shard"``, planned by
:func:`repro.fluid.state.plan_shards`) that advances as one stacked
integration.  Task ids are content addresses of the member configs, so
re-creating a queue from the same config list resumes it instead of
duplicating work.

Claim protocol
--------------

- ``claim()`` walks the task list; for each task not yet done it tries
  to create ``claims/<id>.json`` with ``O_CREAT | O_EXCL`` — the
  filesystem guarantees exactly one process wins.
- A claim whose owner process is dead (same host, ``os.kill(pid, 0)``
  fails) and whose task has no done marker is *stale* — the worker was
  SIGKILLed mid-shard.  Reclaim races through ``os.rename`` of the stale
  claim (again: exactly one winner), then a fresh claim is created.
- ``complete()`` writes the done marker only after every result of the
  task has been flushed to the store, so a crash loses at most the
  in-flight task, never a completed one.

Workers stream results into a shared :class:`ResultStore` (line-atomic
O_APPEND) and their own :class:`~repro.experiments.cache.ResultCache`
shard.  On reclaim, a worker consults the store for the task's already-
persisted labels and re-runs **only the incomplete configs** — together
with the store's torn-write repair this makes SIGKILL-at-any-instant
resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignResult,
    FailedRun,
    _recorder,
    _run_batched_shard_safe,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult

PathLike = Union[str, Path]


@dataclass
class QueueTask:
    """One durable unit of work: a config, or a batched-fluid shard."""

    task_id: str
    kind: str  # "one" | "shard"
    configs: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, one ``tasks.jsonl`` line."""
        return {"task_id": self.task_id, "kind": self.kind, "configs": self.configs}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "QueueTask":
        """Rebuild a task from its :meth:`to_dict` form."""
        return cls(task_id=d["task_id"], kind=d["kind"], configs=d["configs"])


def task_id_for(config_dicts: Sequence[Dict[str, Any]]) -> str:
    """Content address of a task: hash of its member config dicts."""
    blob = json.dumps(list(config_dicts), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def plan_tasks(configs: Sequence[ExperimentConfig]) -> List[QueueTask]:
    """Shard a config list into queue tasks.

    ``fluid_batched`` configs group into lock-step shards (one stacked
    integration per task); everything else becomes one task per config.
    """
    batched = [c for c in configs if c.engine == "fluid_batched"]
    singles = [c for c in configs if c.engine != "fluid_batched"]
    tasks: List[QueueTask] = []
    if batched:
        from repro.fluid.state import plan_shards

        for shard in plan_shards(batched):
            dicts = [batched[i].to_dict() for i in shard]
            tasks.append(QueueTask(task_id_for(dicts), "shard", dicts))
    for cfg in singles:
        dicts = [cfg.to_dict()]
        tasks.append(QueueTask(task_id_for(dicts), "one", dicts))
    return tasks


class WorkQueue:
    """A durable task list plus the claim/done protocol over one directory."""

    def __init__(self, path: PathLike, tasks: List[QueueTask]):
        self.path = Path(path)
        self.claims_dir = self.path / "claims"
        self.done_dir = self.path / "done"
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.done_dir.mkdir(parents=True, exist_ok=True)
        self.tasks = tasks
        #: Tasks this instance reclaimed from a dead owner (for store dedup).
        self.reclaimed: set = set()
        #: Tasks this instance has seen done.  Done markers are never
        #: removed, so :meth:`claim` skips these without another ``stat``.
        self._seen_done: set = set()

    # -- construction -------------------------------------------------------------

    @classmethod
    def create(
        cls, path: PathLike, configs: Sequence[ExperimentConfig]
    ) -> "WorkQueue":
        """Create a queue from ``configs``, or *join* an identical one.

        The task list is written atomically exactly once; a second
        process calling ``create`` with the same configs joins the
        existing queue.  Joining with a *different* task set raises — a
        queue directory holds one frozen sweep.
        """
        path = Path(path)
        tasks = plan_tasks(configs)
        tasks_file = path / "tasks.jsonl"
        if not tasks_file.exists():
            path.mkdir(parents=True, exist_ok=True)
            tmp = tasks_file.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("w", encoding="utf-8") as fh:
                for task in tasks:
                    fh.write(json.dumps(task.to_dict(), sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            try:
                # Atomic publish: link() fails if another creator already
                # won the race, and the join-and-verify path below then
                # checks we agree on the task set.
                os.link(tmp, tasks_file)
            except FileExistsError:
                pass
            finally:
                tmp.unlink(missing_ok=True)
        queue = cls.open(path)
        if {t.task_id for t in queue.tasks} != {t.task_id for t in tasks}:
            raise ValueError(
                f"{tasks_file} holds a different task set — a queue "
                "directory is one frozen sweep; use a fresh directory"
            )
        return queue

    @classmethod
    def open(cls, path: PathLike) -> "WorkQueue":
        """Join an existing queue directory."""
        path = Path(path)
        tasks_file = path / "tasks.jsonl"
        if not tasks_file.exists():
            raise FileNotFoundError(f"no task list at {tasks_file}")
        tasks = []
        with tasks_file.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    tasks.append(QueueTask.from_dict(json.loads(line)))
        return cls(path, tasks)

    # -- claim / complete ---------------------------------------------------------

    def _claim_path(self, task_id: str) -> Path:
        return self.claims_dir / f"{task_id}.json"

    def _done_path(self, task_id: str) -> Path:
        return self.done_dir / f"{task_id}.json"

    def is_done(self, task_id: str) -> bool:
        """True once the task's done marker exists (results persisted)."""
        return self._done_path(task_id).exists()

    def _try_claim(self, task_id: str) -> bool:
        """Atomically create the claim marker; False if somebody holds it."""
        try:
            fd = os.open(
                self._claim_path(task_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(
                {"pid": os.getpid(), "host": socket.gethostname()},
                fh,
                sort_keys=True,
            )
        return True

    def _claim_is_stale(self, task_id: str) -> bool:
        """A claim with a dead same-host owner and no done marker."""
        try:
            with self._claim_path(task_id).open("r", encoding="utf-8") as fh:
                claim = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False  # mid-write or already reclaimed: not ours to judge
        if claim.get("host") != socket.gethostname():
            return False  # cross-host liveness is unknowable from here
        pid = claim.get("pid")
        if not isinstance(pid, int):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False  # alive, owned by someone else
        return False

    def _try_reclaim(self, task_id: str) -> bool:
        """Steal a stale claim; exactly one contender wins the rename."""
        stale = self._claim_path(task_id)
        tombstone = self.claims_dir / f"{task_id}.stale.{os.getpid()}"
        try:
            os.rename(stale, tombstone)
        except OSError:
            return False
        return self._try_claim(task_id)

    def claim(self) -> Optional[QueueTask]:
        """Claim the next available task, or None when nothing is claimable.

        None does not mean *drained*: other workers may still hold live
        claims.  Check :meth:`drained` / :meth:`counts` for completion.
        """
        for task in self.tasks:
            if task.task_id in self._seen_done:
                continue
            if self.is_done(task.task_id):
                self._seen_done.add(task.task_id)
                continue
            if self._try_claim(task.task_id):
                return task
            if self._claim_is_stale(task.task_id) and self._try_reclaim(task.task_id):
                self.reclaimed.add(task.task_id)
                return task
        return None

    def complete(self, task_id: str, *, results: int = 0, failures: int = 0) -> None:
        """Mark a task done (idempotent); call only after results persist."""
        tmp = self._done_path(task_id).with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump({"results": results, "failures": failures}, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._done_path(task_id))
        self._seen_done.add(task_id)

    def release(self, task_id: str) -> None:
        """Drop this worker's claim so another worker can take the task."""
        self._claim_path(task_id).unlink(missing_ok=True)

    # -- accounting ---------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True when every task has a done marker."""
        return all(self.is_done(t.task_id) for t in self.tasks)

    def counts(self) -> Dict[str, int]:
        """Task-level progress: total / done / claimed / pending."""
        done = sum(1 for t in self.tasks if self.is_done(t.task_id))
        claimed = sum(
            1
            for t in self.tasks
            if not self.is_done(t.task_id) and self._claim_path(t.task_id).exists()
        )
        return {
            "tasks": len(self.tasks),
            "configs": sum(len(t.configs) for t in self.tasks),
            "done": done,
            "claimed": claimed,
            "pending": len(self.tasks) - done - claimed,
        }

    def __iter__(self) -> Iterator[QueueTask]:
        return iter(self.tasks)


def run_queue_worker(
    queue: WorkQueue,
    *,
    store: Optional[ResultStore] = None,
    cache: Optional[ResultCache] = None,
    progress=None,
    on_failure=None,
    run_fn=None,
) -> CampaignResult:
    """Drain tasks from ``queue`` until none are claimable.

    The existing campaign pool becomes "one consumer": any number of
    processes may run this against the same queue/store/cache root and
    the claim protocol keeps their work disjoint.  Per config: a cache
    hit skips the engine entirely; otherwise the engine runs (``run_fn``
    seam for tests), the result streams into the shared store and this
    worker's cache shard, and only then is the task marked done.

    On a *reclaimed* task (previous owner SIGKILLed mid-shard) the store
    is consulted first and configs whose labels already persisted are
    not re-appended — re-run covers only the incomplete configs.
    """
    run_fn = run_fn or run_experiment
    done = CampaignResult()
    record, record_failure = _recorder(
        done, queue.counts()["configs"], store=store, cache=cache,
        progress=progress, on_failure=on_failure,
    )

    while True:
        task = queue.claim()
        if task is None:
            break
        configs = [ExperimentConfig.from_dict(d) for d in task.configs]
        #: label -> (result, row) the dead owner of a reclaimed task persisted.
        stored: Dict[str, tuple] = {}
        if task.task_id in queue.reclaimed and store is not None:
            found: List[tuple] = []
            store.completed_labels({c.label() for c in configs}, found)
            stored = {label: (result, row) for label, result, row in found}
        results = 0
        failures = 0
        if task.kind == "shard":
            fresh = [c for c in configs if c.label() not in stored]
            cached, fresh = cache.split(fresh) if cache is not None else ([], fresh)
            for hit, row in cached:
                done.cache_hits += 1
                record(hit, row, from_cache=True)
                results += 1
            if fresh:
                for tagged in _run_batched_shard_safe([c.to_dict() for c in fresh])["many"]:
                    done.engine_runs += 1
                    if "ok" in tagged:
                        record(ExperimentResult.from_dict(tagged["ok"]), tagged["ok"])
                        results += 1
                    else:
                        record_failure(FailedRun.from_dict(tagged["err"]))
                        failures += 1
        else:
            for cfg, config_dict in zip(configs, task.configs):
                label = cfg.label()
                in_store = label in stored
                served = cache.split([cfg])[0] if cache is not None else []
                if served or in_store:
                    done.cache_hits += 1
                    if served:
                        record(*served[0], from_cache=True, in_store=in_store)
                    else:
                        # Persisted by the dead owner but absent from the
                        # cache (crash between the two appends): recover
                        # the stored row instead of recomputing.
                        record(*stored[label], in_store=True)
                    results += 1
                    continue
                try:
                    result = run_fn(cfg)
                except Exception as exc:
                    done.engine_runs += 1
                    record_failure(
                        FailedRun(
                            config=config_dict,
                            label=label,
                            error=repr(exc),
                            traceback=_traceback.format_exc(),
                        )
                    )
                    failures += 1
                    continue
                done.engine_runs += 1
                record(result)
                results += 1
        queue.complete(task.task_id, results=results, failures=failures)
    return done
