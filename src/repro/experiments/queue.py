"""Filesystem work queue: N campaign processes pull shards safely.

The queue turns a config list into durable *tasks* that any number of
worker processes — on one host or on many sharing a filesystem — can
drain concurrently without coordination beyond atomic file creation:

    <queue>/
        tasks.jsonl        # the frozen task list (written once, atomically)
        claims/<id>.json   # O_CREAT|O_EXCL claim marker: exactly one winner
        done/<id>.json     # completion marker, written after results persist

A *task* is the unit every campaign transport carries
(:func:`repro.experiments.campaign.plan_tasks`): one config
(``kind="one"``) or a whole batched-fluid lock-step shard
(``kind="shard"``) that advances as one stacked integration.  Task ids
are content addresses of the member configs, so re-creating a queue from
the same config list resumes it instead of duplicating work.

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
shard.  On reclaim, a worker recovers the rows the task's dead owner
already persisted from the store and re-runs **only the incomplete
configs** — together with the store's torn-write repair this makes
SIGKILL-at-any-instant resumable.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignResult,
    QueueTask,
    _recorder,
    plan_tasks,
    run_task,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.storage import ResultStore

PathLike = Union[str, Path]


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
    """Queue transport: drain tasks from ``queue`` until none are claimable.

    The existing campaign pool becomes "one consumer": any number of
    processes may run this against the same queue/store/cache root and
    the claim protocol keeps their work disjoint.  Every task, ``one`` or
    ``shard``, takes the same sequence: rows the dead owner of a
    *reclaimed* task (SIGKILLed mid-task) already persisted are recovered
    from the store — returned and counted as hits, not re-appended; of
    the rest, a cache hit skips the engine; what is left runs through
    :func:`~repro.experiments.campaign.run_task` (``run_fn`` standing in
    for the engine of ``one`` tasks, a seam for tests), each result
    streaming into the shared store and this worker's cache shard; and
    only then is the task marked done.
    """
    done = CampaignResult()
    record, record_outcomes = _recorder(
        done, queue.counts()["configs"], store=store, cache=cache,
        progress=progress, on_failure=on_failure,
    )

    def engine(payload: tuple) -> dict:
        return {"ok": (run_fn or run_experiment)(ExperimentConfig.from_dict(payload[0])).to_dict()}

    while (task := queue.claim()) is not None:
        ok_before, failed_before = len(done), len(done.failures)
        left = [ExperimentConfig.from_dict(d) for d in task.configs]
        if task.task_id in queue.reclaimed and store is not None:
            found: List[tuple] = []
            store.completed_labels({c.label() for c in left}, found)
            stored = {label: (result, row) for label, result, row in found}
            for result, row in stored.values():
                # Absent from the cache if the owner died between the two
                # appends, so this is put there (a no-op when it is not).
                record(result, row, in_store=True)
            left = [c for c in left if c.label() not in stored]
        if cache is not None:
            hits, left = cache.split(left)
            for hit, row, line in hits:
                record(hit, row, line, from_cache=True)
        done.cache_hits += len(done) - ok_before
        done.engine_runs += len(left)
        if left:
            record_outcomes(run_task(task.kind, [c.to_dict() for c in left], worker_fn=engine))
        queue.complete(
            task.task_id,
            results=len(done) - ok_before,
            failures=len(done.failures) - failed_before,
        )
    return done
