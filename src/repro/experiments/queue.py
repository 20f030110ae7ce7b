"""Filesystem work queue: N campaign processes pull shards safely.

The queue turns a config list into durable *tasks* that any number of
worker processes — on one host or on many sharing a filesystem — drain
concurrently, coordinated by one append-only journal:

    <queue>/
        tasks.jsonl        # the frozen task list (written once, atomically)
        journal.jsonl      # claim / release / done records, one JSON line each

A *task* (:func:`repro.experiments.campaign.plan_tasks`) is one config or
a batched-fluid lock-step shard; its id is a content address of its
configs, so re-creating a queue from the same configs resumes it.

Every append happens under an exclusive ``flock`` on the journal, after
folding in what other workers appended since this instance last looked:
the lock decides who wins a task.  ``claim()`` takes the first task not
done and unclaimed or *stale* (its owner a same-host pid that
``os.kill(pid, 0)`` reports dead); ``complete()`` appends the done record
once the task's results are in the store.  A checkpoint fsyncs the store,
then the journal, so a done record that survives a power loss implies its
rows did.  On reclaim, a worker recovers the rows the dead owner already
persisted from the store and re-runs only the rest.  docs/SERVICE.md, "The
work queue", states the protocol and the durability contract in full.

:func:`run_queue_worker` drains the queue as a task source of the campaign
driver, inline or on supervised worker processes, like ``run_campaign``.
"""

from __future__ import annotations

import json
import os
import socket
from contextlib import contextmanager
from pathlib import Path
from time import monotonic
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignResult, QueueTask, TaskSource, _recorder, _supervise, plan_tasks,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.storage import ResultStore, _flock
from repro.obs.spans import NULL_SPAN_TRACER

PathLike = Union[str, Path]

#: Seconds between the durability checkpoints of a draining worker.
CHECKPOINT_S = 1.0


def _is_stale(owner: Tuple[int, str], host: str) -> bool:
    """True for a claim held by a dead process on this host."""
    pid, owner_host = owner
    if owner_host == host and isinstance(pid, int):  # else: unknowable from here
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            pass  # alive, owned by someone else
    return False


class WorkQueue:
    """A durable task list plus the claim/done journal over one directory."""

    def __init__(self, path: PathLike, tasks: List[QueueTask]):
        self.path = Path(path)
        self.journal = self.path / "journal.jsonl"
        self.tasks = tasks
        #: Tasks this instance reclaimed from a dead owner (for store dedup).
        self.reclaimed: set = set()
        #: The journal so far: finished tasks, each claimed one's (pid, host).
        self.done: set = set()
        self.owners: Dict[str, Tuple[int, str]] = {}
        self._offset = 0  # journal bytes folded into the two above
        self._first = 0  # tasks before this index are all done

    # -- construction -------------------------------------------------------------

    @classmethod
    def create(cls, path: PathLike, configs: Sequence[ExperimentConfig]) -> "WorkQueue":
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
                fh.writelines(json.dumps(t.to_dict(), sort_keys=True) + "\n" for t in tasks)
                fh.flush()
                os.fsync(fh.fileno())
            try:
                # Atomic publish: link() fails if another creator won the race;
                # the join-and-verify path below checks we agree on the tasks.
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
        if (path / "claims").is_dir() or (path / "done").is_dir():
            raise ValueError(
                f"{path} is a queue in the old claims/ and done/ layout: finish it with the "
                "previous version, or use a fresh directory (the store keeps the rows)"
            )
        with tasks_file.open("r", encoding="utf-8") as fh:
            return cls(path, [QueueTask.from_dict(json.loads(ln)) for ln in fh if ln.strip()])

    def _fold(self, fd: int) -> bool:
        """Fold the complete records appended since the last look; True
        when a newline-less fragment follows them (torn, or in flight)."""
        data = os.pread(fd, max(os.fstat(fd).st_size - self._offset, 0), self._offset)
        end = data.rfind(b"\n") + 1
        for line in data[:end].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn record, terminated by a later appender
            task, op = record["task"], record["op"]
            if op == "claim":
                self.owners[task] = (record["pid"], record["host"])
            else:
                self.owners.pop(task, None)
                if op == "done":
                    self.done.add(task)
        self._offset += end
        return end < len(data)

    @contextmanager
    def _journal(self, flags: int = os.O_RDONLY | os.O_CREAT) -> Iterator[int]:
        """The journal, opened per operation: a forked child locks it apart from its parent."""
        fd = os.open(self.journal, flags, 0o644)
        try:
            yield fd
        finally:
            os.close(fd)  # and with it any lock taken through it

    def _refresh(self) -> None:
        """Catch up with the journal without taking its lock."""
        with self._journal() as fd:
            self._fold(fd)

    @contextmanager
    def _appending(self) -> Iterator:
        """Hold the journal's lock, caught up; yields ``append(**record)``: one
        ``os.write`` of its line, after a newline ending a dead writer's fragment."""
        with self._journal(os.O_RDWR | os.O_APPEND | os.O_CREAT) as fd:
            _flock(fd, "LOCK_EX")
            torn = self._fold(fd)
            yield lambda **record: os.write(
                fd, b"\n" * torn + json.dumps(record, sort_keys=True).encode() + b"\n")

    # -- claim / complete ---------------------------------------------------------

    def is_done(self, task_id: str) -> bool:
        """True once the task's done record is in the journal."""
        self._refresh()
        return task_id in self.done

    def claim(self) -> Optional[QueueTask]:
        """Claim the next available task, or None when nothing is claimable.

        None does not mean *drained*: other workers may still hold live
        claims.  Check :meth:`drained` / :meth:`counts` for completion.
        """
        host = socket.gethostname()
        with self._appending() as append:
            for i in range(self._first, len(self.tasks)):
                task_id = self.tasks[i].task_id
                if task_id in self.done:
                    if i == self._first:
                        self._first += 1
                    continue
                owner = self.owners.get(task_id)
                if owner is not None:
                    if not _is_stale(owner, host):
                        continue
                    self.reclaimed.add(task_id)
                append(op="claim", task=task_id, pid=os.getpid(), host=host)
                return self.tasks[i]
        return None

    def complete(self, task_id: str, *, results: int = 0, failures: int = 0) -> None:
        """Mark a task done (idempotent); call only after results persist."""
        with self._appending() as append:
            if task_id not in self.done:
                append(op="done", task=task_id, results=results, failures=failures)

    def release(self, task_id: str) -> None:
        """Drop this worker's claim so another worker can take the task."""
        with self._appending() as append:
            append(op="release", task=task_id)

    def checkpoint(self, store: Optional[ResultStore] = None) -> None:
        """Make what was appended so far survive a power loss: ``store``'s
        rows first, then the journal, so a done record on disk implies
        its rows are."""
        if store is not None:
            store.sync()
        with self._journal() as fd:
            os.fsync(fd)

    # -- accounting ---------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True when every task has a done record."""
        self._refresh()
        return all(t.task_id in self.done for t in self.tasks)

    def counts(self) -> Dict[str, int]:
        """Task-level progress: total / done / claimed / pending."""
        self._refresh()
        ids = [t.task_id for t in self.tasks]
        done = sum(i in self.done for i in ids)
        claimed = sum(i in self.owners for i in ids)  # a done record drops the owner
        return {"tasks": len(ids), "configs": sum(len(t.configs) for t in self.tasks),
                "done": done, "claimed": claimed, "pending": len(ids) - done - claimed}


def run_queue_worker(
    queue: WorkQueue,
    *,
    store: Optional[ResultStore] = None,
    cache: Optional[ResultCache] = None,
    progress=None,
    on_failure=None,
    run_fn=None,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    on_retry=None,
    span_tracer=None,
) -> CampaignResult:
    """Drain tasks from ``queue`` until none are claimable.

    Any number of processes may run this against one queue/store/cache
    root; the claim protocol keeps their work disjoint.  Per claimed task,
    the rows a dead owner persisted are recovered, cache hits replayed and
    the rest handed to the transport; the done record follows its rows
    (docs/SERVICE.md, "The work queue").  The execution options mean what
    they mean to :func:`~repro.experiments.campaign.run_campaign`;
    ``run_fn``, a seam for tests, stands in for the engine of ``one``
    tasks and selects no transport.  Checkpoints when the drain ends and
    after a completion :data:`CHECKPOINT_S` or more after the last one.
    """
    done = CampaignResult()
    sizes = {t.task_id: len(t.configs) for t in queue.tasks}
    spans = span_tracer if span_tracer is not None else NULL_SPAN_TRACER
    record, record_outcomes = _recorder(
        done, sum(sizes.values()), store=store, cache=cache, progress=progress,
        on_failure=on_failure, spans=spans,
    )

    def claims() -> Iterator[QueueTask]:
        while (task := queue.claim()) is not None:
            left = [ExperimentConfig.from_dict(d) for d in task.configs]
            if task.task_id in queue.reclaimed and store is not None:
                stored, left = store.split(left)
                for result, row in stored:
                    # Absent from the cache if the owner died between the two
                    # appends, so this is put there (a no-op when it is not).
                    record(result, row, in_store=True)
            if cache is not None:
                hits, left = cache.split(left)
                for hit, row, line in hits:
                    record(hit, row, line, from_cache=True)
            done.cache_hits += len(task.configs) - len(left)
            done.engine_runs += len(left)
            if left:
                yield QueueTask(task.task_id, task.kind, [c.to_dict() for c in left])
            else:
                settle(task, [])

    synced = monotonic()

    def settle(task: QueueTask, rows: List[dict]) -> None:
        nonlocal synced
        failures = sum("err" in row for row in rows)
        # Every member config was recovered, replayed or ran to one of these rows.
        queue.complete(task.task_id, results=sizes[task.task_id] - failures, failures=failures)
        if monotonic() - synced >= CHECKPOINT_S:
            queue.checkpoint(store)
            synced = monotonic()

    def engine(payload: tuple) -> dict:
        return {"ok": (run_fn or run_experiment)(ExperimentConfig.from_dict(payload[0])).to_dict()}

    try:
        return _supervise(
            TaskSource(claims(), settle), done, record_outcomes,
            (ExperimentConfig.from_dict(d) for t in queue.tasks for d in t.configs),
            sum(sizes.values()), serial=jobs == 1 and timeout_s is None and not retries,
            spans=spans, jobs=jobs, timeout_s=timeout_s, retries=retries, backoff_s=backoff_s,
            worker_fn=engine, on_retry=on_retry,
        )
    finally:
        queue.checkpoint(store)
