"""Campaign driver: run many configurations, optionally in parallel.

The paper's study is embarrassingly parallel across its 810 configurations;
:func:`run_campaign` fans the list over long-lived worker processes
(simulations are CPU-bound pure Python, so processes, not threads) and
streams results into a :class:`~repro.experiments.storage.ResultStore` as
they complete, which makes interrupted sweeps resumable.

One protocol carries every config to an engine: :func:`plan_tasks` turns
the list into *tasks* (one config, or a ``fluid_batched`` lock-step shard,
see :mod:`repro.fluid.state`, that advances as **one** stacked
integration), :func:`run_task` is the one worker body (tagged ``ok`` /
``err`` rows out, one per member config), and the one outcome loop of
:func:`_recorder` records them.  One driver (:func:`_supervise`) hands a
:class:`TaskSource` — the planned list of :func:`run_campaign`, or a work
queue (:func:`repro.experiments.queue.run_queue_worker`) — to one of two
thin transports that only move tasks and rows: inline, or supervised
worker processes (:func:`_run_workers`, for ``jobs > 1`` or the hardened
mode: ``timeout_s``, ``retries`` or a custom ``worker_fn``), which turns a
worker that hangs or dies into ``timeout`` or ``crash`` rows for exactly
the task it held and retries failures with backoff (docs/FAULTS.md).
Telemetry and the hardened mode want one run per config through
:func:`~repro.experiments.runner.run_experiment` — bit-identical, because
batched results do not depend on shard composition; fairness sampling
(``fairness_interval_s``, see :mod:`repro.obs.fairness`) records the same
series either way.

A run that raises does not abort the sweep: the exception is captured as a
:class:`FailedRun` row (with the traceback string), appended to a sibling
``<store>.failures.jsonl`` file, and counted in the returned
:class:`CampaignResult`.  Failed configs are *not* written to the result
store, so a resumed campaign retries them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing as mp
import random as _random
import sys
import time
import traceback as _traceback
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import load_engines, run_experiment
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult
from repro.obs.spans import CAT_CAMPAIGN, CAT_WORKER, NULL_SPAN_TRACER, SpanTracer

if TYPE_CHECKING:
    from repro.obs.session import TelemetryOptions

#: Fractional jitter span added to each backoff delay (0.25 = up to +25%).
BACKOFF_JITTER_FRAC = 0.25


@dataclass
class FailedRun:
    """One configuration that failed instead of producing a result.

    ``kind`` distinguishes how it failed: ``error`` (the run raised),
    ``timeout`` (killed at its deadline), or ``crash`` (the worker died
    without reporting).  ``attempts`` counts executions including
    retries.
    """

    config: Dict[str, Any]
    label: str
    error: str
    traceback: str
    kind: str = "error"
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, one line of ``<store>.failures.jsonl``."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FailedRun":
        """Inverse of :meth:`to_dict` (tolerates pre-hardening rows)."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


class CampaignResult(List[ExperimentResult]):
    """Completion-ordered results plus the failures captured along the way.

    A plain list subclass so existing callers (``len``, iteration,
    indexing) keep working unchanged.
    """

    def __init__(self, results: Optional[Sequence[ExperimentResult]] = None):
        super().__init__(results or [])
        self.failures: List[FailedRun] = []
        #: Individual retry attempts performed (graceful-degradation accounting).
        self.retried = 0
        #: Results answered from the content-addressed cache (no engine run).
        self.cache_hits = 0
        #: Results taken from the resume store (no engine run).
        self.resumed = 0
        #: Configs actually handed to an engine this invocation (the number
        #: the CI smoke job requires to be zero on a warm cache).
        self.engine_runs = 0

    def summary(self) -> Dict[str, int]:
        """Counts for campaign-end reporting: ok / failed / retried / total."""
        return {
            "ok": len(self),
            "failed": len(self.failures),
            "retried": self.retried,
            "total": len(self) + len(self.failures),
        }


def failures_path(store: ResultStore) -> Path:
    """Sibling JSONL file holding :class:`FailedRun` rows for ``store``.

    Kept out of the main store file, whose loader treats every line as an
    :class:`ExperimentResult`.
    """
    return store.path.with_suffix(".failures.jsonl")


def load_failures(store: ResultStore) -> List[FailedRun]:
    """Read the failure rows recorded alongside ``store`` (empty if none);
    a torn last line is skipped with a ``TornWriteWarning``, like the
    store's own."""
    log = ResultStore(failures_path(store))
    return [FailedRun.from_dict(d) for _, d in log.iter_dicts()]


@dataclass
class QueueTask:
    """The unit every transport carries: one config, or a batched-fluid shard."""

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


def plan_tasks(
    configs: Sequence[ExperimentConfig], *, batch: bool = True, jobs: int = 1
) -> List[QueueTask]:
    """Shard a config list into tasks, shards first.

    ``fluid_batched`` configs group into lock-step shards of bounded lane
    count (one flat-table integration per task;
    :func:`repro.fluid.state.plan_shards`, which ``jobs`` tells how many
    workers want a task); everything else becomes one task per config.
    With ``batch`` False (telemetry or the hardened mode, which want one
    run per config) everything stays per-config — correct either way,
    because a one-config run reproduces the shard member's rows bit-for-bit
    (batch-composition invariance).
    """
    batched = [c for c in configs if c.engine == "fluid_batched"] if batch else []
    tasks: List[QueueTask] = []
    if batched:
        from repro.fluid.state import plan_shards

        for shard in plan_shards(batched, jobs=jobs):
            dicts = [batched[i].to_dict() for i in shard]
            tasks.append(QueueTask(task_id_for(dicts), "shard", dicts))
    for cfg in configs:
        if not batch or cfg.engine != "fluid_batched":
            dicts = [cfg.to_dict()]
            tasks.append(QueueTask(task_id_for(dicts), "one", dicts))
    return tasks


class TaskSource(NamedTuple):
    """What a transport runs: ``tasks``, each drawn when a lane is free (a
    work queue claims it then), and ``settle(task, rows)``, called once the
    task's final rows are recorded (a work queue's done record)."""

    tasks: Iterator[QueueTask]
    settle: Callable[[QueueTask, List[dict]], None] = lambda task, rows: None


def _err_rows(config_dicts: Sequence[Dict[str, Any]], error: str, traceback: str = "",
              kind: str = "error") -> List[dict]:
    """One tagged ``err`` row per member config of a task that gave no results."""
    return [
        {
            "err": FailedRun(
                config=d,
                label=ExperimentConfig.from_dict(d).label(),
                error=error,
                traceback=traceback,
                kind=kind,
            ).to_dict()
        }
        for d in config_dicts
    ]


def run_task(
    kind: str,
    config_dicts: Sequence[Dict[str, Any]],
    telemetry_dict: Optional[dict] = None,
    worker_fn: Optional[Callable[[tuple], dict]] = None,
) -> List[dict]:
    """The one worker body: run a task, one tagged row per member config.

    ``shard`` advances as one stacked integration; ``one`` runs through
    :func:`~repro.experiments.runner.run_experiment`, or through
    ``worker_fn((config_dict, telemetry_dict)) -> {"ok": row} | {"err":
    row}`` where the caller brings its own (chaos tests, the queue's
    ``run_fn``).  A run that raises — a custom ``worker_fn`` included —
    becomes an ``err`` row (:class:`FailedRun`, with the traceback) for
    *every* member config, so resume/retry treat them individually: results
    are independent of shard composition, so a rerun of the survivors alone
    is bit-identical.  This is the only place an exception turns into a row.
    """
    try:
        if kind == "one" and worker_fn is not None:
            return [worker_fn((d, telemetry_dict)) for d in config_dicts]
        configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
        if kind == "shard":
            from repro.fluid.batched import run_fluid_batch

            results = run_fluid_batch(configs)
        else:
            telemetry = None
            if telemetry_dict:
                from repro.obs.session import TelemetryOptions

                telemetry = TelemetryOptions.from_dict(telemetry_dict)
            results = [run_experiment(cfg, telemetry) for cfg in configs]
        return [{"ok": r.to_dict()} for r in results]
    except Exception as exc:
        return _err_rows(config_dicts, repr(exc), _traceback.format_exc())


def _backoff_delay(label: str, attempt: int, backoff_s: float) -> float:
    """Exponential backoff with deterministic per-(label, attempt) jitter.

    Jitter decorrelates retry storms across a campaign without making
    reruns of the same campaign time differently: the jitter fraction is
    seeded from the label and attempt number, not wall clock.
    """
    base = backoff_s * (2.0 ** (attempt - 1))
    jitter = _random.Random(f"{label}:{attempt}").uniform(0.0, BACKOFF_JITTER_FRAC)
    return base * (1.0 + jitter)


def _recorder(done: CampaignResult, total: int, *, store: Optional[ResultStore], cache,
              progress=None, on_failure=None, spans=NULL_SPAN_TRACER) -> tuple:
    """The record path of :func:`run_campaign` and the queue worker.

    Returns ``(record, record_outcomes)``, sharing one ``finished`` count.
    ``record_outcomes(rows)`` is the one outcome loop: every transport
    hands it the tagged rows :func:`run_task` produced, an ``ok`` row is
    recorded as a result and an ``err`` row as a :class:`FailedRun`.

    What ``record(result, row)`` passes on is the JSON-ready *row*, at
    most one per result: the one the caller already holds (a worker
    shipped the result as a dict; the cache or the store served it),
    else one ``result.to_dict()``, built only if there is somewhere to
    write it.  That row goes to ``store.append_dict`` and ``cache.put``,
    encoded once: the cache shard gets the very line the store wrote.
    ``from_cache`` marks a replayed hit: stored as ``line``, the line the
    cache read, but not put back into the cache that served it (a
    *recomputed* result still is, and meets the conflict check there).
    ``in_store``: the store already holds it.
    """
    finished = 0

    def record(result: ExperimentResult, row: Optional[Dict[str, Any]] = None,
               line: Optional[str] = None, *,
               from_cache: bool = False, in_store: bool = False) -> None:
        nonlocal finished
        finished += 1
        to_store = store is not None and not in_store
        to_cache = cache is not None and not from_cache
        if row is None and (to_store or to_cache):
            row = result.to_dict()
        if to_store:
            # The label is only for the timeline: not computed when nobody traces.
            labels = (
                {"label": ExperimentConfig.from_dict(result.config).label()}
                if spans.enabled else {}
            )
            with spans.span("store", **labels):
                line = store.append_dict(row, line)
        if to_cache:
            cache.put(result, row, line)
        done.append(result)
        if progress is not None:
            progress(finished, total, result)

    def record_outcomes(rows: Sequence[dict]) -> None:
        nonlocal finished
        for tagged in rows:
            if "ok" in tagged:
                record(ExperimentResult.from_dict(tagged["ok"]), tagged["ok"])
            else:
                failure = FailedRun.from_dict(tagged["err"])
                finished += 1
                done.failures.append(failure)
                if store is not None:
                    with ResultStore(failures_path(store)) as log:
                        log.append_dict(failure.to_dict())
                if on_failure is not None:
                    on_failure(finished, total, failure)

    return record, record_outcomes


def run_campaign(
    configs: Sequence[ExperimentConfig],
    *,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    resume: bool = True,
    progress: Optional[Callable[[int, int, ExperimentResult], None]] = None,
    on_failure: Optional[Callable[[int, int, FailedRun], None]] = None,
    telemetry: Optional[TelemetryOptions] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    on_retry: Optional[Callable[[str, int, float, FailedRun], None]] = None,
    worker_fn: Optional[Callable[[tuple], dict]] = None,
    span_tracer: Optional[SpanTracer] = None,
    cache=None,
) -> CampaignResult:
    """Run every config; returns results in completion order.

    With ``store`` and ``resume``, configs the store already holds a row of
    (an equal config, not merely the same label) are skipped and their
    stored results returned instead, once per config.

    ``cache`` (a :class:`~repro.experiments.cache.ResultCache`) is the
    cross-sweep layer above resume: configs any store has ever computed
    are answered from the content-addressed cache without touching an
    engine, and every freshly computed result is put back.  Cache hits
    still flow through ``store``/``progress`` like computed results.
    Telemetry runs bypass the cache entirely (their results embed run-log
    side channels that a recompute would not reproduce).
    ``progress``/``on_failure`` fire per completed config with a shared
    ``finished`` count covering both outcomes.  ``telemetry`` is handed to
    every worker, giving each run its own JSONL run log.

    ``timeout_s`` arms the per-run deadline, ``retries``/``backoff_s``
    bound the retry-with-backoff loop, and ``on_retry(label, attempt,
    delay_s, failure)`` fires per re-queue; a value none of them can honour
    (a NaN, say) is a ``ValueError``.  Tasks run inline when ``jobs == 1``
    (or there is one config) and none of these nor a custom ``worker_fn``
    (the chaos-test seam) is given, and on ``jobs`` supervised worker
    processes otherwise.

    ``span_tracer`` (usually :attr:`CampaignProgress.spans`, streaming
    into ``campaign.jsonl``) records the campaign-side timeline: one
    ``campaign`` root span, per-attempt ``worker`` spans with stable lane
    numbers, ``store`` spans around result persistence, and ``retry``
    instant markers.  See docs/TRACING.md.
    """
    done = CampaignResult()
    todo: List[ExperimentConfig] = list(configs)
    if store is not None and resume:
        resumed, todo = store.split(todo)
        done.extend(result for result, _row in resumed)
        done.resumed = len(done)

    # Content-addressed cache layer: anything any store has seen skips
    # the engine.  Hits are replayed through the normal record path below
    # so store/progress/span accounting treat them like completions.
    cached_results: List[tuple] = []  # (result, the cache's own row, its line)
    if cache is not None and telemetry is None:
        cached_results, todo = cache.split(todo)
        done.cache_hits = len(cached_results)

    total = len(todo) + len(cached_results)
    done.engine_runs = len(todo)
    spans = span_tracer if span_tracer is not None else NULL_SPAN_TRACER
    record, record_outcomes = _recorder(
        done, total, store=store, cache=cache if telemetry is None else None,
        progress=progress, on_failure=on_failure, spans=spans,
    )
    hardened = timeout_s is not None or retries > 0 or worker_fn is not None
    serial = (jobs == 1 or total <= 1) and not hardened

    def planned() -> Iterator[QueueTask]:  # drawn from once the options are checked
        for cached, row, line in cached_results:
            record(cached, row, line, from_cache=True)
        yield from plan_tasks(todo, batch=telemetry is None and not hardened,
                              jobs=1 if serial else jobs)

    return _supervise(
        TaskSource(planned()), done, record_outcomes, todo, total, telemetry=telemetry,
        serial=serial, spans=spans, jobs=jobs, timeout_s=timeout_s, retries=retries,
        backoff_s=backoff_s, worker_fn=worker_fn, on_retry=on_retry,
    )


def _supervise(source: TaskSource, done: CampaignResult, emit, engines, total: int, *,
               telemetry=None, serial: bool, spans, jobs: int, timeout_s, retries: int,
               backoff_s: float, worker_fn, on_retry) -> CampaignResult:
    """The one driver behind :func:`run_campaign` and the queue's
    ``run_queue_worker``: refuse options no transport can honour, then run
    ``source``'s tasks inline when ``serial``, else on ``jobs`` supervised
    workers, under one ``campaign`` root span."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if timeout_s is not None and not 0 < timeout_s < math.inf:
        raise ValueError(f"timeout_s must be positive and finite, got {timeout_s}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if not 0 <= backoff_s < math.inf:
        raise ValueError(f"backoff_s must be >= 0 and finite, got {backoff_s}")
    root = spans.start("campaign", CAT_CAMPAIGN, labels={
        "configs": total, "jobs": jobs, "mode": "serial" if serial else "workers"})
    telemetry_dict = telemetry.to_dict() if telemetry is not None else None
    if not serial:
        # Forked workers inherit what is loaded here; each would otherwise
        # compile the engine (numpy, the kernel, the DES) for itself.
        load_engines(engines, telemetry is not None)
    try:
        if serial:
            _run_inline(source, telemetry_dict, emit, spans, worker_fn)
        else:
            _run_workers(source, telemetry_dict, emit, done, jobs=jobs, timeout_s=timeout_s,
                         retries=retries, backoff_s=backoff_s, worker_fn=worker_fn,
                         on_retry=on_retry, spans=spans, root=root)
        return done
    finally:
        counts = done.summary()
        root.annotate(ok=counts["ok"], failed=counts["failed"], retried=counts["retried"],
                      resumed=done.resumed, cache_hits=done.cache_hits)
        spans.close_open()  # root + anything an exception left open


def _worker_span(spans, task: QueueTask, **kwargs):
    """Open a task's ``worker`` span, named by the config's label or the
    shard's width (a name nobody computes when nobody traces)."""
    name = ""
    if spans.enabled and task.kind == "shard":
        name = f"fluid-batched[{len(task.configs)}]"
    elif spans.enabled:
        name = ExperimentConfig.from_dict(task.configs[0]).label()
    return spans.start(name, CAT_WORKER, **kwargs)


def _run_inline(source: TaskSource, telemetry_dict, emit, spans, worker_fn) -> None:
    """Inline transport: every task of ``source`` in this process, one
    ``worker`` span each on lane 0."""
    for task in source.tasks:
        wspan = _worker_span(spans, task, lane=0)
        rows = run_task(task.kind, task.configs, telemetry_dict, worker_fn)
        if "err" in rows[0]:
            wspan.annotate(status="error")
        wspan.close()
        emit(rows)
        source.settle(task, rows)


def _worker_loop(conn, telemetry_dict, worker_fn) -> None:
    """Worker process body: run each task the parent sends, ship its tagged
    rows back, until the parent sends ``None`` (or is gone)."""
    try:
        for kind, configs in iter(conn.recv, None):
            conn.send(run_task(kind, configs, telemetry_dict, worker_fn))
    except EOFError:
        pass


def _run_workers(source: TaskSource, telemetry_dict: Optional[dict], emit,
                 result: CampaignResult, *, jobs: int, timeout_s: Optional[float], retries: int,
                 backoff_s: float, worker_fn, on_retry, spans, root) -> None:
    """Worker transport: ``jobs`` long-lived processes, one task at a time each.

    Lane ``i`` holds at most one forked worker, started when a task first
    needs it, that loops ``recv(task) -> run_task -> send(rows)`` over its
    own pipe; a task is drawn from ``source`` only when a lane is idle.
    The parent blocks on the pipes and the process sentinels until the
    nearest deadline or retry-ready time.  A worker that blows its task's
    wall-clock deadline is killed (``timeout`` rows), one that dies without
    reporting is reaped (``crash`` rows): either way the rows are for
    exactly the task it held, and a fresh worker takes the lane when the
    next task needs it.  Failures re-queue with exponential backoff until
    ``retries`` is exhausted, then become the :class:`FailedRun` rows the
    campaign carries forward.

    Each attempt opens a detached ``worker`` span on its lane (so a trace
    shows at most ``jobs`` worker lanes), closed with the attempt's
    outcome; each re-queue drops a ``retry`` instant marker.
    """
    # Imported here: only a multi-process sweep waits on pipes.
    from multiprocessing.connection import wait

    ctx = mp.get_context("spawn" if sys.platform == "win32" else "fork")
    pending: deque = deque()  # (task, attempt#) whose retry is due
    delayed: List[tuple] = []  # (ready_at_monotonic, task, attempt#)
    # The worker on each lane: {"proc", "conn", "job"}, where "job" is the
    # (task, attempt#, deadline, span) it holds, or None while it is idle.
    lanes: List[Optional[dict]] = [None] * jobs

    def _reap(lane: int) -> None:
        worker, lanes[lane] = lanes[lane], None
        worker["proc"].join()
        worker["conn"].close()

    def _fill() -> None:
        """Hand due retries, then new tasks, to idle lanes, forking a worker where none lives."""
        for lane in range(jobs):
            worker = lanes[lane]
            if worker is not None and worker["job"] is not None:
                continue
            if pending:
                task, attempt = pending.popleft()
            elif (task := next(source.tasks, None)) is not None:
                attempt = 1
            else:
                return
            if worker is None or not worker["proc"].is_alive():
                if worker is not None:  # died while idle: nothing to record
                    _reap(lane)
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker_loop, daemon=True,
                                   args=(child_conn, telemetry_dict, worker_fn))
                proc.start()
                child_conn.close()
                worker = lanes[lane] = {"proc": proc, "conn": conn}
            worker["conn"].send((task.kind, task.configs))
            worker["job"] = (
                task, attempt, (time.monotonic() + timeout_s) if timeout_s else None,
                _worker_span(spans, task, parent=root, detached=True, lane=lane,
                             labels={"attempt": attempt}),
            )

    def _settle(task: QueueTask, attempt: int, rows: List[dict]) -> None:
        """Pass a finished attempt's rows on — or re-queue a failed task."""
        failed = [row["err"] for row in rows if "err" in row]
        for err in failed:
            err["attempts"] = attempt
        if failed and attempt <= retries:
            failure = FailedRun.from_dict(failed[0])
            delay = _backoff_delay(failure.label, attempt, backoff_s)
            result.retried += 1
            if on_retry is not None:
                on_retry(failure.label, attempt, delay, failure)
            spans.instant("retry", CAT_WORKER, label=failure.label,
                          attempt=attempt, delay_s=delay, kind=failure.kind)
            delayed.append((time.monotonic() + delay, task, attempt + 1))
        else:
            emit(rows)
            source.settle(task, rows)

    try:
        while True:
            now = time.monotonic()
            for item in [d for d in delayed if d[0] <= now]:
                delayed.remove(item)
                pending.append(item[1:])
            _fill()
            busy = [(lane, w) for lane, w in enumerate(lanes) if w and w["job"]]
            if not busy and not delayed:
                break  # and the source is dry: _fill found every lane idle
            wake = [d[0] for d in delayed] + [w["job"][2] for _, w in busy if w["job"][2]]
            wait([obj for _, w in busy for obj in (w["conn"], w["proc"].sentinel)],
                 max(0.0, min(wake) - now) if wake else None)
            now = time.monotonic()
            for lane, worker in busy:
                proc, conn = worker["proc"], worker["conn"]
                task, attempt, deadline, span = worker["job"]
                rows = None
                ready = conn.poll()
                dead = not ready and not proc.is_alive()
                if dead:
                    # It may have sent and died between the poll above and the
                    # liveness check: look once more before calling it a crash.
                    ready = conn.poll()
                if ready:
                    try:
                        rows = conn.recv()
                    except EOFError:
                        dead = True  # died between taking the task and sending
                elif not dead:
                    if deadline is None or now < deadline:
                        continue
                    proc.terminate()
                    dead = True
                    rows = _err_rows(
                        task.configs,
                        f"run exceeded the {timeout_s:g}s wall-clock timeout "
                        "and was killed by the watchdog",
                        kind="timeout",
                    )
                worker["job"] = None
                if dead:
                    _reap(lane)
                if rows is None:
                    rows = _err_rows(
                        task.configs,
                        f"worker died without reporting (exitcode {proc.exitcode})",
                        kind="crash",
                    )
                kind = next((row["err"]["kind"] for row in rows if "err" in row), "ok")
                span.annotate(outcome=kind).close()
                _settle(task, attempt, rows)  # before _fill: a done record, then a claim
    finally:
        for lane, worker in enumerate(lanes):
            if worker is None:
                continue
            if worker["job"] is not None:  # only when an exception cut the loop short
                worker["proc"].terminate()
            else:
                with contextlib.suppress(OSError):
                    worker["conn"].send(None)
            _reap(lane)


class CampaignProgress:
    """Live campaign progress: events/sec, ETA, and optional JSONL feed.

    Prints a line per finished config (unless ``quiet``), with wall-clock
    bookkeeping.  Pass the instance itself as ``progress=`` and its :meth:`failure` method as
    ``on_failure=``.  With ``log_path`` set, every completion also appends
    a ``campaign_progress`` record (see ``docs/OBSERVABILITY.md``) that
    ``repro obs tail`` renders.

    With ``log_path`` *and* ``spans=True``, :attr:`spans` is a live
    :class:`~repro.obs.spans.SpanTracer` streaming into the same
    ``campaign.jsonl`` — pass it to :func:`run_campaign` as
    ``span_tracer=`` to record the campaign-side timeline.
    """

    def __init__(
        self,
        log_path: Optional[Path] = None,
        *,
        quiet: bool = False,
        spans: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._clock = clock
        self._start = clock()
        self._events = 0
        self._failed = 0
        self._retried = 0
        self._quiet = quiet
        self._writer = None
        if log_path is not None:
            from repro.obs.runlog import RunLogWriter

            self._writer = RunLogWriter(log_path)
        #: Campaign-level span tracer (NULL unless spans were requested).
        self.spans = (
            SpanTracer(self._writer)
            if spans and self._writer is not None
            else NULL_SPAN_TRACER
        )

    def _eta_s(self, finished: int, total: int) -> float:
        elapsed = self._clock() - self._start
        if finished == 0 or finished >= total:
            return 0.0
        return elapsed / finished * (total - finished)

    def _emit(
        self,
        finished: int,
        total: int,
        label: str,
        result: Optional[ExperimentResult] = None,
    ) -> None:
        if self._writer is not None:
            elapsed = self._clock() - self._start
            extra = {}
            if result is not None:
                # Headline fairness alongside liveness, so a tailing
                # observer (or the sweep service of ROADMAP item 2) sees
                # the science stream by, not just the throughput.
                extra["jain"] = result.jain_index
                extra["phi"] = result.link_utilization
            self._writer.write(
                "campaign_progress",
                finished=finished,
                total=total,
                failed=self._failed,
                retried=self._retried,
                label=label,
                eta_s=self._eta_s(finished, total),
                events_per_sec=self._events / elapsed if elapsed > 0 else 0.0,
                **extra,
            )

    def __call__(self, finished: int, total: int, result: ExperimentResult) -> None:
        self._events += result.events_processed
        label = ExperimentConfig.from_dict(result.config).label()
        if not self._quiet:
            print(f"[{finished}/{total}] {label}: J={result.jain_index:.3f} "
                  f"phi={result.link_utilization:.3f} retx={result.total_retransmits} "
                  f"({result.wallclock_s:.1f}s)", flush=True)
            eta = self._eta_s(finished, total)
            if eta:
                print(f"    eta ~{eta:.0f}s", flush=True)
        self._emit(finished, total, label, result)

    def failure(self, finished: int, total: int, failure: FailedRun) -> None:
        """``on_failure`` companion callback to ``__call__``."""
        self._failed += 1
        if not self._quiet:
            print(f"[{finished}/{total}] {failure.label}: FAILED {failure.error}",
                  file=sys.stderr, flush=True)
        self._emit(finished, total, failure.label)

    def retry(self, label: str, attempt: int, delay_s: float, failure: FailedRun) -> None:
        """``on_retry`` companion: a failed run was re-queued with backoff."""
        self._retried += 1
        if not self._quiet:
            print(
                f"    retry #{attempt} for {label} in {delay_s:.2f}s "
                f"({failure.kind}: {failure.error})",
                file=sys.stderr,
                flush=True,
            )
        if self._writer is not None:
            self._writer.write(
                "campaign_retry",
                label=label,
                attempt=attempt,
                delay_s=delay_s,
                error=failure.error,
                kind=failure.kind,
            )

    def close(self) -> None:
        """Close the campaign.jsonl writer, if one was opened."""
        if self._writer is not None:
            self.spans.close_open()
            self._writer.close()
            self._writer = None
