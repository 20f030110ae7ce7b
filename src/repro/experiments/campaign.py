"""Campaign driver: run many configurations, optionally in parallel.

The paper's study is embarrassingly parallel across its 810 configurations;
:func:`run_campaign` fans the list over a process pool (simulations are
CPU-bound pure Python, so processes, not threads) and streams results into
a :class:`~repro.experiments.storage.ResultStore` as they complete, which
makes interrupted sweeps resumable.

Configs with ``engine == "fluid_batched"`` take a fast path in the plain
serial/pool modes: they are grouped into lock-step shards (see
:mod:`repro.fluid.state`) and each shard advances as **one** stacked
integration, with per-config rows recorded individually.  Telemetry and
hardened mode fall back to one run per config through
:func:`~repro.experiments.runner.run_experiment` — bit-identical, because
batched results do not depend on shard composition.  Fairness sampling
(``fairness_interval_s``) works on both paths: the batched fast path
drives one vectorized probe hook per shard, and the fallback samples
per-run (see :mod:`repro.obs.fairness`) — the recorded series are
identical either way.

A worker raising no longer aborts the pool: the exception is captured as a
:class:`FailedRun` row (with the traceback string), appended to a sibling
``<store>.failures.jsonl`` file, and counted in the returned
:class:`CampaignResult`.  Failed configs are *not* written to the result
store, so a resumed campaign retries them.

The *hardened* execution mode (any of ``timeout_s``, ``retries``, or a
custom ``worker_fn``) survives misbehaving workers, not just raising
ones: each config runs in its own watchdogged process, a worker that
outlives its per-run wall-clock deadline is killed and recorded as a
``timeout`` row, a worker that dies without reporting (segfault,
``os._exit``, OOM-kill) becomes a ``crash`` row, and every failure is
retried up to ``retries`` times with exponential backoff plus
deterministic per-label jitter before the config is declared dead.  See
docs/FAULTS.md for the full degradation semantics.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import random as _random
import sys
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.storage import ResultStore
from repro.metrics.summary import ExperimentResult
from repro.obs.session import TelemetryOptions
from repro.obs.spans import CAT_CAMPAIGN, CAT_WORKER, NULL_SPAN_TRACER, SpanTracer

#: Watchdog poll cadence (wall-clock seconds) in hardened mode.
WATCHDOG_POLL_S = 0.02

#: Fractional jitter span added to each backoff delay (0.25 = up to +25%).
BACKOFF_JITTER_FRAC = 0.25


@dataclass
class FailedRun:
    """One configuration that failed instead of producing a result.

    ``kind`` distinguishes how it failed: ``error`` (the run raised),
    ``timeout`` (killed by the watchdog), or ``crash`` (the worker died
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
        return {
            "config": self.config,
            "label": self.label,
            "error": self.error,
            "traceback": self.traceback,
            "kind": self.kind,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FailedRun":
        """Inverse of :meth:`to_dict` (tolerates pre-hardening rows)."""
        return cls(
            config=d["config"],
            label=d["label"],
            error=d["error"],
            traceback=d.get("traceback", ""),
            kind=d.get("kind", "error"),
            attempts=d.get("attempts", 1),
        )


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
        #: the CI cache-smoke job requires to be zero on a warm cache).
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


def _append_failure(store: Optional[ResultStore], failure: FailedRun) -> None:
    if store is None:
        return
    path = failures_path(store)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(failure.to_dict(), sort_keys=True) + "\n")
        fh.flush()


def load_failures(store: ResultStore) -> List[FailedRun]:
    """Read the failure rows recorded alongside ``store`` (empty if none)."""
    path = failures_path(store)
    if not path.exists():
        return []
    rows: List[FailedRun] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(FailedRun.from_dict(json.loads(line)))
    return rows


def _run_one_safe(payload: tuple) -> dict:
    """Exception-capturing pool worker: tagged ``ok``/``err`` dict out."""
    config_dict, telemetry_dict = payload
    telemetry = TelemetryOptions.from_dict(telemetry_dict) if telemetry_dict else None
    try:
        result = run_experiment(ExperimentConfig.from_dict(config_dict), telemetry)
        return {"ok": result.to_dict()}
    except Exception as exc:
        return {
            "err": FailedRun(
                config=config_dict,
                label=ExperimentConfig.from_dict(config_dict).label(),
                error=repr(exc),
                traceback=_traceback.format_exc(),
            ).to_dict()
        }


def _run_batched_shard_safe(config_dicts: List[dict]) -> dict:
    """Run one batched-fluid shard; tagged per-config rows under ``many``.

    The whole shard advances as one stacked integration.  If it raises,
    every member config gets its own ``err`` row so resume/retry treat
    them individually (results are independent of shard composition, so
    a rerun of the survivors alone is bit-identical).
    """
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    try:
        from repro.fluid.batched import run_fluid_batch

        results = run_fluid_batch(configs)
        return {"many": [{"ok": r.to_dict()} for r in results]}
    except Exception as exc:
        tb = _traceback.format_exc()
        return {
            "many": [
                {
                    "err": FailedRun(
                        config=d,
                        label=c.label(),
                        error=repr(exc),
                        traceback=tb,
                    ).to_dict()
                }
                for d, c in zip(config_dicts, configs)
            ]
        }


def _pool_entry_mixed(payload: tuple) -> dict:
    """Pool worker dispatching per-config runs and batched-fluid shards."""
    kind = payload[0]
    if kind == "one":
        return _run_one_safe((payload[1], payload[2]))
    return _run_batched_shard_safe(payload[1])


def _split_batched(
    configs: Sequence[ExperimentConfig], enabled: bool
) -> tuple:
    """Partition configs into batched-fluid shards and per-config rest.

    With ``enabled`` False (telemetry or hardened mode, which want one
    run/process per config) everything stays per-config — correct either
    way, because a one-config shard reproduces the shard member's rows
    bit-for-bit (batch-composition invariance).
    """
    batched = [c for c in configs if c.engine == "fluid_batched"] if enabled else []
    if not batched:
        return [], list(configs)
    from repro.fluid.state import plan_shards

    shards = [[batched[i] for i in s] for s in plan_shards(batched)]
    singles = [c for c in configs if c.engine != "fluid_batched"]
    return shards, singles


def _proc_entry(worker_fn: Callable[[tuple], dict], payload: tuple, conn) -> None:
    """Hardened-mode process body: run one config, ship the tagged dict back.

    Catches exceptions a *custom* ``worker_fn`` lets escape (the default
    :func:`_run_one_safe` already captures its own) so the parent always
    distinguishes "raised" from "died silently".
    """
    try:
        tagged = worker_fn(payload)
    except Exception:
        tagged = {
            "err": FailedRun(
                config=payload[0],
                label=ExperimentConfig.from_dict(payload[0]).label(),
                error=repr(sys.exc_info()[1]),
                traceback=_traceback.format_exc(),
            ).to_dict()
        }
    try:
        conn.send(tagged)
    finally:
        conn.close()


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

    Returns ``(record, record_failure)``, sharing one ``finished`` count.
    What ``record(result, row)`` passes on is the JSON-ready *row*, at
    most one per result: the one the caller already holds (a worker
    shipped the result as a dict; the cache or the store served it),
    else one ``result.to_dict()``, built only if there is somewhere to
    write it.  That row goes to ``store.append_dict`` and ``cache.put``.
    ``from_cache`` marks a replayed hit: stored, but not put back into
    the cache that served it (a *recomputed* result still is, and meets
    the conflict check there).  ``in_store``: the store already holds it.
    """
    finished = 0

    def record(result: ExperimentResult, row: Optional[Dict[str, Any]] = None, *,
               from_cache: bool = False, in_store: bool = False) -> None:
        nonlocal finished
        finished += 1
        to_store = store is not None and not in_store
        to_cache = cache is not None and not from_cache
        if row is None and (to_store or to_cache):
            row = result.to_dict()
        if to_store:
            with spans.span("store", label=ExperimentConfig.from_dict(result.config).label()):
                store.append_dict(row)
        if to_cache:
            cache.put(result, row)
        done.append(result)
        if progress is not None:
            progress(finished, total, result)

    def record_failure(failure: FailedRun) -> None:
        nonlocal finished
        finished += 1
        done.failures.append(failure)
        _append_failure(store, failure)
        if on_failure is not None:
            on_failure(finished, total, failure)

    return record, record_failure


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

    With ``store`` and ``resume``, configs whose label already exists in
    the store are skipped and their stored results returned instead.

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

    ``timeout_s`` arms the per-run watchdog, ``retries``/``backoff_s``
    bound the retry-with-backoff loop, and ``on_retry(label, attempt,
    delay_s, failure)`` fires per re-queue.  Any of these (or a custom
    ``worker_fn``, the chaos-test seam) switches execution to the
    hardened one-process-per-config mode; without them the original
    serial / ``mp.Pool`` paths run unchanged.

    ``span_tracer`` (usually :attr:`CampaignProgress.spans`, streaming
    into ``campaign.jsonl``) records the campaign-side timeline: one
    ``campaign`` root span, per-attempt ``worker`` spans with stable lane
    numbers in the serial/hardened modes, ``store`` spans around result
    persistence, and ``retry`` instant markers.  See docs/TRACING.md.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    done = CampaignResult()
    todo: List[ExperimentConfig] = list(configs)
    if store is not None and resume:
        found: List[tuple] = []
        have = store.completed_labels({c.label() for c in todo}, found)
        done.extend(result for _label, result, _row in found)
        todo = [c for c in todo if c.label() not in have]
        done.resumed = len(done)

    # Content-addressed cache layer: anything any store has seen skips
    # the engine.  Hits are replayed through the normal record path below
    # so store/progress/span accounting treat them like completions.
    cached_results: List[tuple] = []  # (result, the cache's own row)
    if cache is not None and telemetry is None:
        cached_results, todo = cache.split(todo)
        done.cache_hits = len(cached_results)

    total = len(todo) + len(cached_results)
    done.engine_runs = len(todo)
    spans = span_tracer if span_tracer is not None else NULL_SPAN_TRACER
    _record, _record_failure = _recorder(
        done, total, store=store, cache=cache if telemetry is None else None,
        progress=progress, on_failure=on_failure, spans=spans,
    )

    telemetry_dict = telemetry.to_dict() if telemetry is not None else None

    hardened = timeout_s is not None or retries > 0 or worker_fn is not None
    serial = jobs == 1 or total <= 1
    mode = "hardened" if hardened else ("serial" if serial else "pool")
    root = spans.start(
        "campaign",
        CAT_CAMPAIGN,
        labels={"configs": total, "jobs": jobs, "mode": mode,
                "resumed": done.resumed, "cache_hits": len(cached_results)},
    )
    try:
        for cached, row in cached_results:
            _record(cached, row, from_cache=True)
        if hardened:
            _run_hardened(
                todo,
                telemetry_dict,
                jobs=jobs,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
                worker_fn=worker_fn or _run_one_safe,
                record=_record,
                record_failure=_record_failure,
                on_retry=on_retry,
                result=done,
                spans=spans,
                root=root,
            )
        elif serial:
            shards, singles = _split_batched(todo, telemetry is None)
            for shard_cfgs in shards:
                wspan = spans.start(
                    f"fluid-batched[{len(shard_cfgs)}]", CAT_WORKER, lane=0
                )
                for tagged in _run_batched_shard_safe(
                    [c.to_dict() for c in shard_cfgs]
                )["many"]:
                    if "ok" in tagged:
                        _record(ExperimentResult.from_dict(tagged["ok"]), tagged["ok"])
                    else:
                        _record_failure(FailedRun.from_dict(tagged["err"]))
                wspan.close()
            for cfg in singles:
                wspan = spans.start(cfg.label(), CAT_WORKER, lane=0)
                try:
                    result = run_experiment(cfg, telemetry)
                except Exception as exc:
                    wspan.annotate(status="error").close()
                    _record_failure(
                        FailedRun(
                            config=cfg.to_dict(),
                            label=cfg.label(),
                            error=repr(exc),
                            traceback=_traceback.format_exc(),
                        )
                    )
                    continue
                wspan.close()
                _record(result)
        else:
            # Pool mode observes completions only (the workers' own run
            # logs carry their run/phase spans), so the campaign timeline
            # records root + store spans and leaves worker lanes to the
            # Chrome-trace exporter's per-pid stitching.  Batched-fluid
            # configs ship as whole shards, one stacked integration per
            # worker invocation.
            ctx = mp.get_context("spawn" if sys.platform == "win32" else "fork")
            shards, singles = _split_batched(todo, telemetry is None)
            payloads = [("one", c.to_dict(), telemetry_dict) for c in singles]
            payloads += [
                ("shard", [c.to_dict() for c in shard]) for shard in shards
            ]
            with ctx.Pool(processes=jobs) as pool:
                for tagged in pool.imap_unordered(_pool_entry_mixed, payloads):
                    for row in tagged.get("many", [tagged]):
                        if "ok" in row:
                            _record(ExperimentResult.from_dict(row["ok"]), row["ok"])
                        else:
                            _record_failure(FailedRun.from_dict(row["err"]))
        return done
    finally:
        counts = done.summary()
        root.annotate(ok=counts["ok"], failed=counts["failed"],
                      retried=counts["retried"])
        spans.close_open()  # root + anything an exception left open


def _run_hardened(
    todo: Sequence[ExperimentConfig],
    telemetry_dict: Optional[dict],
    *,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    worker_fn: Callable[[tuple], dict],
    record: Callable[[ExperimentResult, Dict[str, Any]], None],
    record_failure: Callable[[FailedRun], None],
    on_retry: Optional[Callable[[str, int, float, FailedRun], None]],
    result: CampaignResult,
    spans=NULL_SPAN_TRACER,
    root=None,
) -> None:
    """Watchdogged one-process-per-config executor (hardened mode).

    Each config gets a fresh process and a pipe; the parent polls for a
    tagged result, a silent death (``crash``), or a blown wall-clock
    deadline (``timeout`` — the process is killed).  Failures re-queue
    with exponential backoff until ``retries`` is exhausted, then become
    the :class:`FailedRun` row the campaign carries forward.

    Each launch opens a detached ``worker`` span on a stable worker-slot
    lane (slot indices are reused as they free up, so the Chrome trace
    shows exactly ``jobs`` worker lanes), closed with the attempt's
    outcome; each re-queue drops a ``retry`` instant marker.
    """
    ctx = mp.get_context("spawn" if sys.platform == "win32" else "fork")
    pending: deque = deque((cfg, 1) for cfg in todo)  # (config, attempt#)
    delayed: List[tuple] = []  # (ready_at_monotonic, config, attempt#)
    running: List[dict] = []
    free_lanes: List[int] = []  # released worker-slot indices, reused smallest-first
    next_lane = 0

    def _launch(cfg: ExperimentConfig, attempt: int) -> None:
        nonlocal next_lane
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_proc_entry,
            args=(worker_fn, (cfg.to_dict(), telemetry_dict), child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if free_lanes:
            lane = free_lanes.pop(0)
        else:
            lane = next_lane
            next_lane += 1
        running.append(
            {
                "proc": proc,
                "conn": parent_conn,
                "cfg": cfg,
                "attempt": attempt,
                "deadline": (time.monotonic() + timeout_s) if timeout_s else None,
                "lane": lane,
                "span": spans.start(
                    cfg.label(), CAT_WORKER, parent=root, detached=True,
                    lane=lane, labels={"attempt": attempt},
                ),
            }
        )

    def _finish_span(entry: dict, outcome: str) -> None:
        entry["span"].annotate(outcome=outcome).close()
        free_lanes.append(entry["lane"])
        free_lanes.sort()

    def _resolve_failure(entry: dict, failure: FailedRun) -> None:
        attempt = entry["attempt"]
        failure.attempts = attempt
        if attempt <= retries:
            delay = _backoff_delay(failure.label, attempt, backoff_s)
            result.retried += 1
            if on_retry is not None:
                on_retry(failure.label, attempt, delay, failure)
            spans.instant("retry", CAT_WORKER, label=failure.label,
                          attempt=attempt, delay_s=delay, kind=failure.kind)
            delayed.append((time.monotonic() + delay, entry["cfg"], attempt + 1))
        else:
            record_failure(failure)

    def _failure(entry: dict, kind: str, error: str, traceback: str = "") -> FailedRun:
        cfg = entry["cfg"]
        return FailedRun(
            config=cfg.to_dict(),
            label=cfg.label(),
            error=error,
            traceback=traceback,
            kind=kind,
        )

    while pending or delayed or running:
        now = time.monotonic()
        if delayed:
            ready = [d for d in delayed if d[0] <= now]
            for item in ready:
                delayed.remove(item)
                pending.append((item[1], item[2]))
        while pending and len(running) < jobs:
            cfg, attempt = pending.popleft()
            _launch(cfg, attempt)
        progressed = False
        for entry in list(running):
            proc, conn = entry["proc"], entry["conn"]
            tagged = None
            ready = conn.poll()
            dead = not ready and not proc.is_alive()
            if dead:
                # It may have sent and exited between the poll above and the
                # liveness check: look once more before calling it a crash.
                ready = conn.poll()
            if ready:
                try:
                    tagged = conn.recv()
                except EOFError:
                    tagged = None  # died between connecting and sending
            elif not dead:
                if entry["deadline"] is not None and now >= entry["deadline"]:
                    proc.terminate()
                    proc.join()
                    conn.close()
                    running.remove(entry)
                    progressed = True
                    _finish_span(entry, "timeout")
                    _resolve_failure(
                        entry,
                        _failure(
                            entry,
                            "timeout",
                            f"run exceeded the {timeout_s:g}s wall-clock timeout "
                            "and was killed by the watchdog",
                        ),
                    )
                continue
            proc.join()
            conn.close()
            running.remove(entry)
            progressed = True
            if tagged is None:
                _finish_span(entry, "crash")
                _resolve_failure(
                    entry,
                    _failure(
                        entry,
                        "crash",
                        f"worker died without reporting (exitcode {proc.exitcode})",
                    ),
                )
            elif "ok" in tagged:
                _finish_span(entry, "ok")
                record(ExperimentResult.from_dict(tagged["ok"]), tagged["ok"])
            else:
                failure = FailedRun.from_dict(tagged["err"])
                _finish_span(entry, failure.kind)
                _resolve_failure(entry, failure)
        if not progressed and (running or delayed):
            time.sleep(WATCHDOG_POLL_S)


def print_progress(finished: int, total: int, result: ExperimentResult) -> None:
    """A ready-made progress callback for CLI use."""
    cfg = ExperimentConfig.from_dict(result.config)
    print(
        f"[{finished}/{total}] {cfg.label()}: "
        f"J={result.jain_index:.3f} phi={result.link_utilization:.3f} "
        f"retx={result.total_retransmits} ({result.wallclock_s:.1f}s)",
        flush=True,
    )


def print_failure(finished: int, total: int, failure: FailedRun) -> None:
    """Failure-side companion to :func:`print_progress`."""
    print(
        f"[{finished}/{total}] {failure.label}: FAILED {failure.error}",
        file=sys.stderr,
        flush=True,
    )


class CampaignProgress:
    """Live campaign progress: events/sec, ETA, and optional JSONL feed.

    Wraps the plain print callbacks with wall-clock bookkeeping.  Pass the
    instance itself as ``progress=`` and its :meth:`failure` method as
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
        if not self._quiet:
            print_progress(finished, total, result)
            eta = self._eta_s(finished, total)
            if eta:
                print(f"    eta ~{eta:.0f}s", flush=True)
        self._emit(
            finished, total,
            ExperimentConfig.from_dict(result.config).label(),
            result,
        )

    def failure(self, finished: int, total: int, failure: FailedRun) -> None:
        """``on_failure`` companion callback to ``__call__``."""
        self._failed += 1
        if not self._quiet:
            print_failure(finished, total, failure)
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
