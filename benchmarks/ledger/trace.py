"""Span tracing from outside the program.

``Tracer.install`` wraps a fixed list of public callables with timing
wrappers, patched where callers look them up.  Each call becomes one span
(name, start, end, parent span, run id) held in memory; nothing under
``src/`` is edited or aware of it.  A target that no longer resolves is
recorded in ``Tracer.missing`` with the reason instead of failing the run,
so refactors do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, span name, module to patch, dotted attribute inside it).  A
#: function imported by name into its caller's module is patched *there*
#: (``campaign.run_experiment``); lazily imported ones at their home.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("scenario", "Scenario.from_dict", "repro.scenario.ir", "Scenario.from_dict"),
    ("scenario", "compile_scenario", "repro.api", "compile_scenario"),
    ("campaign", "run_campaign", "repro.experiments.campaign", "run_campaign"),
    ("campaign", "run_queue_worker", "repro.experiments.queue", "run_queue_worker"),
    ("cache", "ResultCache.refresh", "repro.experiments.cache", "ResultCache.refresh"),
    ("cache", "ResultCache.get", "repro.experiments.cache", "ResultCache.get"),
    ("cache", "ResultCache.put", "repro.experiments.cache", "ResultCache.put"),
    ("cache", "ResultCache.merge", "repro.experiments.cache", "ResultCache.merge"),
    ("storage", "ResultStore.append", "repro.experiments.storage", "ResultStore.append"),
    ("storage", "ResultStore.append_dict", "repro.experiments.storage", "ResultStore.append_dict"),
    ("storage", "ResultStore.load", "repro.experiments.storage", "ResultStore.load"),
    ("storage", "ResultStore.completed_labels", "repro.experiments.storage", "ResultStore.completed_labels"),
    ("metrics", "ExperimentResult.to_dict", "repro.metrics.summary", "ExperimentResult.to_dict"),
    ("metrics", "ExperimentResult.from_dict", "repro.metrics.summary", "ExperimentResult.from_dict"),
    ("fluid.batched", "run_fluid_batch", "repro.fluid.batched", "run_fluid_batch"),
    ("fluid.state", "plan_shards", "repro.fluid.state", "plan_shards"),
    ("fluid.state", "plan_shards", "repro.fluid.batched", "plan_shards"),
    ("engine", "run_experiment", "repro.experiments.campaign", "run_experiment"),
    ("engine", "run_experiment", "repro.experiments.queue", "run_experiment"),
    ("engine", "run_experiment", "repro.service", "run_experiment"),
    ("queue", "WorkQueue.create", "repro.experiments.queue", "WorkQueue.create"),
    ("queue", "WorkQueue.claim", "repro.experiments.queue", "WorkQueue.claim"),
    ("queue", "WorkQueue.complete", "repro.experiments.queue", "WorkQueue.complete"),
    ("service", "SweepService.answer", "repro.service", "SweepService.answer"),
    ("analysis", "build_table3", "repro.analysis", "build_table3"),
    ("analysis", "validate_claims", "repro.analysis", "validate_claims"),
    ("analysis", "full_report", "repro.analysis.summary_report", "full_report"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Spans that keep their first argument for size look-ups (a config list);
#: keeping every argument would pin each result dict in memory.
KEEP_ARG = frozenset({"run_fluid_batch"})


@dataclass
class Span:
    """One timed call.  ``truthy`` is ``bool(return value)``: hit/miss for
    ``get``, fresh/duplicate for ``put``."""

    id: int
    parent: int  # 0 = no parent
    name: str
    layer: str
    start: float
    end: float
    truthy: bool
    arg: Any  # first argument after self/cls, for names in KEEP_ARG
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.missing: Dict[str, str] = {}
        self._stack = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Parent for spans opened on a thread with no open span of its own:
        #: the single closed-loop client sets this around each request, so an
        #: in-process server's handler spans hang off the client's.
        self.remote_parent = 0

    # -- recording ----------------------------------------------------------------

    def _open(self) -> Tuple[int, int, List[int]]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else self.remote_parent
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id: int, parent: int, stack: List[int], name: str,
               layer: str, start: float, truthy: bool, arg: Any) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append(
            Span(span_id, parent, name, layer, start, end, truthy, arg, self.run_id)
        )

    def span(self, name: str, layer: str = "benchmark") -> "_SpanContext":
        """Context manager for the benchmark's own spans (unit, request)."""
        return _SpanContext(self, name, layer)

    def _wrap(self, fn: Callable, name: str, layer: str, skip_first: bool) -> Callable:
        tracer = self
        arg_index = (1 if skip_first else 0) if name in KEEP_ARG else None

        def kept(args: tuple) -> Any:
            if arg_index is None or len(args) <= arg_index:
                return None
            return args[arg_index]

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id, parent, stack = tracer._open()
                # The coroutine may hand work to an executor thread; with one
                # request in flight, that work belongs under this span.
                outer, tracer.remote_parent = tracer.remote_parent, span_id
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer.remote_parent = outer
                    tracer._close(span_id, parent, stack, name, layer, start,
                                  bool(result), kept(args))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = tracer._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span_id, parent, stack, name, layer, start,
                              bool(result), kept(args))

        return traced

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target; note the others in ``missing``."""
        for layer, name, module_name, dotted in TARGETS:
            where = f"{module_name}:{dotted}"
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[where] = repr(exc)
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, name, layer, True))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, layer, False))
            else:
                wrapped = self._wrap(raw, name, layer, inspect.isclass(owner))
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order, idempotent)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        by_id = {s.id: s for s in self.spans}
        covered: Dict[int, float] = {}
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None:
                # Clip to the parent: an executor-thread child may outlive it.
                lo, hi = max(s.start, parent.start), min(s.end, parent.end)
                covered[s.parent] = covered.get(s.parent, 0.0) + max(0.0, hi - lo)
        return {s.id: max(0.0, s.duration - covered.get(s.id, 0.0)) for s in self.spans}

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, truthy calls, total and self seconds."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"layer": s.layer, "calls": 0, "truthy": 0, "total_s": 0.0,
                         "truthy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.id]
            if s.truthy:
                row["truthy"] += 1
                row["truthy_s"] += s.duration
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer — the 'where a second goes' split."""
        selfs = self.self_times()
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + selfs[s.id]
        return out

    def dump(self, path: str) -> None:
        """Write the raw spans as JSON lines (drops the ``arg`` payloads)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "truthy": s.truthy, "run": s.run,
                }) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer
        self.id = 0

    def __enter__(self) -> "_SpanContext":
        self.id, self._parent, self._stack = self.tracer._open()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.id, self._parent, self._stack, self.name,
                           self.layer, self._start, exc_info[0] is None, None)
