"""Per-run telemetry session: options, lifecycle, and file layout.

A :class:`TelemetrySession` owns one run's registry, flight recorder, and
run log.  The experiment runner drives it:

- :meth:`TelemetrySession.start` writes the manifest record;
- :meth:`instrument` wires the built topology/flows into the registry and
  attaches the flight recorder to the drop/retransmit trace hooks;
- :meth:`finish` writes the final metrics snapshot + ``ok`` summary (and
  folds a compact snapshot into ``result.extra["obs"]``);
- :meth:`record_failure` writes an ``error`` summary with the traceback
  and dumps the flight-recorder window next to the run log.

:class:`TelemetryOptions` is a plain picklable dataclass so campaign
workers can carry it across process boundaries.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.obs import DEFAULT_TELEMETRY_DIR
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import instrument_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EventLoopProfiler, register_profiler_gauges
from repro.obs.runlog import RunLogWriter
from repro.obs.spans import NULL_SPAN_TRACER, SpanTracer

#: Default flight-recorder window.
DEFAULT_TRACE_CAPACITY = 65536
#: Default cwnd/sRTT sampling cadence (simulated time).
DEFAULT_SAMPLE_INTERVAL_S = 0.1


def config_hash(config: Dict[str, Any]) -> str:
    """Short stable hash of a config dict (12 hex of sha-256 over sorted JSON)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def peak_rss_kb() -> int:
    """Process high-water RSS in KiB (0 where unavailable)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


@dataclass
class TelemetryOptions:
    """User-facing telemetry knobs (CLI ``--telemetry`` & friends)."""

    dir: str = DEFAULT_TELEMETRY_DIR
    trace_capacity: int = DEFAULT_TRACE_CAPACITY
    #: Always dump the flight-recorder window at the end of the run (the
    #: dump on failure happens regardless).
    trace_dump: bool = False
    #: cwnd/sRTT sampling cadence in simulated seconds (None/0 disables).
    sample_interval_s: Optional[float] = DEFAULT_SAMPLE_INTERVAL_S
    #: Emit hierarchical ``span`` records (run + phase timeline; CLI
    #: ``--trace``).  See docs/TRACING.md.
    spans: bool = False
    #: Attach the event-loop self-profiler and write a ``profile`` record
    #: (CLI ``--profile``).  See docs/TRACING.md.
    profile: bool = False
    #: Profiler sampling stride: 1 times every event, N>1 every N-th.
    profile_stride: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what campaign workers unpickle)."""
        return {
            "dir": self.dir,
            "trace_capacity": self.trace_capacity,
            "trace_dump": self.trace_dump,
            "sample_interval_s": self.sample_interval_s,
            "spans": self.spans,
            "profile": self.profile,
            "profile_stride": self.profile_stride,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TelemetryOptions":
        return cls(**d)


class TelemetrySession:
    """One run's worth of telemetry state."""

    def __init__(self, config, options: TelemetryOptions):
        self.config = config
        self.options = options
        self.label = config.label()
        self.registry = MetricsRegistry(enabled=True)
        self.recorder = FlightRecorder(capacity=options.trace_capacity)
        self.run_log_path = Path(options.dir) / f"{self.label}.jsonl"
        self.trace_path = Path(options.dir) / f"{self.label}.trace.jsonl"
        self._writer = RunLogWriter(self.run_log_path)
        self._wall_start = time.perf_counter()
        self._sampler = None
        self._events_fn = lambda: 0
        #: Span tracer streaming into the run log (NULL when disabled).
        self.spans = SpanTracer(self._writer) if options.spans else NULL_SPAN_TRACER
        #: Event-loop profiler to attach as ``sim.profiler`` (None = off).
        self.profiler = (
            EventLoopProfiler(stride=options.profile_stride)
            if options.profile
            else None
        )

    @classmethod
    def start(cls, config, options: Optional[TelemetryOptions]) -> Optional["TelemetrySession"]:
        """Create a session and write the manifest; None when disabled."""
        if options is None:
            return None
        session = cls(config, options)
        session._writer.manifest(
            label=session.label,
            config=config.to_dict(),
            config_hash=config_hash(config.to_dict()),
            repro_version=__version__,
            seed=config.seed,
            engine=config.engine,
        )
        return session

    # -- wiring -------------------------------------------------------------------

    def instrument(self, dumbbell, senders) -> None:
        """Attach the registry and flight recorder to a built experiment."""
        interval_ns = None
        if self.options.sample_interval_s:
            interval_ns = int(self.options.sample_interval_s * 1e9)
        self._sampler = instrument_experiment(
            self.registry, dumbbell, senders, cwnd_interval_ns=interval_ns
        )
        self._events_fn = lambda: dumbbell.sim.events_processed
        recorder = self.recorder
        for sender in senders:
            sender.tracer = recorder
        dumbbell.bottleneck_qdisc.tracer = recorder
        dumbbell.bottleneck_link.tracer = recorder
        if self.profiler is not None:
            dumbbell.sim.profiler = self.profiler
            register_profiler_gauges(self.registry, self.profiler)

    def attach_faults(self, schedule) -> None:
        """Wire a :class:`~repro.faults.schedule.FaultSchedule` into the session.

        Writes the compiled timeline as a ``fault_manifest`` record,
        points the schedule's tracer at the flight recorder (fault firings
        land in the post-mortem window), and registers the
        ``faults_injected_total`` counter.  Attached *after* the schedule
        is armed: the tracer is read at fire time, so attaching never
        perturbs engine event ordering.
        """
        self._writer.fault_manifest(schedule.manifest())
        schedule.tracer = self.recorder
        self.registry.counter(
            "faults_injected_total",
            "Fault mutations fired by the schedule",
            fn=lambda: schedule.injected,
        )
        self.registry.gauge(
            "fault_events_compiled",
            "Events in the compiled fault schedule",
            fn=lambda: len(schedule.events),
        )

    # -- lifecycle ----------------------------------------------------------------

    def _wall_s(self) -> float:
        return time.perf_counter() - self._wall_start

    def progress(self, sim_time_s: float) -> None:
        """Write one progress record (scheduled in simulated time by the runner)."""
        wall = self._wall_s()
        events = self._events_fn()
        self._writer.progress(
            sim_time_s=sim_time_s,
            events=events,
            events_per_sec=events / wall if wall > 0 else 0.0,
        )

    def finish(self, result) -> None:
        """Write metrics + ``ok`` summary; annotate ``result.extra['obs']``."""
        wall = self._wall_s()
        events = self._events_fn()
        eps = events / wall if wall > 0 else 0.0
        self.spans.close_open()  # a leaked span must not block the summary
        if self.profiler is not None:
            self._writer.write("profile", **self.profiler.snapshot())
        fairness = result.extra.get("fairness")
        if not isinstance(fairness, dict):
            fairness = None
        summary_extra: Dict[str, Any] = {}
        if fairness is not None:
            from repro.obs.fairness import (
                fairness_records,
                fairness_summary,
                register_fairness_gauges,
            )

            # Gauges first, so the snapshot below already carries the
            # final fairness values alongside everything else.
            register_fairness_gauges(self.registry, fairness)
            for rec in fairness_records(fairness):
                self._writer.write("fairness", **rec)
            summary_extra["fairness"] = fairness_summary(fairness)
        snapshot = self.registry.snapshot()
        self._writer.metrics(snapshot)
        self._writer.summary(
            status="ok",
            wall_s=wall,
            events=events,
            events_per_sec=eps,
            peak_rss_kb=peak_rss_kb(),
            jain_index=result.jain_index,
            link_utilization=result.link_utilization,
            total_retransmits=result.total_retransmits,
            bottleneck_drops=result.bottleneck_drops,
            trace_events=self.recorder.total_recorded,
            trace_dropped=self.recorder.dropped,
            **summary_extra,
        )
        self._writer.close()
        if self.options.trace_dump:
            self.recorder.dump_jsonl(str(self.trace_path))
        result.extra["obs"] = {
            "run_log": str(self.run_log_path),
            "events_per_sec": eps,
            "peak_rss_kb": peak_rss_kb(),
            "trace_events": self.recorder.total_recorded,
        }
        if self.spans.enabled:
            result.extra["obs"]["spans"] = self.spans.emitted
        if self.profiler is not None:
            result.extra["obs"]["profile_coverage"] = self.profiler.coverage
            result.extra["obs"]["sim_wall_skew"] = self.profiler.skew
        if fairness is not None:
            result.extra["obs"]["fairness_samples"] = fairness.get("samples", 0)

    def record_failure(self, exc: BaseException) -> None:
        """Write an ``error`` summary + dump the flight-recorder window."""
        wall = self._wall_s()
        events = self._events_fn()
        dumped = self.recorder.dump_jsonl(str(self.trace_path))
        # Close abandoned spans innermost-first so the failed run still
        # leaves a complete, validating span tree.
        self.spans.close_open(status="error")
        if self.profiler is not None:
            self._writer.write("profile", **self.profiler.snapshot())
        self._writer.metrics(self.registry.snapshot())
        self._writer.summary(
            status="error",
            wall_s=wall,
            events=events,
            events_per_sec=events / wall if wall > 0 else 0.0,
            peak_rss_kb=peak_rss_kb(),
            error=repr(exc),
            traceback=_traceback.format_exc(),
            trace_dump=str(self.trace_path),
            trace_events_dumped=dumped,
        )
        self._writer.close()
