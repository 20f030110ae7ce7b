"""repro.obs — telemetry subsystem.

Structured observability for runs and campaigns: a pull-based
counter/gauge/histogram :class:`~repro.obs.metrics.MetricsRegistry`, a
bounded :class:`~repro.obs.flight.FlightRecorder` tracer, JSONL run
logs/manifests (:mod:`repro.obs.runlog`), Prometheus text-format export
(:mod:`repro.obs.export`), and the per-run
:class:`~repro.obs.session.TelemetrySession` lifecycle the experiment
runner drives.  See ``docs/OBSERVABILITY.md``.

Import the submodule you need: a process that never turns telemetry on
never loads the session, the profiler or the run-log writer.
"""

#: Default location for run logs, manifests, and trace dumps.
DEFAULT_TELEMETRY_DIR = "telemetry"
