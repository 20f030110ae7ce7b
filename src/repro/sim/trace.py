"""Lightweight tracing hooks.

The data path calls ``tracer.record(kind, time_ns, **fields)`` at interesting
points (enqueue drops, retransmissions, state transitions).  The default
:class:`NullTracer` makes these calls nearly free; tests, debugging and
telemetry swap in the bounded :class:`repro.obs.flight.FlightRecorder`,
which records them into a ring buffer.
"""

from __future__ import annotations

from typing import Any


class NullTracer:
    """Discards everything.  Used in production runs."""

    __slots__ = ()

    enabled = False

    def record(self, kind: str, time_ns: int, **fields: Any) -> None:
        """No-op."""


NULL_TRACER = NullTracer()
