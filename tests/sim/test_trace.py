"""Unit tests for tracing hooks (the recording tracer is
:class:`repro.obs.flight.FlightRecorder`, tested in tests/obs/test_flight.py)."""

from repro.sim.trace import NullTracer


def test_null_tracer_discards():
    t = NullTracer()
    t.record("drop", 100, flow=1)  # must not raise
    assert not t.enabled
