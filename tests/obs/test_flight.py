"""Unit tests for the flight-recorder ring-buffer tracer."""

import io
import json

import pytest

from repro.obs.flight import FlightRecorder


def test_records_in_order_below_capacity():
    r = FlightRecorder(capacity=8)
    r.record("drop", 100, flow=1)
    r.record("retx", 200, flow=2, seq=5)
    assert r.events == [("drop", 100, {"flow": 1}), ("retx", 200, {"flow": 2, "seq": 5})]
    assert len(r) == 2
    assert r.total_recorded == 2
    assert r.dropped == 0
    assert r.counts["drop"] == 1


def test_overflow_wraps_and_keeps_newest():
    r = FlightRecorder(capacity=4)
    for i in range(10):
        r.record("ev", i)
    assert len(r) == 4
    assert r.total_recorded == 10
    assert r.dropped == 6
    # The window is the newest four, oldest to newest.
    assert [t for _, t, _ in r.events] == [6, 7, 8, 9]


def test_of_kind_after_wrap_prunes_evicted():
    r = FlightRecorder(capacity=4)
    r.record("a", 0)  # will be evicted
    for i in range(1, 5):
        r.record("b", i)
    assert r.of_kind("a") == []
    assert [t for _, t, _ in r.of_kind("b")] == [1, 2, 3, 4]
    # Counts still cover evicted events.
    assert r.counts["a"] == 1


def test_of_kind_interleaved_matches_events_order():
    r = FlightRecorder(capacity=100)
    for i in range(20):
        r.record("a" if i % 2 == 0 else "b", i)
    assert [t for _, t, _ in r.of_kind("a")] == list(range(0, 20, 2))
    assert r.of_kind("a")[-1] is r.events[-2]  # the recorded tuple, not a copy
    assert r.of_kind("missing") == []


def test_of_kind_returns_fresh_list():
    r = FlightRecorder(capacity=4)
    r.record("a", 1)
    first = r.of_kind("a")
    first.append("junk")
    assert r.of_kind("a") == [("a", 1, {})]


def test_clear_resets_everything():
    r = FlightRecorder(capacity=4)
    for i in range(6):
        r.record("x", i)
    r.clear()
    assert r.events == []
    assert r.counts["x"] == 0
    assert r.total_recorded == 0
    assert r.dropped == 0
    assert r.of_kind("x") == []
    r.record("x", 1)
    assert len(r) == 1


def test_dump_jsonl_time_ordered_after_wrap(tmp_path):
    r = FlightRecorder(capacity=3)
    for i in range(7):
        r.record("ev", i * 10, flow=i)
    path = tmp_path / "trace.jsonl"
    written = r.dump_jsonl(str(path))
    assert written == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["time_ns"] for row in rows] == [40, 50, 60]
    assert rows[0] == {"kind": "ev", "time_ns": 40, "flow": 4}


def test_dump_jsonl_last_n_and_file_handle():
    r = FlightRecorder(capacity=10)
    for i in range(5):
        r.record("ev", i)
    buf = io.StringIO()
    assert r.dump_jsonl(buf, last=2) == 2
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [row["time_ns"] for row in rows] == [3, 4]
    assert r.dump_jsonl(io.StringIO(), last=0) == 0
    with pytest.raises(ValueError):
        r.dump_jsonl(io.StringIO(), last=-1)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_tracer_protocol_compatibility():
    # Any tracer-accepting hook can take a FlightRecorder.
    r = FlightRecorder()
    assert r.enabled
    r.record("queue_drop", 123, point="tail", flow=1, seq=9)
    (kind, t, fields), = r.of_kind("queue_drop")
    assert (kind, t, fields["point"]) == ("queue_drop", 123, "tail")
