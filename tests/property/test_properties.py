"""Property-based tests on core data structures and invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.aqm.fifo import FifoQueue
from repro.cca.bbr_common import WindowedMax, WindowedMin
from repro.metrics.fairness import jain_index
from repro.net.packet import make_data_packet
from repro.sim.engine import Simulator
from repro.tcp.intervals import IntervalSet
from repro.tcp.rate_sample import SegmentSendState
from repro.tcp.rtt import MAX_RTO_NS, MIN_RTO_NS, RttEstimator
from repro.fluid.aqm_rules import waterfill_rows


# --- Jain index -------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=20))
def test_jain_bounds(values):
    j = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9


@given(st.lists(st.floats(min_value=1e-6, max_value=1e9), min_size=1, max_size=20),
       st.floats(min_value=1e-6, max_value=1e6))
def test_jain_scale_invariant(values, k):
    assume(all(math.isfinite(v * k) for v in values))
    assert jain_index(values) == pytest.approx(jain_index([v * k for v in values]), rel=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e9), st.integers(min_value=1, max_value=20))
def test_jain_equal_shares_perfect(value, n):
    assert jain_index([value] * n) == pytest.approx(1.0, rel=1e-12)


# --- IntervalSet -------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=200), max_size=100))
def test_intervalset_matches_python_set(values):
    s = IntervalSet()
    ref = set()
    for v in values:
        s.add(v)
        ref.add(v)
    assert s.total == len(ref)
    for v in range(-1, 202):
        assert (v in s) == (v in ref)
    # Ranges are disjoint, sorted, and non-empty.
    prev_end = None
    for start, end in s:
        assert start < end
        if prev_end is not None:
            assert start > prev_end  # coalesced: no touching ranges
        prev_end = end


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20)), max_size=40))
def test_intervalset_range_inserts(ranges):
    s = IntervalSet()
    ref = set()
    for start, length in ranges:
        s.add_range(start, start + length)
        ref.update(range(start, start + length))
    assert s.total == len(ref)


# --- Scoreboard pipe invariant -------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=60),
    st.lists(st.tuples(st.integers(0, 59), st.integers(1, 10)), max_size=10),
    st.integers(min_value=0, max_value=60),
)
@settings(max_examples=60)
def test_scoreboard_pipe_invariant(n_sent, sack_blocks, ack_to):
    """pipe == sum of live copies, and never negative."""
    from repro.tcp.sack import Scoreboard

    sb = Scoreboard()
    for seq in range(n_sent):
        sb.register_send(seq, SegmentSendState(0, 0, 0, 0, False))
    snd_una = 0
    sacks = tuple((s, min(n_sent, s + l)) for s, l in sack_blocks)
    sb.apply_sacks(sacks, snd_una, n_sent)
    sb.mark_losses(snd_una)
    for _ in range(5):
        seq = sb.next_retx(snd_una)
        if seq is None:
            break
        sb.register_retx(seq, SegmentSendState(0, 0, 0, 0, False))
    ack_to = min(ack_to, n_sent)
    sb.cumulative_ack(snd_una, ack_to)
    assert sb.pipe >= 0
    expected = sum(e.copies for e in sb.entries.values())
    assert sb.pipe == expected


# --- windowed filters ---------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 1000), st.floats(0, 1e6)), min_size=1, max_size=100))
def test_windowed_max_correct(samples):
    samples = sorted(samples, key=lambda x: x[0])
    f = WindowedMax(10)
    inserted = []
    for tick, value in samples:
        f.update(value, tick)
        inserted.append((tick, value))
        expected = max(v for t, v in inserted if t > tick - 10)
        assert f.get(tick) == expected


@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 10**9)),
                min_size=1, max_size=100))
def test_windowed_min_lower_bound(samples):
    samples = sorted(samples, key=lambda x: x[0])
    f = WindowedMin(1000)
    for t, v in samples:
        f.update(v, t)
    t_last = samples[-1][0]
    got = f.get(t_last)
    window_vals = [v for t, v in samples if t > t_last - 1000]
    assert got <= min(window_vals)
    assert got >= min(v for _, v in samples)


# --- RTO bounds ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=10**10), min_size=1, max_size=50))
def test_rto_always_bounded(samples):
    est = RttEstimator()
    for s in samples:
        est.on_sample(s)
        assert MIN_RTO_NS <= est.rto_ns <= MAX_RTO_NS
    est.on_backoff()
    assert est.rto_ns <= MAX_RTO_NS


# --- FIFO conservation ------------------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=60),
       st.integers(min_value=1000, max_value=100_000))
def test_fifo_conservation(sizes, limit):
    q = FifoQueue(limit)
    accepted = 0
    for i, size in enumerate(sizes):
        if q.enqueue(make_data_packet(1, "a", "b", seq=i, mss=size, now=0), 0):
            accepted += 1
    drained = 0
    while q.dequeue(0) is not None:
        drained += 1
    assert accepted == drained
    assert accepted + q.stats.dropped_enqueue == len(sizes)
    assert q.bytes_queued == 0


# --- simulator ordering -------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=80))
def test_simulator_global_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.schedule(d, fired.append, (d, i))
    sim.run()
    assert fired == sorted(fired)  # time, then insertion order


# --- waterfill ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
    st.floats(min_value=0.01, max_value=1e7),
)
def test_waterfill_properties(supply, cap):
    supply_arr = np.array(supply)
    out = waterfill_rows(supply_arr[None, :], np.array([cap]))[0]
    assert np.all(out >= -1e-9)
    assert np.all(out <= supply_arr + 1e-6)
    total = float(out.sum())
    assert total <= cap + 1e-6 or total <= supply_arr.sum() + 1e-6
    if supply_arr.sum() <= cap:
        assert np.allclose(out, supply_arr)
    else:
        assert total == pytest.approx(cap, rel=1e-6, abs=1e-6)


import pytest  # noqa: E402  (used by approx above)
