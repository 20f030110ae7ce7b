"""Unit tests for the fluid AQM drop laws, each on a one-row block."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.fluid import batched
from repro.fluid.aqm_rules import waterfill_rows
from repro.fluid.batched import (
    BatchedFluidSimulation,
    _BatchFifo,
    _BatchFqCodel,
    _BatchPie,
    _BatchRed,
)
from repro.fluid.noise import UniformTable


def one_row(cls, limit_pkts, capacity_pps, n_flows, **kw):
    """A queue law over a block of one config (backlog shape ``(1, n)``)."""
    return cls(
        slice(0, n_flows), np.array([float(limit_pkts)]), np.array([float(capacity_pps)]),
        np.zeros((1, n_flows)), np.zeros((1, n_flows)), np.zeros(1), **kw,
    )


def lottery(n_flows, seed=2):
    return UniformTable([np.random.default_rng(seed)], [n_flows])


def red(limit_pkts, capacity_pps, n_flows, **params):
    return one_row(_BatchRed, limit_pkts, capacity_pps, n_flows,
                   lottery=lottery(n_flows), params=[params])


def step(q, arrivals, dt, now_s):
    """One step of a one-row block, per-flow (1-D) in and out."""
    served, dropped = q.step(np.asarray(arrivals, dtype=float)[None, :], dt, now_s)
    return served[0], dropped[0]


def waterfill(supply, cap):
    return waterfill_rows(supply[None, :], np.array([float(cap)]))[0]


def test_waterfill_no_contention():
    supply = np.array([1.0, 2.0, 3.0])
    out = waterfill(supply, 10.0)
    assert np.allclose(out, supply)


def test_waterfill_equal_split():
    supply = np.array([10.0, 10.0, 10.0])
    out = waterfill(supply, 9.0)
    assert np.allclose(out, 3.0)


def test_waterfill_maxmin_fairness():
    supply = np.array([1.0, 5.0, 10.0])
    out = waterfill(supply, 9.0)
    # Small demand fully served; remainder split equally.
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(4.0)
    assert out[2] == pytest.approx(4.0)
    assert out.sum() == pytest.approx(9.0)


def test_waterfill_conserves_capacity():
    rng = np.random.default_rng(0)
    supply = rng.uniform(0, 10, size=(20, 8))
    cap = rng.uniform(1, 40, size=20)
    out = waterfill_rows(supply, cap)
    assert np.all(out <= supply + 1e-9)
    assert np.all(out.sum(axis=1) <= cap + 1e-9)
    # Rows are independent: each equals its own one-row allocation.
    for row, c, got in zip(supply, cap, out):
        assert np.array_equal(waterfill(row, c), got)


def test_fifo_serves_up_to_capacity():
    q = one_row(_BatchFifo, limit_pkts=100, capacity_pps=1000, n_flows=2)
    delivered, dropped = step(q, [30.0, 10.0], dt=0.01, now_s=0.0)  # cap 10 pkts
    assert delivered.sum() == pytest.approx(10.0)
    assert dropped.sum() == 0.0
    assert q.backlog.sum() == pytest.approx(30.0)


def test_fifo_tail_drops_over_limit():
    q = one_row(_BatchFifo, limit_pkts=20, capacity_pps=1000, n_flows=2)
    delivered, dropped = step(q, [40.0, 0.0], dt=0.01, now_s=0.0)
    assert q.backlog.sum() == pytest.approx(20.0)
    assert dropped[0] == pytest.approx(10.0)  # 40 - 10 served - 20 queued
    assert dropped[1] == 0.0
    assert q.total_dropped[0] == pytest.approx(10.0)


def test_fifo_processor_sharing_by_backlog():
    q = one_row(_BatchFifo, limit_pkts=1000, capacity_pps=1000, n_flows=2)
    q.backlog[0] = [30.0, 10.0]
    delivered, _ = step(q, [0.0, 0.0], dt=0.01, now_s=0.0)
    assert delivered[0] / delivered[1] == pytest.approx(3.0)


def test_red_drops_grow_with_average_queue():
    q = red(limit_pkts=1000, capacity_pps=100, n_flows=1, min_th=10, max_th=50, max_p=0.5)
    total_dropped_low = 0.0
    # Push hard: queue builds past min_th, drops must start.
    for i in range(200):
        _, dropped = step(q, [5.0], dt=0.01, now_s=i * 0.01)
        total_dropped_low += dropped.sum()
    assert q.avg[0] > 10
    assert total_dropped_low > 0


def test_red_no_drops_below_min_th():
    q = red(limit_pkts=1000, capacity_pps=1000, n_flows=1, min_th=100, max_th=500)
    for i in range(100):
        _, dropped = step(q, [5.0], dt=0.01, now_s=i * 0.01)
        assert dropped.sum() == 0.0


def test_fq_codel_equal_service_for_backlogged_flows():
    q = one_row(_BatchFqCodel, limit_pkts=10_000, capacity_pps=1000, n_flows=2)
    q.backlog[0] = [500.0, 500.0]
    delivered, _ = step(q, [0.0, 0.0], dt=0.1, now_s=0.0)
    assert delivered[0] == pytest.approx(delivered[1])


def test_fq_codel_isolates_aggressive_flow():
    """An overloading flow cannot crowd out a modest one."""
    q = one_row(_BatchFqCodel, limit_pkts=10_000, capacity_pps=1000, n_flows=2)
    served = np.zeros(2)
    for i in range(300):
        # flow0 wants 2000 pps, flow1 400 pps
        d, _ = step(q, [20.0, 4.0], dt=0.01, now_s=i * 0.01)
        served += d
    # Flow 1 gets essentially its full demand.
    assert served[1] == pytest.approx(300 * 4.0, rel=0.1)


def test_fq_codel_drop_rate_escalates_to_match_overload():
    """CoDel's sqrt control law ramps drops until they absorb the excess.

    A persistent 1.5x overload needs ~500 pps of drops; the escalation
    reaches that within ~10 s, after which the backlog stops growing.
    """
    q = one_row(_BatchFqCodel, limit_pkts=1_000_000, capacity_pps=1000, n_flows=1)
    backlog_at = {}
    drops = 0.0
    drops_late = 0.0
    for i in range(2000):  # 20 s
        _, d = step(q, [15.0], dt=0.01, now_s=i * 0.01)
        drops += float(d.sum())
        if i >= 1500:
            drops_late += float(d.sum())
        if i in (1000, 1999):
            backlog_at[i] = float(q.backlog[0, 0])
    assert drops > 0
    # Late drop rate approaches the 500 pps excess.
    assert drops_late / 5.0 > 250.0
    # Queue growth has (nearly) stopped.
    growth = backlog_at[1999] - backlog_at[1000]
    assert growth < 0.2 * backlog_at[1000]


def test_fq_codel_memory_limit():
    q = one_row(_BatchFqCodel, limit_pkts=50, capacity_pps=10, n_flows=2)
    step(q, [100.0, 1.0], dt=0.01, now_s=0.0)
    assert q.backlog.sum() <= 50 + 1e-9
    assert q.backlog[0, 1] > 0  # thin flow survives


def _config(aqm, **over):
    return ExperimentConfig(
        cca_pair=("cubic", "cubic"), aqm=aqm, engine="fluid_batched",
        duration_s=1.0, **over,
    )


def test_factory():
    """The integrator gives each block the queue law its AQM names."""
    laws = {"fifo": _BatchFifo, "red": _BatchRed, "fq_codel": _BatchFqCodel, "pie": _BatchPie}
    sim = BatchedFluidSimulation([_config(aqm, seed=s) for s, aqm in enumerate(laws)])
    assert [type(q) for q in sim.blocks] == list(laws.values())
    # RED and PIE draw a lottery, from tables the shard owns.
    assert len(sim._tables) == 3
    with pytest.raises(ValueError, match="codel"):
        sim._make_aqm(("codel", 2), slice(0, 1), np.ones(1), 8)


def test_validation(monkeypatch):
    real = batched.fluid_geometry
    for field in ("limit_pkts", "capacity_pps"):
        monkeypatch.setattr(
            batched, "fluid_geometry",
            lambda c, f=field: dataclasses.replace(real(c), **{f: 0.0}),
        )
        with pytest.raises(ValueError, match="positive"):
            BatchedFluidSimulation([_config("fifo")])
    monkeypatch.setattr(batched, "fluid_geometry", real)
    with pytest.raises(ValueError):
        _config("fifo", flows_per_node=0)
