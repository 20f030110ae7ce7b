"""Unit tests for the fluid PIE controller, on a one-row block."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import BatchedFluidSimulation, _BatchPie

from tests.fluid.test_aqm_rules import lottery, one_row, step


def _pie(capacity=1000.0, limit=10_000.0):
    return one_row(_BatchPie, limit, capacity, 1, lottery=lottery(1))


def test_no_drops_when_underloaded():
    q = _pie()
    total = 0.0
    for i in range(500):
        _, dropped = step(q, [5.0], dt=0.01, now_s=i * 0.01)  # 500 pps vs 1000
        total += dropped.sum()
    assert total == 0.0
    assert q.drop_prob[0] == pytest.approx(0.0, abs=1e-9)


def test_overload_raises_probability_and_drops():
    q = _pie()
    total = 0.0
    for i in range(2000):
        _, dropped = step(q, [20.0], dt=0.01, now_s=i * 0.01)  # 2x capacity
        total += dropped.sum()
    assert q.drop_prob[0] > 0.0
    assert total > 0.0
    assert q.total_dropped[0] == pytest.approx(total)


def test_probability_decays_when_idle():
    q = _pie()
    for i in range(2000):
        step(q, [20.0], dt=0.01, now_s=i * 0.01)
    high = q.drop_prob[0]
    for i in range(3000):
        step(q, [0.0], dt=0.01, now_s=20 + i * 0.01)
    assert q.drop_prob[0] < high / 2


def test_controller_bounds_queue_delay():
    """PIE holds the standing queue near its 15 ms target under overload."""
    q = _pie(capacity=1000.0, limit=1_000_000.0)
    for i in range(6000):  # 60 s
        step(q, [15.0], dt=0.01, now_s=i * 0.01)
    sojourn_s = q.backlog.sum() / 1000.0
    assert sojourn_s < 0.2  # far below the (huge) hard limit


def test_factory_and_validation():
    config = ExperimentConfig(
        cca_pair=("cubic", "cubic"), aqm="pie", engine="fluid", duration_s=1.0,
        flows_per_node=2,
    )
    sim = BatchedFluidSimulation([config])
    (q,) = sim.blocks
    assert isinstance(q, _BatchPie)
    # One lottery uniform per flow per step, drawn whether or not PIE drops.
    assert q.lottery.next_row().shape == (4,)
    with pytest.raises(ValueError, match="aqm_params"):
        ExperimentConfig(
            cca_pair=("cubic", "cubic"), aqm="pie", engine="fluid",
            aqm_params={"target_ms": 5},
        )
