"""Unit + integration tests for convergence analysis."""

import pytest

from repro.analysis.convergence import (
    convergence_time_s,
    fairness_half_life_s,
    jain_series,
    sender_interval_series,
    series_convergence_time_s,
    series_oscillation_count,
    series_sync_loss_times,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_packet_experiment
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps


def _synthetic(series, interval_s=1.0):
    """Two flows, one per sender, with prescribed per-interval series."""
    flows = FlowTable.from_rows([
        (1, "client1", "a", 1.0, 0, 0, 0, 0, 0),
        (2, "client2", "b", 1.0, 0, 0, 0, 0, 0),
    ])
    return ExperimentResult(
        config={"cca_pair": ["a", "b"], "aqm": "fifo", "buffer_bdp": 2.0,
                "bottleneck_bw_bps": 1e8, "seed": 1},
        senders=[SenderStats("client1", "a", 1.0, 0, 1), SenderStats("client2", "b", 1.0, 0, 1)],
        flows=flows,
        jain_index=1.0, link_utilization=1.0, total_retransmits=0,
        total_throughput_bps=2.0, bottleneck_drops=0, duration_s=10.0, engine="packet",
        extra={"interval_s": interval_s,
               "series_bps": {"flow1": series[0], "flow2": series[1]}},
    )


def test_sender_series_aggregates_flows():
    r = _synthetic(([10, 20], [30, 40]))
    per_sender = sender_interval_series(r)
    assert per_sender == {"client1": [10, 20], "client2": [30, 40]}


def test_jain_series_values():
    r = _synthetic(([10, 10, 10], [0, 10, 30]))
    series = jain_series(r)
    assert series[0] == pytest.approx(0.5)
    assert series[1] == pytest.approx(1.0)
    assert series[2] == pytest.approx((40) ** 2 / (2 * (100 + 900)))


def test_convergence_time():
    # J: 0.5, 0.5, 1.0, 1.0, 1.0 -> converges (hold=3) at interval 3 -> 3 s.
    r = _synthetic(([10, 10, 10, 10, 10], [0, 0, 10, 10, 10]))
    assert convergence_time_s(r, threshold=0.9, hold_intervals=3) == pytest.approx(3.0)


def test_never_converges():
    r = _synthetic(([10, 10, 10], [0, 0, 0]))
    assert convergence_time_s(r) is None


def test_half_life():
    # J0 = 0.5; target 0.75; reached at second interval -> 2 s.
    r = _synthetic(([10, 10, 10], [0, 4, 10]))
    assert fairness_half_life_s(r) == pytest.approx(2.0)


def test_validation_errors():
    r = _synthetic(([1], [1]))
    with pytest.raises(ValueError):
        convergence_time_s(r, threshold=0)
    with pytest.raises(ValueError):
        convergence_time_s(r, hold_intervals=0)
    bare = _synthetic(([1], [1]))
    bare.extra = {}
    with pytest.raises(ValueError):
        jain_series(bare)


def test_sender_series_raises_on_ragged_lengths():
    # flow1 has 3 intervals, flow2 only 2: summing would mis-attribute
    # the tail to flow1's sender, so this must be a hard error.
    r = _synthetic(([10, 20, 30], [30, 40]))
    with pytest.raises(ValueError, match="lengths differ"):
        sender_interval_series(r)


def test_series_convergence_empty():
    assert series_convergence_time_s([], []) is None


def test_series_convergence_never():
    times = [1.0, 2.0, 3.0, 4.0]
    assert series_convergence_time_s(times, [0.5, 0.6, 0.7, 0.8]) is None


def test_series_convergence_at_first_sample():
    # Converged from the very first sample: the window starts at t=0.5.
    times = [0.5, 1.0, 1.5, 2.0]
    t = series_convergence_time_s(times, [0.95, 0.96, 0.97, 0.98])
    assert t == pytest.approx(0.5)


def test_series_convergence_single_interval_hold():
    # hold_intervals=1: the first sample at threshold is the answer,
    # including for a single-sample series.
    assert series_convergence_time_s([2.5], [0.91], hold_intervals=1) == pytest.approx(2.5)
    assert series_convergence_time_s([2.5], [0.89], hold_intervals=1) is None


def test_series_convergence_interrupted_run_resets():
    # A dip inside the window restarts the hold count.
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    series = [0.95, 0.95, 0.5, 0.95, 0.95, 0.95]
    assert series_convergence_time_s(times, series) == pytest.approx(4.0)


def test_series_convergence_validation():
    with pytest.raises(ValueError):
        series_convergence_time_s([1.0], [0.5], threshold=0.0)
    with pytest.raises(ValueError):
        series_convergence_time_s([1.0], [0.5], hold_intervals=0)
    with pytest.raises(ValueError):
        series_convergence_time_s([1.0, 2.0], [0.5])


def test_series_oscillations():
    assert series_oscillation_count([]) == 0
    assert series_oscillation_count([0.95]) == 0
    # Two falls out of the fair regime.
    assert series_oscillation_count([0.95, 0.5, 0.95, 0.5, 0.6]) == 2
    # Never reaches, or never leaves: no oscillation.
    assert series_oscillation_count([0.5, 0.6, 0.7]) == 0
    assert series_oscillation_count([0.95, 0.96, 0.97]) == 0
    with pytest.raises(ValueError):
        series_oscillation_count([0.5], threshold=1.5)


def test_series_sync_loss_times():
    times = [1.0, 2.0, 3.0, 4.0]
    # 0.9 -> 0.4 is a 55% drop from above the floor: flagged at t=2.
    assert series_sync_loss_times(times, [0.9, 0.4, 0.9, 0.8]) == [2.0]
    # A crash from below the floor is startup noise, not synchronization.
    assert series_sync_loss_times(times, [0.3, 0.1, 0.3, 0.25]) == []
    assert series_sync_loss_times([], []) == []
    with pytest.raises(ValueError):
        series_sync_loss_times(times, [0.9, 0.4, 0.9, 0.8], drop_frac=1.0)
    with pytest.raises(ValueError):
        series_sync_loss_times([1.0], [0.9, 0.4])


def test_real_run_intra_cca_converges_quickly():
    r = run_packet_experiment(
        ExperimentConfig(cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(10),
                         duration_s=20.0, mss_bytes=1500, flows_per_node=1,
                         seed=29, sample_interval_s=1.0)
    )
    t = convergence_time_s(r, threshold=0.85, hold_intervals=3)
    assert t is not None
    assert t <= 15.0
