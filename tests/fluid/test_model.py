"""Unit tests for the fluid integrator, driven through configs.

The bottleneck here is 12 Mbps of 1500-byte segments — 1 000 packets/s —
over the paper's 62 ms path, so one BDP is 62 packets.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import BatchedFluidSimulation, PerFlowFluidSimulation

CAPACITY_PPS = 1000.0


def _config(cca="reno", flows_per_node=1, buffer_bdp=1.6, **over):
    params = dict(
        cca_pair=(cca, cca),
        aqm="fifo",
        buffer_bdp=buffer_bdp,
        bottleneck_bw_bps=CAPACITY_PPS * 8 * 1500,
        mss_bytes=1500,
        duration_s=30.0,
        seed=1,
        flows_per_node=flows_per_node,
        engine="fluid",
    )
    params.update(over)
    return ExperimentConfig(**params)


def _sim(config=None, starts=None):
    """One config on the integrator; ``starts`` overrides the start jitter
    (``inf`` keeps a lane idle for the whole run)."""
    sim = PerFlowFluidSimulation([config or _config()])
    if starts is not None:
        sim.start_times[:] = starts
        sim.next_round[:] = sim.start_times + sim.base_rtt
        sim.round_started_at[:] = sim.start_times
    return sim


def test_single_flow_saturates_link():
    sim = _sim(starts=[0.0, np.inf])
    sim.run(20.0)
    assert sim.delivered_total[1] == 0.0
    assert sim.delivered_total[0] / (CAPACITY_PPS * 20.0) > 0.85


def test_two_reno_flows_fair_share():
    sim = _sim()
    sim.run(30.0)
    a, b = sim.delivered_total
    assert a + b > 0.85 * CAPACITY_PPS * 30
    assert min(a, b) / max(a, b) > 0.6


def test_delivery_never_exceeds_capacity():
    sim = _sim(_config(flows_per_node=2))
    sim.run(10.0)
    assert sim.delivered_total.sum() <= CAPACITY_PPS * 10.0 * 1.001


def test_start_times_stagger_flows():
    sim = _sim(starts=[0.0, 5.0])
    sim.run(4.0)
    assert sim.delivered_total[0] > 0
    assert sim.delivered_total[1] == 0.0
    sim.run(6.0)
    assert sim.delivered_total[1] > 0


def test_drops_accounted_under_small_buffer():
    sim = _sim(_config(buffer_bdp=5 / 62))
    sim.run(20.0)
    assert sim.dropped_total.sum() > 0
    assert sim.dropped_total.sum() == pytest.approx(sim.aqm_dropped.sum())


def test_flow_count_mismatch_rejected():
    # Every lane belongs to a config's flow plan; a config cannot ask
    # for a sender node without flows.
    with pytest.raises(ValueError):
        _config(flows_per_node=0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        BatchedFluidSimulation([])
    with pytest.raises(ValueError, match="shard-compatible"):
        BatchedFluidSimulation([_config(), _config(delay_multiplier=2.0)])
    with pytest.raises(ValueError):
        _config(bottleneck_bw_bps=0)
    with pytest.raises(ValueError):
        _config(delay_multiplier=0)


def test_bbr_flow_converges():
    sim = _sim(_config(cca="bbrv1"), starts=[0.0, np.inf])
    sim.run(20.0)
    assert sim.delivered_total[0] / (CAPACITY_PPS * 20.0) > 0.7


def test_rounds_advance_with_rtt():
    sim = _sim()
    sim.run(1.0)
    # ~16 rounds in 1 s at 62 ms RTT (fewer with queueing).
    assert 5 <= sim.flows[0].cwnd  # slow start ran several rounds
    assert sim.cwnd[0] == sim.flows[0].cwnd


def test_measurement_window_excludes_warmup():
    """measured_delivered counts only post-begin_measurement delivery, and
    averaging over the whole run dilutes its rate with warmup."""
    sim = _sim()
    sim.run(5.0)
    warmup_delivered = sim.delivered_total.copy()
    sim.begin_measurement()
    assert np.array_equal(sim.measured_delivered, np.zeros(2))
    sim.run(10.0)

    window = sim.measured_delivered
    assert np.array_equal(window, sim.delivered_total - warmup_delivered)
    # Slow start means the first 5 s deliver less than steady state, so
    # full-duration averaging understates the measured-window rate.
    assert sim.delivered_total.sum() / 15.0 < window.sum() / 10.0


def test_measurement_window_defaults_to_whole_run():
    """Without begin_measurement, measured_delivered is the run total."""
    sim = _sim()
    sim.run(3.0)
    assert np.array_equal(sim.measured_delivered, sim.delivered_total)
