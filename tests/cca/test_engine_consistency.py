"""The two engines must model the same algorithms: shared constants.

A divergence here means a calibration change was applied to one engine
but not the other — the exact failure mode that would silently invalidate
the fluid engine's high-tier results.
"""

import pytest

from repro.cca import bbrv2 as pkt_bbrv2
from repro.cca import cubic as pkt_cubic
from repro.cca import htcp as pkt_htcp
from repro.cca import reno as pkt_reno
from repro.fluid import cca_rules as fluid


def test_reno_beta():
    assert pkt_reno.RENO_BETA == fluid.FluidReno.BETA == 0.5


def test_cubic_constants():
    assert pkt_cubic.CUBIC_C == fluid.FluidCubic.C == 0.4
    assert pkt_cubic.CUBIC_BETA == fluid.FluidCubic.BETA == 0.7


def test_htcp_constants():
    assert pkt_htcp.HTCP_BETA_MIN == fluid.FluidHTcp.BETA_MIN == 0.5
    assert pkt_htcp.HTCP_BETA_MAX == fluid.FluidHTcp.BETA_MAX == 0.8
    assert pkt_htcp.HTCP_DELTA_L_S == fluid.FluidHTcp.DELTA_L_S == 1.0


def test_bbrv2_loss_model():
    assert pkt_bbrv2.LOSS_THRESH == fluid.FluidBbrV2.LOSS_THRESH == 0.02
    assert pkt_bbrv2.BETA == fluid.FluidBbrV2.BETA == 0.7
    assert pkt_bbrv2.HEADROOM == fluid.FluidBbrV2.HEADROOM == 0.15


def test_bbrv1_gains():
    from repro.cca import bbrv1 as pkt_bbrv1

    assert pkt_bbrv1.BBR_HIGH_GAIN == pytest.approx(fluid.FluidBbrV1.HIGH_GAIN)
    assert pkt_bbrv1.BBR_CWND_GAIN == fluid.FluidBbrV1.CWND_GAIN == 2.0
    assert tuple(pkt_bbrv1.BBR_PACING_CYCLE) == tuple(fluid.FluidBbrV1.CYCLE)


def test_red_defaults_consistent():
    """Both engines use the classic fixed 30/90 thresholds (in their units)."""
    import numpy as np

    from repro.aqm.red import RedQueue
    from repro.fluid.batched import _BatchRed
    from repro.fluid.noise import UniformTable

    pkt = RedQueue(10**9, np.random.default_rng(0), avpkt=1500)
    assert pkt.min_th == 30 * 1500
    assert pkt.max_th == 90 * 1500
    fl = _BatchRed(
        slice(0, 1), np.array([1e6]), np.array([1000.0]), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros(1),
        lottery=UniformTable([np.random.default_rng(0)], [1]), params=[{}],
    )
    assert fl.min_th[0] == 30.0
    assert fl.max_th[0] == 90.0
    assert pkt.max_p == fl.max_p[0] == 0.02


def test_codel_parameters_consistent():
    from repro.aqm.codel import DEFAULT_INTERVAL_NS, DEFAULT_TARGET_NS
    from repro.fluid.batched import _BatchFqCodel

    assert DEFAULT_TARGET_NS / 1e9 == _BatchFqCodel.TARGET_S == 0.005
    assert DEFAULT_INTERVAL_NS / 1e9 == _BatchFqCodel.INTERVAL_S == 0.100


def test_pie_parameters_consistent():
    from repro.aqm import pie as pkt_pie
    from repro.fluid.batched import _BatchPie

    assert pkt_pie.DEFAULT_TARGET_NS / 1e9 == _BatchPie.TARGET_S
    assert pkt_pie.DEFAULT_T_UPDATE_NS / 1e9 == _BatchPie.T_UPDATE_S
    assert pkt_pie.ALPHA == _BatchPie.ALPHA
    assert pkt_pie.BETA == _BatchPie.BETA


def test_cross_engine_jain_cubic_pair_100mbps():
    """Packet and fluid engines agree on CUBIC-vs-CUBIC fairness at 100 Mbps.

    The engines model at very different granularities (per-segment events
    vs per-RTT rate ODEs), so throughput numbers differ — but both must
    land in the same qualitative regime.  Intra-CCA CUBIC on a 2 BDP FIFO
    is the paper's canonical "fair" cell (Jain near 1); we assert each
    engine reports a high index and that they agree within 0.15, a
    tolerance chosen well above seed-to-seed noise (<0.05 for this cell)
    but tight enough to catch a calibration regression in either engine.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.units import mbps

    common = dict(
        cca_pair=("cubic", "cubic"),
        aqm="fifo",
        buffer_bdp=2.0,
        bottleneck_bw_bps=mbps(100),
        duration_s=30.0,
        seed=3,
        flows_per_node=1,
    )
    packet = run_experiment(ExperimentConfig(engine="packet", **common))
    fluid = run_experiment(ExperimentConfig(engine="fluid", **common))

    assert packet.jain_index > 0.8
    assert fluid.jain_index > 0.8
    assert abs(packet.jain_index - fluid.jain_index) < 0.15
    # Both engines should also see a well-utilized bottleneck.
    assert packet.link_utilization > 0.7
    assert fluid.link_utilization > 0.7
