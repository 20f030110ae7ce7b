"""The two engines must model the same algorithms.

Every number both engines model is assigned once, in
:mod:`repro.calibration`, and imported by the packet classes, the per-flow
fluid rules and the batched kernels; these tests check what the engines
derive from that table and where their results meet.
"""

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
