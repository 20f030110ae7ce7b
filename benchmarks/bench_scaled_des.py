"""Packet-engine anchor: a scaled-rate slice of the grid on the DES.

The paper's figures are regenerated from fluid-engine sweeps (the only
way to reach the 10/25 Gbps tiers in Python); this bench regenerates the
same headline comparisons at packet granularity with rates scaled down 250x, verifying
the fluid results aren't artifacts of the mean-field approximation.
"""

from benchmarks.common import banner, run_once
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_packet_experiment
from repro.units import mbps

SCALE_NOTE = "packet engine, rates = paper tiers / 250, mss 1500"

CASES = [
    # (pair, aqm, buffer, expectation key)
    (("bbrv1", "cubic"), "fifo", 0.5, "bbr_wins"),
    (("bbrv1", "cubic"), "fifo", 16.0, "cubic_wins"),
    (("bbrv1", "cubic"), "red", 2.0, "bbr_starves_cubic"),
    (("bbrv1", "cubic"), "fq_codel", 2.0, "fair"),
    (("cubic", "cubic"), "fifo", 2.0, "fair"),
    (("reno", "reno"), "red", 2.0, "fair"),
]


def _run_case(pair, aqm, buf):
    return run_packet_experiment(
        ExperimentConfig(
            cca_pair=pair, aqm=aqm, buffer_bdp=buf,
            bottleneck_bw_bps=mbps(100), scale=5.0,  # 20 Mbps effective
            duration_s=20.0, warmup_s=4.0, mss_bytes=1500,
            flows_per_node=1, seed=17,
        )
    )


def _regenerate():
    return [(case, _run_case(*case[:3])) for case in CASES]


def test_scaled_des_anchor(benchmark):
    outcomes = run_once(benchmark, _regenerate)
    print(banner(f"Packet-engine anchor ({SCALE_NOTE})"))
    for (pair, aqm, buf, expect), r in outcomes:
        s1, s2 = r.senders[0].throughput_bps, r.senders[1].throughput_bps
        print(
            f"  {pair[0]:>5s} vs {pair[1]:<5s} {aqm:<8s} {buf:>4.1f}BDP: "
            f"{s1 / 1e6:6.2f} / {s2 / 1e6:6.2f} Mbps  J={r.jain_index:.3f} "
            f"phi={r.link_utilization:.3f} retx={r.total_retransmits}"
        )
        if expect == "bbr_wins":
            assert s1 > s2
        elif expect == "cubic_wins":
            assert s2 > s1
        elif expect == "bbr_starves_cubic":
            assert s1 > 3 * s2
        elif expect == "fair":
            assert r.jain_index > 0.85
