"""Ablation: performance under network anomalies (paper future work).

"We intend to ... observe performance under network anomalies (e.g.
variable rates of packet loss)."  This bench injects a mid-run random-loss
episode on the trunk and compares how the loss-tolerant (BBRv2) and
loss-based (CUBIC) algorithms ride through it, using the packet engine.
"""

from benchmarks.common import banner, run_once
from repro.cca.registry import make_cca
from repro.faults import FaultSchedule, FaultSpec
from repro.tcp.connection import open_connection
from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
from repro.units import mbps, seconds

DURATION_S = 24.0
EPISODE = (8.0, 16.0)  # seconds
LOSS_RATE = 0.03


def _run(cca_name):
    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(20), buffer_bdp=2.0, mss_bytes=1500, seed=13)
    )
    conn = open_connection(
        db.clients[0], db.servers[0],
        make_cca(cca_name, db.network.rng.stream("cca")), mss=1500,
    )
    conn.start()
    FaultSchedule.compile([FaultSpec(
        "loss_burst", at_s=EPISODE[0], duration_s=EPISODE[1] - EPISODE[0], loss_rate=LOSS_RATE,
    )]).arm(db.sim, db)
    marks = [0]

    def sample():
        marks.append(conn.receiver.bytes_received)
        db.sim.schedule(seconds(2), sample)

    db.sim.schedule(seconds(2), sample)
    db.network.run(seconds(DURATION_S))
    rates_mbps = [(b - a) * 8 / 2 / 1e6 for a, b in zip(marks, marks[1:])]
    return rates_mbps, conn.sender.retransmits


def _phase_mean(rates, lo_s, hi_s):
    lo, hi = int(lo_s // 2), int(hi_s // 2)
    window = rates[lo:hi]
    return sum(window) / len(window)


def _regenerate():
    return {cca: _run(cca) for cca in ("cubic", "bbrv2", "bbrv1")}


def test_loss_episode_response(benchmark):
    outcomes = run_once(benchmark, _regenerate)
    print(banner(
        f"Ablation — {LOSS_RATE:.0%} trunk loss episode at t={EPISODE[0]:.0f}-{EPISODE[1]:.0f}s "
        "(packet engine, 20 Mbps)"
    ))
    print(f"  {'cca':<6s} {'before':>8s} {'during':>8s} {'after':>8s} {'retx':>6s}  (Mbps)")
    summary = {}
    for cca, (rates, retx) in outcomes.items():
        before = _phase_mean(rates, 4, EPISODE[0])
        during = _phase_mean(rates, EPISODE[0], EPISODE[1])
        after = _phase_mean(rates, EPISODE[1] + 2, DURATION_S)
        summary[cca] = (before, during, after)
        print(f"  {cca:<6s} {before:>8.2f} {during:>8.2f} {after:>8.2f} {retx:>6d}")

    # Random loss craters the loss-based CCA; loss-blind BBRv1 rides
    # through nearly untouched (at a retransmission cost).
    assert summary["cubic"][1] < 0.6 * summary["cubic"][0]
    assert summary["bbrv1"][1] > 0.7 * summary["bbrv1"][0]
    assert outcomes["bbrv1"][1] > outcomes["bbrv2"][1]  # retx cost
    # CUBIC and BBRv1 recover substantially within 8 s of the episode.
    assert summary["cubic"][2] > 0.3 * summary["cubic"][0]
    assert summary["bbrv1"][2] > 0.7 * summary["bbrv1"][0]
    # BBRv2's 2%-threshold response craters hard and recovers on its
    # ~1.25x-per-probe-cycle bandwidth ratchet: slower, but monotone.
    v2_rates = outcomes["bbrv2"][0]
    post = v2_rates[int((EPISODE[1] + 2) // 2):]
    assert post[-1] > post[0]
