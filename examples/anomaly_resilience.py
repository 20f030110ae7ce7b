#!/usr/bin/env python
"""Riding out a loss anomaly: CCAs under a mid-transfer loss episode.

Covers two of the paper's future-work items at once: injecting variable
packet loss ("network anomalies") and capturing detailed router telemetry.
Each CCA transfers through the dumbbell while the trunk suffers a 3 %
random-loss episode; per-interval goodput and the bottleneck backlog are
rendered as sparklines.

Run:  python examples/anomaly_resilience.py
"""

from repro.analysis.sparkline import sparkline
from repro.cca.registry import make_cca
from repro.faults import FaultSchedule, FaultSpec
from repro.metrics.queue_monitor import QueueMonitor
from repro.tcp.connection import open_connection
from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
from repro.units import mbps, seconds

DURATION_S = 24
EPISODE = (8, 16)
LOSS = 0.03


def run_one(cca_name: str):
    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(20), buffer_bdp=2.0, mss_bytes=1500, seed=13)
    )
    conn = open_connection(
        db.clients[0], db.servers[0],
        make_cca(cca_name, db.network.rng.stream("cca")), mss=1500,
    )
    conn.start()
    FaultSchedule.compile([FaultSpec(
        "loss_burst", at_s=EPISODE[0], duration_s=EPISODE[1] - EPISODE[0], loss_rate=LOSS,
    )]).arm(db.sim, db)
    monitor = QueueMonitor(db.sim, db.bottleneck_qdisc, seconds(1))
    monitor.start()

    marks = [0]

    def sample():
        marks.append(conn.receiver.bytes_received)
        db.sim.schedule(seconds(1), sample)

    db.sim.schedule(seconds(1), sample)
    db.network.run(seconds(DURATION_S))
    goodput = [(b - a) * 8 / 1e6 for a, b in zip(marks, marks[1:])]
    backlog = [s.backlog_packets for s in monitor.trace.samples]
    return goodput, backlog, conn.sender.retransmits, conn.sender.rto_count


def main() -> None:
    ruler = " " * 10 + "".join(
        "E" if EPISODE[0] <= t < EPISODE[1] else "." for t in range(DURATION_S)
    )
    print(f"3% loss episode between t={EPISODE[0]}s and t={EPISODE[1]}s (E):")
    print(ruler)
    for cca in ("cubic", "htcp", "bbrv1", "bbrv2"):
        goodput, backlog, retx, rtos = run_one(cca)
        print(f"{cca:>8s}  {sparkline(goodput, lo=0, hi=20)}  goodput 0-20 Mbps")
        print(f"{'':>8s}  {sparkline(backlog, lo=0)}  bottleneck backlog "
              f"(max {max(backlog)} pkts) retx={retx} rtos={rtos}")
    print(
        "\nLoss-blind BBRv1 sails through (its model ignores random drops);"
        "\nCUBIC/HTCP crater on every loss; BBRv2 backs off past its 2%"
        "\nthreshold and regrows along its probe-cycle bandwidth ratchet."
    )


if __name__ == "__main__":
    main()
