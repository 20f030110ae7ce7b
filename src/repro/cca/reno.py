"""TCP Reno (RFC 5681): slow start, AIMD congestion avoidance.

On loss the window halves (beta = 0.5) — the paper's explanation for Reno
"gradually losing its fair share" to CUBIC as buffers grow is precisely
this fixed halving versus CUBIC's adaptive decrease and cubic regrowth.
"""

from __future__ import annotations

from repro.calibration import MIN_CWND_SEGMENTS, RENO_BETA
from repro.cca.base import AckEvent, CongestionControl


class Reno(CongestionControl):
    """Classic AIMD: slow start + 0.5 multiplicative decrease."""
    name = "reno"

    def __init__(self) -> None:
        super().__init__()
        self._last_cut_ns = -1

    def on_ack(self, ev: AckEvent) -> None:
        """Slow start (+1/ACK) or congestion avoidance (+1/RTT)."""
        if ev.in_recovery:
            return  # no growth while repairing losses
        acked = ev.delivered_this_ack
        if acked <= 0:
            return
        if self.cwnd < self.ssthresh:
            # Slow start: one segment per segment acked.
            self.cwnd += acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            # Congestion avoidance: ~one segment per RTT.
            self.cwnd += acked / self.cwnd

    def on_congestion_event(self, now_ns: int) -> None:
        """Halve the window (the classic multiplicative decrease)."""
        self._last_cut_ns = now_ns
        self.ssthresh = max(self.cwnd * RENO_BETA, MIN_CWND_SEGMENTS)
        self.cwnd = self.ssthresh
