"""TCP CUBIC (Ha, Rhee & Xu 2008; RFC 9438) — Linux's default CCA.

The window grows along ``W(t) = C*(t - K)^3 + W_max`` where ``t`` is the
time since the last congestion event and ``K = cbrt(W_max*beta/C)`` is the
time to regain ``W_max``.  Includes fast convergence and the TCP-friendly
(Reno-tracking) region.  Beta is 0.7 — the *adaptive multiplicative
decrease* the paper credits for CUBIC's buffer-filling advantage over Reno.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration import (
    CUBIC_BETA, CUBIC_C, CUBIC_FRIENDLY_INC, CUBIC_PLATEAU_INC, HYSTART_ETA_DIVISOR,
    HYSTART_ETA_MAX_NS, HYSTART_ETA_MIN_NS, HYSTART_LOW_WINDOW, MIN_CWND_SEGMENTS,
)
from repro.cca.base import AckEvent, CongestionControl

FAST_CONVERGENCE = True

# HyStart++ (RFC 9406): RTT samples a round needs before it can end slow start.
HYSTART_MIN_SAMPLES = 8


class Cubic(CongestionControl):
    """CUBIC window dynamics with HyStart++ slow-start exit."""
    name = "cubic"

    def __init__(self) -> None:
        super().__init__()
        self.w_max = 0.0
        self._epoch_start_ns = -1
        self._k = 0.0  # seconds
        self._origin_point = 0.0
        self._w_est = 0.0  # TCP-friendly (Reno) estimate
        self._acks_in_epoch = 0
        # HyStart state: min RTT of the previous and current rounds.
        self._hs_last_round_min_ns: Optional[int] = None
        self._hs_round_min_ns: Optional[int] = None
        self._hs_samples = 0
        self.hystart_exits = 0

    # -- congestion avoidance ------------------------------------------------------

    def on_ack(self, ev: AckEvent) -> None:
        """Slow start (HyStart-guarded) or cubic-curve growth."""
        if ev.in_recovery:
            return
        acked = ev.delivered_this_ack
        if acked <= 0:
            return
        if self.cwnd < self.ssthresh:
            self._hystart_update(ev)
            self.cwnd += acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
            return
        rtt_s = (ev.srtt_ns or ev.rtt_ns or 0) / 1e9
        self._cubic_update(ev.now_ns, acked, rtt_s)

    def _hystart_update(self, ev: AckEvent) -> None:
        """Exit slow start on a per-round RTT increase (HyStart++)."""
        if ev.round_start:
            if self._hs_round_min_ns is not None and self._hs_samples >= HYSTART_MIN_SAMPLES:
                self._hs_last_round_min_ns = self._hs_round_min_ns
            self._hs_round_min_ns = None
            self._hs_samples = 0
        if ev.rtt_ns is None:
            return
        self._hs_samples += 1
        if self._hs_round_min_ns is None or ev.rtt_ns < self._hs_round_min_ns:
            self._hs_round_min_ns = ev.rtt_ns
        base = self._hs_last_round_min_ns
        if (
            base is not None
            and self.cwnd >= HYSTART_LOW_WINDOW
            and self._hs_samples >= HYSTART_MIN_SAMPLES
        ):
            eta = min(HYSTART_ETA_MAX_NS, max(HYSTART_ETA_MIN_NS, base // HYSTART_ETA_DIVISOR))
            if self._hs_round_min_ns >= base + eta:
                self.ssthresh = self.cwnd
                self.hystart_exits += 1

    def _cubic_update(self, now_ns: int, acked: int, rtt_s: float) -> None:
        if self._epoch_start_ns < 0:
            self._epoch_start_ns = now_ns
            if self.cwnd < self.w_max:
                self._k = ((self.w_max - self.cwnd) / CUBIC_C) ** (1.0 / 3.0)
                self._origin_point = self.w_max
            else:
                self._k = 0.0
                self._origin_point = self.cwnd
            self._w_est = self.cwnd
            self._acks_in_epoch = 0
        self._acks_in_epoch += acked

        # Cubic target one RTT ahead of now.
        t = (now_ns - self._epoch_start_ns) / 1e9 + rtt_s
        target = self._origin_point + CUBIC_C * (t - self._k) ** 3

        if target > self.cwnd:
            self.cwnd += acked * (target - self.cwnd) / self.cwnd
        else:
            # In the concave plateau / below origin: crawl.
            self.cwnd += acked * CUBIC_PLATEAU_INC / self.cwnd

        # TCP-friendly region (RFC 9438 eq. for the Reno estimate).
        self._w_est += acked * CUBIC_FRIENDLY_INC / self.cwnd
        if self._w_est > self.cwnd:
            self.cwnd = self._w_est

    # -- congestion response ------------------------------------------------------

    def on_congestion_event(self, now_ns: int) -> None:
        """Multiplicative decrease (beta=0.7) with fast convergence."""
        self._epoch_start_ns = -1
        if FAST_CONVERGENCE and self.cwnd < self.w_max:
            # Release bandwidth faster when the loss came before full recovery.
            self.w_max = self.cwnd * (2.0 - CUBIC_BETA) / 2.0
        else:
            self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * CUBIC_BETA, MIN_CWND_SEGMENTS)
        self.cwnd = self.ssthresh

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        """Collapse to loss-recovery slow start; remember w_max."""
        self._epoch_start_ns = -1
        if first_timeout:
            self.w_max = self.cwnd
        super().on_rto(now_ns, first_timeout)
