"""Hamilton TCP (Leith & Shorten 2004).

The additive-increase coefficient grows with the *time elapsed since the
last congestion event*: alpha(dt) = 1 for dt <= 1 s, then
``1 + 10(dt-1) + ((dt-1)/2)^2`` — aggressive on long-uncongested high-BDP
paths, Reno-like right after a loss.  The multiplicative-decrease factor
adapts to queuing delay: beta = RTTmin/RTTmax (clamped to [0.5, 0.8]),
which is why HTCP backs off harder under bufferbloat — the behaviour
behind its gradual throughput loss to CUBIC under FIFO with big buffers
(paper §5.1, "HTCP's takeover").
"""

from __future__ import annotations

from typing import Optional

from repro.calibration import HTCP_BETA_MAX, HTCP_BETA_MIN, HTCP_DELTA_L_S, MIN_CWND_SEGMENTS
from repro.cca.base import AckEvent, CongestionControl

#: Linux tcp_htcp.c ships with use_bandwidth_switch = 1: when the measured
#: throughput between consecutive loss events changes by more than 20 %,
#: H-TCP falls back to the deep beta = 0.5 cut.  This is the "interprets
#: increased queuing delays as limited bandwidth" behaviour the paper
#: credits for HTCP gradually ceding a FIFO buffer to CUBIC (§5.1).
USE_BANDWIDTH_SWITCH = True


class HTcp(CongestionControl):
    """H-TCP: elapsed-time alpha, adaptive beta, bandwidth switch."""
    name = "htcp"

    def __init__(self) -> None:
        super().__init__()
        self._last_congestion_ns: Optional[int] = None
        # RTT extremes observed since the last congestion event.
        self._rtt_min_ns: Optional[int] = None
        self._rtt_max_ns: Optional[int] = None
        self.beta = HTCP_BETA_MIN
        # Bandwidth-switch state: peak measured throughput this epoch and
        # the previous epoch's peak.
        self._max_bw_pps = 0.0
        self._old_max_bw_pps = 0.0
        self._modeswitch = False

    def _alpha(self, now_ns: int) -> float:
        if self._last_congestion_ns is None:
            return 1.0
        dt = (now_ns - self._last_congestion_ns) / 1e9
        if dt <= HTCP_DELTA_L_S:
            return 1.0
        x = dt - HTCP_DELTA_L_S
        alpha = 1.0 + 10.0 * x + (x / 2.0) ** 2
        # H-TCP scales alpha by 2*(1-beta) so throughput is continuous
        # across the backoff (Leith & Shorten's alpha-beta coupling).
        return 2.0 * (1.0 - self.beta) * alpha

    def on_ack(self, ev: AckEvent) -> None:
        """Track RTT/bandwidth extremes; grow by alpha(elapsed)/cwnd."""
        if ev.rtt_ns is not None:
            if self._rtt_min_ns is None or ev.rtt_ns < self._rtt_min_ns:
                self._rtt_min_ns = ev.rtt_ns
            if self._rtt_max_ns is None or ev.rtt_ns > self._rtt_max_ns:
                self._rtt_max_ns = ev.rtt_ns
        if ev.delivery_rate_pps is not None and ev.delivery_rate_pps > self._max_bw_pps:
            self._max_bw_pps = ev.delivery_rate_pps
        if ev.in_recovery:
            return
        acked = ev.delivered_this_ack
        if acked <= 0:
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += acked * self._alpha(ev.now_ns) / self.cwnd

    def _update_beta(self) -> None:
        """Linux htcp_beta_update: bandwidth switch, then the RTT ratio."""
        if USE_BANDWIDTH_SWITCH:
            max_bw, old_max_bw = self._max_bw_pps, self._old_max_bw_pps
            self._old_max_bw_pps = max_bw
            self._max_bw_pps = 0.0
            # Throughput moved > 20% since the previous loss epoch:
            # the share estimate is unreliable — take the deep cut.
            if not (4 * old_max_bw <= 5 * max_bw <= 6 * old_max_bw):
                self.beta = HTCP_BETA_MIN
                self._modeswitch = False
                return
        if self._modeswitch and self._rtt_min_ns and self._rtt_max_ns:
            ratio = self._rtt_min_ns / self._rtt_max_ns
            self.beta = min(HTCP_BETA_MAX, max(HTCP_BETA_MIN, ratio))
        else:
            self.beta = HTCP_BETA_MIN
            self._modeswitch = True

    def on_congestion_event(self, now_ns: int) -> None:
        """Cut by the adaptive beta and restart the epoch clocks."""
        self._update_beta()
        self.ssthresh = max(self.cwnd * self.beta, MIN_CWND_SEGMENTS)
        self.cwnd = self.ssthresh
        self._last_congestion_ns = now_ns
        self._rtt_min_ns = None
        self._rtt_max_ns = None

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        """Timeout: deep cut and full epoch reset."""
        self._last_congestion_ns = now_ns
        self._rtt_min_ns = None
        self._rtt_max_ns = None
        self.beta = HTCP_BETA_MIN
        super().on_rto(now_ns, first_timeout)
