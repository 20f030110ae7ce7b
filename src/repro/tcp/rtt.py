"""Round-trip-time estimation and RTO computation (RFC 6298).

RTT samples come from the timestamp echo on every ACK (the simulator's
equivalent of TCP timestamps), so even retransmitted segments yield valid
samples — Karn's problem does not arise.
"""

from __future__ import annotations

from typing import Optional

from repro.units import milliseconds, seconds

DEFAULT_INITIAL_RTO_NS = seconds(1)
MIN_RTO_NS = milliseconds(200)  # Linux TCP_RTO_MIN
MAX_RTO_NS = seconds(120)
#: RFC 6298's clock granularity G: the floor of the RTO's variance term.
CLOCK_GRANULARITY_NS = milliseconds(1)


def _clamp(rto_ns: int) -> int:
    return MIN_RTO_NS if rto_ns < MIN_RTO_NS else MAX_RTO_NS if rto_ns > MAX_RTO_NS else rto_ns


class RttEstimator:
    """SRTT/RTTVAR smoothing plus the running minimum RTT."""

    __slots__ = ("srtt_ns", "rttvar_ns", "rto_ns", "min_rtt_ns", "latest_rtt_ns", "samples")

    def __init__(self, initial_rto_ns: int = DEFAULT_INITIAL_RTO_NS):
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: int = 0
        self.rto_ns: int = initial_rto_ns
        self.min_rtt_ns: Optional[int] = None
        self.latest_rtt_ns: Optional[int] = None
        self.samples: int = 0

    def on_sample(self, rtt_ns: int) -> None:
        """Fold one RTT measurement into the estimator."""
        if rtt_ns <= 0:
            raise ValueError(f"RTT sample must be positive, got {rtt_ns}")
        self.latest_rtt_ns = rtt_ns
        self.samples += 1
        if self.min_rtt_ns is None or rtt_ns < self.min_rtt_ns:
            self.min_rtt_ns = rtt_ns
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
        else:
            err = rtt_ns - self.srtt_ns
            # RTTVAR <- 3/4 RTTVAR + 1/4 |err|; SRTT <- 7/8 SRTT + 1/8 err
            self.rttvar_ns += (abs(err) - self.rttvar_ns) // 4
            self.srtt_ns += err // 8
        self.rto_ns = _clamp(self.srtt_ns + max(4 * self.rttvar_ns, CLOCK_GRANULARITY_NS))

    def on_backoff(self) -> None:
        """Double the RTO after a retransmission timeout (Karn's backoff)."""
        self.rto_ns = _clamp(self.rto_ns * 2)
