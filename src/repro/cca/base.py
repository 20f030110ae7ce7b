"""The congestion-control plugin interface.

A :class:`CongestionControl` owns two outputs the sender reads after every
callback:

- :attr:`cwnd` — congestion window in segments (float; the sender floors it
  when gating transmissions), and
- :attr:`pacing_rate_pps` — segments/second pacing rate, or ``None`` for
  ACK-clocked (non-paced) algorithms.

The sender drives it with:

- :meth:`on_ack` for every ACK, carrying an :class:`AckEvent`;
- :meth:`on_congestion_event` once per loss-recovery episode (fast
  retransmit entry) — the multiplicative-decrease point for loss-based
  algorithms;
- :meth:`on_ecn` when an ACK echoes a CE mark (at most the sender's rate;
  algorithms de-duplicate per RTT themselves);
- :meth:`on_rto` on retransmission timeout.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration import INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS


class AckEvent:
    """Everything the sender knows at the moment an ACK is processed."""

    __slots__ = (
        "now_ns",
        "newly_acked",
        "newly_sacked",
        "newly_lost",
        "rtt_ns",
        "min_rtt_ns",
        "srtt_ns",
        "delivery_rate_pps",
        "is_app_limited",
        "inflight",
        "round_start",
        "round_count",
        "in_recovery",
        "total_delivered",
    )

    def __init__(
        self,
        now_ns: int,
        newly_acked: int,
        newly_sacked: int,
        newly_lost: int,
        rtt_ns: Optional[int],
        min_rtt_ns: Optional[int],
        srtt_ns: Optional[int],
        delivery_rate_pps: Optional[float],
        is_app_limited: bool,
        inflight: int,
        round_start: bool,
        round_count: int,
        in_recovery: bool,
        total_delivered: int,
    ):
        self.now_ns = now_ns
        self.newly_acked = newly_acked
        self.newly_sacked = newly_sacked
        self.newly_lost = newly_lost
        self.rtt_ns = rtt_ns
        self.min_rtt_ns = min_rtt_ns
        self.srtt_ns = srtt_ns
        self.delivery_rate_pps = delivery_rate_pps
        self.is_app_limited = is_app_limited
        self.inflight = inflight
        self.round_start = round_start
        self.round_count = round_count
        self.in_recovery = in_recovery
        self.total_delivered = total_delivered

    @property
    def delivered_this_ack(self) -> int:
        """Segments newly delivered by this ACK (cumulative + SACKed)."""
        return self.newly_acked + self.newly_sacked


class CongestionControl:
    """Base class.  Subclasses override the callbacks they care about."""

    #: Registry name, set by subclasses (e.g. "cubic").
    name = "base"

    def __init__(self) -> None:
        self.cwnd: float = INITIAL_CWND_SEGMENTS
        self.ssthresh: float = float("inf")
        self.pacing_rate_pps: Optional[float] = None

    # -- callbacks ---------------------------------------------------------------

    def on_ack(self, ev: AckEvent) -> None:
        """Per-ACK update (window growth, model updates)."""

    def on_congestion_event(self, now_ns: int) -> None:
        """Entering fast recovery (loss detected via dup-SACK threshold)."""

    def on_ecn(self, now_ns: int) -> None:
        """An ACK echoed an ECN CE mark.  Default: treat as congestion."""
        self.on_congestion_event(now_ns)

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        """Retransmission timeout: collapse to loss-recovery slow start.

        ``first_timeout`` is False for back-to-back timeouts within one loss
        episode — like Linux, ssthresh is only reduced on the first one.
        """
        if first_timeout:
            self.ssthresh = max(self.cwnd / 2.0, MIN_CWND_SEGMENTS)
        self.cwnd = 1.0

    def on_sent(self, now_ns: int, inflight: int) -> None:
        """A segment was handed to the NIC (rarely needed)."""

    def __repr__(self) -> str:  # pragma: no cover
        pacing = f" pacing={self.pacing_rate_pps:.0f}pps" if self.pacing_rate_pps else ""
        return f"<{type(self).__name__} cwnd={self.cwnd:.1f}{pacing}>"
