"""Shared BBR machinery: windowed max/min filters and the path model.

BBR's bottleneck-bandwidth estimate is a windowed maximum of delivery-rate
samples (window measured in packet-timed rounds); its propagation-delay
estimate is a windowed minimum of RTT samples (window measured in wall
time).  Both are implemented as monotonic deques: O(1) amortized update,
exact sliding-window extreme.  :class:`BbrModel` feeds them from every ACK
for both BBR versions.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.calibration import (
    BBR_BTLBW_WINDOW_ROUNDS, BBR_FULL_BW_COUNT, BBR_FULL_BW_THRESH, BBR_MIN_CWND,
    BBR_MIN_RTT_WINDOW_NS,
)
from repro.cca.base import AckEvent, CongestionControl

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream


class WindowedMax:
    """Sliding-window maximum keyed by an integer tick (e.g. round count)."""

    __slots__ = ("window", "_samples")

    def __init__(self, window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: Deque[Tuple[int, float]] = deque()

    def update(self, value: float, tick: int) -> None:
        """Insert a sample taken at integer tick ``tick``."""
        samples = self._samples
        # Expire out-of-window entries from the front.
        while samples and samples[0][0] <= tick - self.window:
            samples.popleft()
        # Monotonic: strip entries dominated by the new value.
        while samples and samples[-1][1] <= value:
            samples.pop()
        samples.append((tick, value))

    def get(self, tick: Optional[int] = None) -> Optional[float]:
        """Window max (expiring entries older than ``tick`` first)."""
        samples = self._samples
        if tick is not None:
            while samples and samples[0][0] <= tick - self.window:
                samples.popleft()
        return samples[0][1] if samples else None

    def reset(self) -> None:
        """Forget all samples."""
        self._samples.clear()


class WindowedMin:
    """Sliding-window minimum keyed by time (ns)."""

    __slots__ = ("window_ns", "_samples")

    def __init__(self, window_ns: int):
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        self.window_ns = window_ns
        self._samples: Deque[Tuple[int, int]] = deque()

    def update(self, value: int, now_ns: int) -> None:
        """Insert a sample taken at time ``now_ns``."""
        samples = self._samples
        while samples and samples[0][0] <= now_ns - self.window_ns:
            samples.popleft()
        while samples and samples[-1][1] >= value:
            samples.pop()
        samples.append((now_ns, value))

    def get(self, now_ns: Optional[int] = None) -> Optional[int]:
        """Window min (the last sample never expires entirely)."""
        samples = self._samples
        if now_ns is not None:
            while len(samples) > 1 and samples[0][0] <= now_ns - self.window_ns:
                samples.popleft()
        return samples[0][1] if samples else None

    def reset(self) -> None:
        """Forget all samples."""
        self._samples.clear()


class BbrModel(CongestionControl):
    """What BBRv1 and BBRv2 share: the BtlBw and min-RTT filters, the BDP
    they imply, and the STARTUP full-bandwidth counters."""

    def __init__(self, rng: Optional[Stream] = None) -> None:
        super().__init__()
        self.btlbw_filter = WindowedMax(BBR_BTLBW_WINDOW_ROUNDS)
        self.min_rtt_filter = WindowedMin(BBR_MIN_RTT_WINDOW_NS)
        self.min_rtt_stamp_ns = 0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.full_pipe = False
        self._rng = rng
        self.cwnd = float(max(BBR_MIN_CWND, self.cwnd))

    @property
    def btlbw_pps(self) -> Optional[float]:
        return self.btlbw_filter.get()

    @property
    def min_rtt_ns(self) -> Optional[int]:
        return self.min_rtt_filter.get()

    def bdp_segments(self, gain: float = 1.0) -> Optional[float]:
        """Estimated bandwidth-delay product in segments, times ``gain``."""
        bw = self.btlbw_pps
        rtt = self.min_rtt_ns
        if bw is None or rtt is None:
            return None
        return gain * bw * rtt / 1e9

    def _update_model(self, ev: AckEvent) -> None:
        sample = ev.delivery_rate_pps
        if sample is not None:
            current = self.btlbw_pps
            # App-limited samples only count if they raise the estimate.
            if not ev.is_app_limited or current is None or sample > current:
                self.btlbw_filter.update(sample, ev.round_count)
        if ev.rtt_ns is not None:
            prior = self.min_rtt_filter.get(ev.now_ns)
            self.min_rtt_filter.update(ev.rtt_ns, ev.now_ns)
            # Refresh the stamp only on a strictly lower sample: a standing
            # queue (rtt > true min) must eventually trigger PROBE_RTT.
            if prior is None or ev.rtt_ns < prior:
                self.min_rtt_stamp_ns = ev.now_ns

    def _check_full_pipe(self, ev: AckEvent) -> None:
        """STARTUP's end: BBR_FULL_BW_COUNT rounds without the BtlBw
        estimate growing by BBR_FULL_BW_THRESH."""
        if self.full_pipe or not ev.round_start or ev.is_app_limited:
            return
        bw = self.btlbw_pps or 0.0
        if bw >= self.full_bw * BBR_FULL_BW_THRESH:
            self.full_bw = bw
            self.full_bw_count = 0
        else:
            self.full_bw_count += 1
        if self.full_bw_count >= BBR_FULL_BW_COUNT:
            self.full_pipe = True

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        # Rigid response: collapse the window; the model refills it as ACKs
        # return.  For BBRv1 this is the throughput sawtooth the paper sees
        # under RED ("RTOs force BBRv1 to significantly reduce its sending rate").
        self.cwnd = BBR_MIN_CWND
        self.full_bw = 0.0
        self.full_bw_count = 0
