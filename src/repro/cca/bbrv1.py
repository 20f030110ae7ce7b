"""BBR version 1 (Cardwell et al. 2017; Linux tcp_bbr.c).

Model-based: estimates bottleneck bandwidth (windowed max of delivery-rate
samples over 10 rounds) and min RTT (windowed min over 10 s), paces at
``pacing_gain * BtlBw`` and caps inflight at ``cwnd_gain * BDP`` (the
2 x BDP inflight cap the paper leans on to explain FIFO large-buffer
behaviour).  Packet loss is **ignored** except for RTOs — the source of
BBRv1's retransmission storms under RED and its CUBIC starvation.

State machine: STARTUP (gain 2/ln 2) -> DRAIN -> PROBE_BW (8-phase pacing
gain cycle [1.25, 0.75, 1 x 6]) with periodic PROBE_RTT excursions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.calibration import (
    BBR_CWND_GAIN, BBR_CYCLE_FIRST_CRUISE, BBR_DRAIN_GAIN, BBR_HIGH_GAIN, BBR_MIN_CWND,
    BBR_PACING_CYCLE, BBR_PROBE_DOWN_GAIN, BBR_PROBE_RTT_CWND, BBR_PROBE_RTT_DURATION_NS,
    BBR_PROBE_RTT_INTERVAL_NS, BBR_PROBE_UP_GAIN,
)
from repro.cca.base import AckEvent
from repro.cca.bbr_common import BbrModel
from repro.units import milliseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "STARTUP", "DRAIN", "PROBE_BW", "PROBE_RTT"


class BbrV1(BbrModel):
    """BBRv1: model-based pacing with a 2xBDP inflight cap."""
    name = "bbr"

    def __init__(self, rng: Optional[Stream] = None) -> None:
        super().__init__(rng)
        self.state = STARTUP
        self.cycle_index = 0
        self.cycle_stamp_ns = 0
        self.pacing_gain = BBR_HIGH_GAIN
        self.cwnd_gain = BBR_HIGH_GAIN
        self.probe_rtt_done_stamp_ns: Optional[int] = None
        self._prior_state = PROBE_BW

    # -- main callback --------------------------------------------------------------

    def on_ack(self, ev: AckEvent) -> None:
        self._update_model(ev)
        self._update_state(ev)
        self._set_pacing_and_cwnd(ev)

    def _update_state(self, ev: AckEvent) -> None:
        now = ev.now_ns
        if self.state == STARTUP:
            self._check_full_pipe(ev)
            if self.full_pipe:
                self.state = DRAIN
        if self.state == DRAIN:
            bdp = self.bdp_segments()
            if bdp is not None and ev.inflight <= bdp:
                self._enter_probe_bw(now)
        if self.state == PROBE_BW:
            self._advance_cycle(ev)
        self._maybe_probe_rtt(ev)

    def _enter_probe_bw(self, now_ns: int) -> None:
        self.state = PROBE_BW
        # Start in a random non-probing phase to desynchronize flows.
        if self._rng is not None:
            self.cycle_index = int(
                self._rng.integers(BBR_CYCLE_FIRST_CRUISE, len(BBR_PACING_CYCLE))
            )
        else:
            self.cycle_index = BBR_CYCLE_FIRST_CRUISE
        self.cycle_stamp_ns = now_ns

    def _advance_cycle(self, ev: AckEvent) -> None:
        rtt = self.min_rtt_ns or milliseconds(10)
        elapsed = ev.now_ns - self.cycle_stamp_ns
        gain = BBR_PACING_CYCLE[self.cycle_index]
        advance = False
        if gain == BBR_PROBE_UP_GAIN:
            # Probe until we've had a full min_rtt at elevated inflight.
            advance = elapsed > rtt
        elif gain == BBR_PROBE_DOWN_GAIN:
            bdp = self.bdp_segments()
            advance = elapsed > rtt or (bdp is not None and ev.inflight <= bdp)
        else:
            advance = elapsed > rtt
        if advance:
            self.cycle_index = (self.cycle_index + 1) % len(BBR_PACING_CYCLE)
            self.cycle_stamp_ns = ev.now_ns

    def _maybe_probe_rtt(self, ev: AckEvent) -> None:
        now = ev.now_ns
        if self.state != PROBE_RTT:
            expired = (
                self.min_rtt_stamp_ns > 0
                and now - self.min_rtt_stamp_ns > BBR_PROBE_RTT_INTERVAL_NS
            )
            if expired:
                self._prior_state = PROBE_BW if self.full_pipe else STARTUP
                self.state = PROBE_RTT
                self.probe_rtt_done_stamp_ns = None
            else:
                return
        # In PROBE_RTT: wait for inflight to fall to the floor, hold 200ms.
        if self.probe_rtt_done_stamp_ns is None:
            if ev.inflight <= BBR_PROBE_RTT_CWND:
                rtt = self.min_rtt_ns or milliseconds(10)
                self.probe_rtt_done_stamp_ns = now + max(BBR_PROBE_RTT_DURATION_NS, rtt)
        elif now >= self.probe_rtt_done_stamp_ns:
            self.min_rtt_stamp_ns = now
            if self._prior_state == PROBE_BW:
                self._enter_probe_bw(now)
            else:
                self.state = STARTUP

    def _set_pacing_and_cwnd(self, ev: AckEvent) -> None:
        if self.state == STARTUP:
            self.pacing_gain = BBR_HIGH_GAIN
            self.cwnd_gain = BBR_HIGH_GAIN
        elif self.state == DRAIN:
            self.pacing_gain = BBR_DRAIN_GAIN
            self.cwnd_gain = BBR_HIGH_GAIN
        elif self.state == PROBE_BW:
            self.pacing_gain = BBR_PACING_CYCLE[self.cycle_index]
            self.cwnd_gain = BBR_CWND_GAIN
        else:  # PROBE_RTT
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0

        bw = self.btlbw_pps
        if bw is not None:
            self.pacing_rate_pps = max(1.0, self.pacing_gain * bw)

        if self.state == PROBE_RTT:
            self.cwnd = BBR_PROBE_RTT_CWND
            return
        target = self.bdp_segments(self.cwnd_gain)
        if target is None:
            # No model yet: exponential growth toward whatever is out there.
            self.cwnd += ev.delivered_this_ack
            return
        target = max(target, BBR_MIN_CWND)
        if self.cwnd < target:
            # Fill toward the target at slow-start speed.
            self.cwnd = min(self.cwnd + ev.delivered_this_ack, target)
        else:
            self.cwnd = target

    # -- loss response (there barely is one) ------------------------------------------

    def on_congestion_event(self, now_ns: int) -> None:
        # BBRv1 does not reduce its rate on packet loss.
        pass

    def on_ecn(self, now_ns: int) -> None:
        # BBRv1 ignores ECN signals entirely.
        pass
