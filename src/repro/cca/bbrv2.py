"""BBR version 2 (Cardwell et al., IETF 106; Linux v2alpha branch).

Keeps BBRv1's model-based core (bandwidth max filter, min-RTT filter,
pacing) and adds the loss/ECN-bounded inflight model the paper's analysis
revolves around:

- ``inflight_hi`` — upper bound on inflight data, *reduced when the
  per-round loss rate exceeds the 2 % threshold* ("BBRv2 reacts by
  reducing its inflight_hi", §5.1) and grown again during PROBE_UP;
- ``inflight_lo`` — short-term bound after a loss round, decayed once the
  episode passes;
- a restructured PROBE_BW cycle DOWN -> CRUISE -> REFILL -> UP with
  headroom left for competing flows during CRUISE;
- STARTUP also exits on excessive loss, not just on bandwidth plateau;
- an optional ECN response (CE-fraction driven), used by the ECN ablation.

This is a faithful simplification of the v2alpha code: the mechanisms the
paper's observations hinge on are implemented; minor engineering details
(e.g. the exact round-count randomization of CRUISE duration) follow the
published constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.calibration import (
    BBR2_BETA, BBR2_CRUISE_MAX_S, BBR2_CRUISE_MIN_S, BBR2_CWND_GAIN, BBR2_DOWN_GAIN,
    BBR2_DRAIN_GAIN, BBR2_HEADROOM, BBR2_LOSS_MIN_PACKETS, BBR2_LOSS_THRESH,
    BBR2_PROBE_RTT_CWND_GAIN, BBR2_PROBE_RTT_INTERVAL_NS, BBR2_PROBE_UP_MAX_RTTS,
    BBR2_STARTUP_CWND_GAIN, BBR2_STARTUP_PACING_GAIN, BBR2_UP_GAIN, BBR_MIN_CWND,
    BBR_PROBE_RTT_DURATION_NS,
)
from repro.cca.base import AckEvent
from repro.cca.bbr_common import BbrModel
from repro.units import milliseconds, seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

ECN_ALPHA_GAIN = 0.0625
ECN_THRESH = 0.5
ECN_FACTOR = 0.3
#: Consecutive high-loss rounds that end STARTUP (the fluid engines end it
#: on the first).
STARTUP_LOSS_EXIT_ROUNDS = 2

STARTUP, DRAIN = "STARTUP", "DRAIN"
PROBE_DOWN, PROBE_CRUISE, PROBE_REFILL, PROBE_UP = (
    "PROBE_DOWN",
    "PROBE_CRUISE",
    "PROBE_REFILL",
    "PROBE_UP",
)
PROBE_RTT = "PROBE_RTT"


class BbrV2(BbrModel):
    """BBRv2: BBRv1 plus loss/ECN-bounded inflight (inflight_hi/lo)."""
    name = "bbr2"

    def __init__(self, rng: Optional[Stream] = None) -> None:
        super().__init__(rng)
        self.state = STARTUP
        self.pacing_gain = BBR2_STARTUP_PACING_GAIN
        self.cwnd_gain = BBR2_STARTUP_CWND_GAIN
        self.inflight_hi = float("inf")
        self.inflight_lo = float("inf")
        # Per-round loss accounting.
        self._round_delivered = 0
        self._round_lost = 0
        self._loss_rounds = 0  # consecutive high-loss rounds (STARTUP exit)
        self._loss_round_seen = False
        # Phase timing.
        self._phase_stamp_ns = 0
        self._cruise_duration_ns = seconds(BBR2_CRUISE_MIN_S)
        self._refill_round_start: Optional[int] = None
        self.probe_rtt_done_stamp_ns: Optional[int] = None
        self._prior_state = PROBE_CRUISE
        # ECN state.
        self.ecn_alpha = 0.0
        self._round_ecn = 0

    # -- main callback --------------------------------------------------------------

    def on_ack(self, ev: AckEvent) -> None:
        self._update_model(ev)
        self._update_loss_round(ev)
        self._update_state(ev)
        self._set_pacing_and_cwnd(ev)

    # -- per-round loss bookkeeping -----------------------------------------------------

    def _update_loss_round(self, ev: AckEvent) -> None:
        self._round_delivered += ev.delivered_this_ack
        self._round_lost += ev.newly_lost
        self._round_ecn += 0  # CE echoes arrive via on_ecn
        if not ev.round_start:
            return
        delivered = max(1, self._round_delivered)
        loss_rate = self._round_lost / (delivered + self._round_lost)
        self._loss_round_seen = (
            loss_rate >= BBR2_LOSS_THRESH and self._round_lost >= BBR2_LOSS_MIN_PACKETS
        )
        if self._loss_round_seen:
            self._loss_rounds += 1
            self._on_high_loss_round(ev)
        else:
            self._loss_rounds = 0
            # Decay short-term bound once losses subside.
            if self.inflight_lo != float("inf"):
                bdp = self.bdp_segments() or self.inflight_lo
                self.inflight_lo = min(self.inflight_lo * 1.15, max(self.inflight_lo, bdp))
                if self.inflight_lo >= (self.bdp_segments(BBR2_CWND_GAIN) or float("inf")):
                    self.inflight_lo = float("inf")
        self._round_delivered = 0
        self._round_lost = 0

    def _on_high_loss_round(self, ev: AckEvent) -> None:
        """The per-round loss rate crossed the 2 % threshold: bound inflight."""
        inflight_now = float(max(ev.inflight, BBR_MIN_CWND))
        if self.inflight_hi == float("inf"):
            self.inflight_hi = inflight_now
        else:
            self.inflight_hi = max(BBR_MIN_CWND, min(self.inflight_hi, inflight_now) * BBR2_BETA)
        if self.inflight_lo == float("inf"):
            self.inflight_lo = max(BBR_MIN_CWND, self.cwnd * BBR2_BETA)
        else:
            self.inflight_lo = max(BBR_MIN_CWND, self.inflight_lo * BBR2_BETA)
        if self.state == PROBE_UP:
            self._enter_phase(PROBE_DOWN, ev.now_ns)

    # -- state machine --------------------------------------------------------------

    def _check_full_pipe(self, ev: AckEvent) -> None:
        super()._check_full_pipe(ev)
        # v2: a couple of consecutive high-loss rounds also end STARTUP.
        if ev.round_start and not ev.is_app_limited:
            if self._loss_rounds >= STARTUP_LOSS_EXIT_ROUNDS:
                self.full_pipe = True

    def _enter_phase(self, phase: str, now_ns: int) -> None:
        self.state = phase
        self._phase_stamp_ns = now_ns
        if phase == PROBE_CRUISE:
            if self._rng is not None:
                span = self._rng.uniform(BBR2_CRUISE_MIN_S, BBR2_CRUISE_MAX_S)
            else:
                span = BBR2_CRUISE_MIN_S
            self._cruise_duration_ns = seconds(span)
        elif phase == PROBE_REFILL:
            self._refill_round_start = None
            # v2alpha resets the short-term lower bound before probing.
            self.inflight_lo = float("inf")

    def _update_state(self, ev: AckEvent) -> None:
        now = ev.now_ns
        if self.state == STARTUP:
            self._check_full_pipe(ev)
            if self.full_pipe:
                self.state = DRAIN
        if self.state == DRAIN:
            bdp = self.bdp_segments()
            if bdp is not None and ev.inflight <= bdp:
                self._enter_phase(PROBE_DOWN, now)
        elif self.state == PROBE_DOWN:
            # Time to cruise once inflight is within the headroom bound of
            # inflight_hi *and* back down to 1.0 x estimated BDP.
            bdp = self.bdp_segments() or BBR_MIN_CWND
            headroom_bound = (
                self.inflight_hi * (1.0 - BBR2_HEADROOM)
                if self.inflight_hi != float("inf")
                else float("inf")
            )
            if ev.inflight <= max(BBR_MIN_CWND, min(bdp, headroom_bound)):
                self._enter_phase(PROBE_CRUISE, now)
        elif self.state == PROBE_CRUISE:
            if now - self._phase_stamp_ns >= self._cruise_duration_ns:
                self._enter_phase(PROBE_REFILL, now)
        elif self.state == PROBE_REFILL:
            if self._refill_round_start is None:
                self._refill_round_start = ev.round_count
            elif ev.round_count > self._refill_round_start:
                self._enter_phase(PROBE_UP, now)
        elif self.state == PROBE_UP:
            # Grow inflight_hi at slow-start pace while the pipe tolerates
            # it (v2alpha's bbr2_probe_inflight_hi_upward).
            if self.inflight_hi != float("inf") and not self._loss_round_seen:
                self.inflight_hi += ev.delivered_this_ack
            bdp = self.bdp_segments(BBR2_UP_GAIN)
            rtt = self.min_rtt_ns or milliseconds(10)
            if bdp is not None and (
                ev.inflight >= min(bdp, self.inflight_hi)
                or now - self._phase_stamp_ns > BBR2_PROBE_UP_MAX_RTTS * rtt
            ):
                self._enter_phase(PROBE_DOWN, now)
        self._maybe_probe_rtt(ev)

    def _maybe_probe_rtt(self, ev: AckEvent) -> None:
        now = ev.now_ns
        if self.state in (STARTUP, DRAIN):
            return
        if self.state != PROBE_RTT:
            expired = (
                self.min_rtt_stamp_ns > 0
                and now - self.min_rtt_stamp_ns > BBR2_PROBE_RTT_INTERVAL_NS
            )
            if expired:
                self._prior_state = self.state if self.state.startswith("PROBE_") else PROBE_CRUISE
                self.state = PROBE_RTT
                self.probe_rtt_done_stamp_ns = None
            else:
                return
        floor = max(BBR_MIN_CWND, BBR2_PROBE_RTT_CWND_GAIN * (self.bdp_segments() or BBR_MIN_CWND))
        if self.probe_rtt_done_stamp_ns is None:
            if ev.inflight <= floor:
                self.probe_rtt_done_stamp_ns = now + BBR_PROBE_RTT_DURATION_NS
        elif now >= self.probe_rtt_done_stamp_ns:
            self.min_rtt_stamp_ns = now
            self._enter_phase(PROBE_CRUISE, now)

    # -- outputs ------------------------------------------------------------------

    def _inflight_bound(self) -> float:
        bound = min(self.inflight_hi, self.inflight_lo)
        if self.state == PROBE_CRUISE and bound != float("inf"):
            bound *= 1.0 - BBR2_HEADROOM
        elif self.state in (PROBE_REFILL, PROBE_UP):
            # Probing phases may use the full (or growing) bound.
            bound = self.inflight_hi
        return bound

    def _set_pacing_and_cwnd(self, ev: AckEvent) -> None:
        if self.state == STARTUP:
            self.pacing_gain, self.cwnd_gain = BBR2_STARTUP_PACING_GAIN, BBR2_STARTUP_CWND_GAIN
        elif self.state == DRAIN:
            self.pacing_gain, self.cwnd_gain = BBR2_DRAIN_GAIN, BBR2_STARTUP_CWND_GAIN
        elif self.state == PROBE_DOWN:
            self.pacing_gain, self.cwnd_gain = BBR2_DOWN_GAIN, BBR2_CWND_GAIN
        elif self.state in (PROBE_CRUISE, PROBE_REFILL):
            self.pacing_gain, self.cwnd_gain = 1.0, BBR2_CWND_GAIN
        elif self.state == PROBE_UP:
            self.pacing_gain, self.cwnd_gain = BBR2_UP_GAIN, BBR2_CWND_GAIN
        else:  # PROBE_RTT
            self.pacing_gain, self.cwnd_gain = 1.0, 1.0

        bw = self.btlbw_pps
        if bw is not None:
            self.pacing_rate_pps = max(1.0, self.pacing_gain * bw)

        if self.state == PROBE_RTT:
            self.cwnd = max(
                BBR_MIN_CWND, BBR2_PROBE_RTT_CWND_GAIN * (self.bdp_segments() or BBR_MIN_CWND)
            )
            return
        target = self.bdp_segments(self.cwnd_gain)
        if target is None:
            self.cwnd += ev.delivered_this_ack
            return
        target = min(max(target, BBR_MIN_CWND), self._inflight_bound())
        target = max(target, BBR_MIN_CWND)
        if self.cwnd < target:
            self.cwnd = min(self.cwnd + ev.delivered_this_ack, target)
        else:
            self.cwnd = target

    # -- loss / ECN / RTO ---------------------------------------------------------------

    def on_congestion_event(self, now_ns: int) -> None:
        # Fast-recovery entry carries no immediate rate cut in v2; the
        # per-round loss accounting decides whether to bound inflight.
        pass

    def on_ecn(self, now_ns: int) -> None:
        # CE-fraction EWMA; a heavily-marked path lowers inflight_hi.
        self.ecn_alpha = min(1.0, self.ecn_alpha + ECN_ALPHA_GAIN * (1.0 - self.ecn_alpha))
        if self.ecn_alpha >= ECN_THRESH:
            base = self.inflight_hi if self.inflight_hi != float("inf") else self.cwnd
            self.inflight_hi = max(BBR_MIN_CWND, base * (1.0 - ECN_FACTOR * self.ecn_alpha))
            self.ecn_alpha = 0.0

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        super().on_rto(now_ns, first_timeout)
        # The timeout restarts discovery; short-term bounds are stale.
        self.inflight_lo = float("inf")
