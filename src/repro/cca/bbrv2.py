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

from repro.cca.base import AckEvent, CongestionControl
from repro.cca.bbr_common import WindowedMax, WindowedMin
from repro.units import milliseconds, seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

V2_STARTUP_PACING_GAIN = 2.77
V2_STARTUP_CWND_GAIN = 2.0
V2_CWND_GAIN = 2.0
V2_DOWN_GAIN = 0.9
V2_UP_GAIN = 1.25
LOSS_THRESH = 0.02  # the 2 % per-round loss threshold
BETA = 0.7  # inflight_lo multiplicative decrease
HEADROOM = 0.15  # fraction of inflight_hi left free while cruising
ECN_ALPHA_GAIN = 0.0625
ECN_THRESH = 0.5
ECN_FACTOR = 0.3
BTLBW_WINDOW_ROUNDS = 10
MIN_RTT_WINDOW_NS = seconds(10)
PROBE_RTT_INTERVAL_NS = seconds(5)
PROBE_RTT_DURATION_NS = milliseconds(200)
MIN_CWND = 4.0
FULL_BW_THRESH = 1.25
FULL_BW_COUNT = 3
STARTUP_LOSS_EXIT_ROUNDS = 2
CRUISE_MIN_S, CRUISE_MAX_S = 2.0, 3.0

STARTUP, DRAIN = "STARTUP", "DRAIN"
PROBE_DOWN, PROBE_CRUISE, PROBE_REFILL, PROBE_UP = (
    "PROBE_DOWN",
    "PROBE_CRUISE",
    "PROBE_REFILL",
    "PROBE_UP",
)
PROBE_RTT = "PROBE_RTT"


class BbrV2(CongestionControl):
    """BBRv2: BBRv1 plus loss/ECN-bounded inflight (inflight_hi/lo)."""
    name = "bbr2"

    def __init__(self, rng: Optional[Stream] = None) -> None:
        super().__init__()
        self.state = STARTUP
        self.btlbw_filter = WindowedMax(BTLBW_WINDOW_ROUNDS)
        self.min_rtt_filter = WindowedMin(MIN_RTT_WINDOW_NS)
        self.min_rtt_stamp_ns = 0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.full_pipe = False
        self.pacing_gain = V2_STARTUP_PACING_GAIN
        self.cwnd_gain = V2_STARTUP_CWND_GAIN
        self.inflight_hi = float("inf")
        self.inflight_lo = float("inf")
        # Per-round loss accounting.
        self._round_delivered = 0
        self._round_lost = 0
        self._loss_rounds = 0  # consecutive high-loss rounds (STARTUP exit)
        self._loss_round_seen = False
        # Phase timing.
        self._phase_stamp_ns = 0
        self._cruise_duration_ns = seconds(CRUISE_MIN_S)
        self._refill_round_start: Optional[int] = None
        self.probe_rtt_done_stamp_ns: Optional[int] = None
        self._prior_state = PROBE_CRUISE
        # ECN state.
        self.ecn_alpha = 0.0
        self._round_ecn = 0
        self._rng = rng
        self.cwnd = float(max(MIN_CWND, self.cwnd))

    # -- model --------------------------------------------------------------------

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

    # -- main callback --------------------------------------------------------------

    def on_ack(self, ev: AckEvent) -> None:
        self._update_model(ev)
        self._update_loss_round(ev)
        self._update_state(ev)
        self._set_pacing_and_cwnd(ev)

    def _update_model(self, ev: AckEvent) -> None:
        sample = ev.delivery_rate_pps
        if sample is not None:
            current = self.btlbw_pps
            if not ev.is_app_limited or current is None or sample > current:
                self.btlbw_filter.update(sample, ev.round_count)
        if ev.rtt_ns is not None:
            prior = self.min_rtt_filter.get(ev.now_ns)
            self.min_rtt_filter.update(ev.rtt_ns, ev.now_ns)
            # Strictly-lower refresh, as in BbrV1: see the note there.
            if prior is None or ev.rtt_ns < prior:
                self.min_rtt_stamp_ns = ev.now_ns

    # -- per-round loss bookkeeping -----------------------------------------------------

    def _update_loss_round(self, ev: AckEvent) -> None:
        self._round_delivered += ev.delivered_this_ack
        self._round_lost += ev.newly_lost
        self._round_ecn += 0  # CE echoes arrive via on_ecn
        if not ev.round_start:
            return
        delivered = max(1, self._round_delivered)
        loss_rate = self._round_lost / (delivered + self._round_lost)
        self._loss_round_seen = loss_rate >= LOSS_THRESH and self._round_lost >= 2
        if self._loss_round_seen:
            self._loss_rounds += 1
            self._on_high_loss_round(ev)
        else:
            self._loss_rounds = 0
            # Decay short-term bound once losses subside.
            if self.inflight_lo != float("inf"):
                bdp = self.bdp_segments() or self.inflight_lo
                self.inflight_lo = min(self.inflight_lo * 1.15, max(self.inflight_lo, bdp))
                if self.inflight_lo >= (self.bdp_segments(V2_CWND_GAIN) or float("inf")):
                    self.inflight_lo = float("inf")
        self._round_delivered = 0
        self._round_lost = 0

    def _on_high_loss_round(self, ev: AckEvent) -> None:
        """The per-round loss rate crossed the 2 % threshold: bound inflight."""
        inflight_now = float(max(ev.inflight, MIN_CWND))
        if self.inflight_hi == float("inf"):
            self.inflight_hi = inflight_now
        else:
            self.inflight_hi = max(MIN_CWND, min(self.inflight_hi, inflight_now) * BETA)
        if self.inflight_lo == float("inf"):
            self.inflight_lo = max(MIN_CWND, self.cwnd * BETA)
        else:
            self.inflight_lo = max(MIN_CWND, self.inflight_lo * BETA)
        if self.state == PROBE_UP:
            self._enter_phase(PROBE_DOWN, ev.now_ns)

    # -- state machine --------------------------------------------------------------

    def _check_full_pipe(self, ev: AckEvent) -> None:
        if self.full_pipe or not ev.round_start or ev.is_app_limited:
            return
        bw = self.btlbw_pps or 0.0
        if bw >= self.full_bw * FULL_BW_THRESH:
            self.full_bw = bw
            self.full_bw_count = 0
        else:
            self.full_bw_count += 1
        if self.full_bw_count >= FULL_BW_COUNT:
            self.full_pipe = True
        # v2: a couple of consecutive high-loss rounds also end STARTUP.
        if self._loss_rounds >= STARTUP_LOSS_EXIT_ROUNDS:
            self.full_pipe = True

    def _enter_phase(self, phase: str, now_ns: int) -> None:
        self.state = phase
        self._phase_stamp_ns = now_ns
        if phase == PROBE_CRUISE:
            if self._rng is not None:
                span = self._rng.uniform(CRUISE_MIN_S, CRUISE_MAX_S)
            else:
                span = CRUISE_MIN_S
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
            bdp = self.bdp_segments() or MIN_CWND
            headroom_bound = (
                self.inflight_hi * (1.0 - HEADROOM)
                if self.inflight_hi != float("inf")
                else float("inf")
            )
            if ev.inflight <= max(MIN_CWND, min(bdp, headroom_bound)):
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
            bdp = self.bdp_segments(V2_UP_GAIN)
            rtt = self.min_rtt_ns or milliseconds(10)
            if bdp is not None and (
                ev.inflight >= min(bdp, self.inflight_hi) or now - self._phase_stamp_ns > 4 * rtt
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
                and now - self.min_rtt_stamp_ns > PROBE_RTT_INTERVAL_NS
            )
            if expired:
                self._prior_state = self.state if self.state.startswith("PROBE_") else PROBE_CRUISE
                self.state = PROBE_RTT
                self.probe_rtt_done_stamp_ns = None
            else:
                return
        floor = max(MIN_CWND, 0.5 * (self.bdp_segments() or MIN_CWND))
        if self.probe_rtt_done_stamp_ns is None:
            if ev.inflight <= floor:
                self.probe_rtt_done_stamp_ns = now + PROBE_RTT_DURATION_NS
        elif now >= self.probe_rtt_done_stamp_ns:
            self.min_rtt_stamp_ns = now
            self._enter_phase(PROBE_CRUISE, now)

    # -- outputs ------------------------------------------------------------------

    def _inflight_bound(self) -> float:
        bound = min(self.inflight_hi, self.inflight_lo)
        if self.state == PROBE_CRUISE and bound != float("inf"):
            bound *= 1.0 - HEADROOM
        elif self.state in (PROBE_REFILL, PROBE_UP):
            # Probing phases may use the full (or growing) bound.
            bound = self.inflight_hi
        return bound

    def _set_pacing_and_cwnd(self, ev: AckEvent) -> None:
        if self.state == STARTUP:
            self.pacing_gain, self.cwnd_gain = V2_STARTUP_PACING_GAIN, V2_STARTUP_CWND_GAIN
        elif self.state == DRAIN:
            self.pacing_gain, self.cwnd_gain = 1.0 / V2_STARTUP_PACING_GAIN, V2_STARTUP_CWND_GAIN
        elif self.state == PROBE_DOWN:
            self.pacing_gain, self.cwnd_gain = V2_DOWN_GAIN, V2_CWND_GAIN
        elif self.state in (PROBE_CRUISE, PROBE_REFILL):
            self.pacing_gain, self.cwnd_gain = 1.0, V2_CWND_GAIN
        elif self.state == PROBE_UP:
            self.pacing_gain, self.cwnd_gain = V2_UP_GAIN, V2_CWND_GAIN
        else:  # PROBE_RTT
            self.pacing_gain, self.cwnd_gain = 1.0, 1.0

        bw = self.btlbw_pps
        if bw is not None:
            self.pacing_rate_pps = max(1.0, self.pacing_gain * bw)

        if self.state == PROBE_RTT:
            self.cwnd = max(MIN_CWND, 0.5 * (self.bdp_segments() or MIN_CWND))
            return
        target = self.bdp_segments(self.cwnd_gain)
        if target is None:
            self.cwnd += ev.delivered_this_ack
            return
        target = min(max(target, MIN_CWND), self._inflight_bound())
        target = max(target, MIN_CWND)
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
            self.inflight_hi = max(MIN_CWND, base * (1.0 - ECN_FACTOR * self.ecn_alpha))
            self.ecn_alpha = 0.0

    def on_rto(self, now_ns: int, first_timeout: bool = True) -> None:
        self.cwnd = MIN_CWND
        self.full_bw = 0.0
        self.full_bw_count = 0
        # The timeout restarts discovery; short-term bounds are stale.
        self.inflight_lo = float("inf")
