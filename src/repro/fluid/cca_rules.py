"""Per-flow congestion-control rules for the fluid engine.

Each flow owns one rule object.  The engine calls
:meth:`FluidCca.round_update` once per (effective) RTT with what happened
during that round — segments delivered, segments dropped, the measured
round RTT — and the rule updates the flow's *window* (segments) or
*pacing rate + inflight cap* (BBR family).  The engine converts windows
to send rates each integration step.

Every number these rules share with the packet engine comes from
:mod:`repro.calibration` (its ns times ``/ 1e9`` here); the numbers only
the fluid model has are named below once, for these rules and the vector
kernels of :mod:`repro.fluid.batched` alike.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.calibration import (
    BBR2_BETA, BBR2_CRUISE_MAX_S, BBR2_CRUISE_MIN_S, BBR2_CWND_GAIN, BBR2_DOWN_GAIN,
    BBR2_DRAIN_GAIN, BBR2_HEADROOM, BBR2_LOSS_MIN_PACKETS, BBR2_LOSS_THRESH,
    BBR2_PROBE_RTT_CWND_GAIN, BBR2_PROBE_RTT_INTERVAL_NS, BBR2_PROBE_UP_MAX_RTTS,
    BBR2_STARTUP_CWND_GAIN, BBR2_STARTUP_PACING_GAIN, BBR2_UP_GAIN, BBR_BTLBW_WINDOW_ROUNDS,
    BBR_CWND_GAIN, BBR_CYCLE_FIRST_CRUISE, BBR_DRAIN_GAIN, BBR_FULL_BW_COUNT, BBR_FULL_BW_THRESH,
    BBR_HIGH_GAIN, BBR_MIN_CWND, BBR_PACING_CYCLE, BBR_PROBE_RTT_DURATION_NS,
    BBR_PROBE_RTT_INTERVAL_NS, CUBIC_BETA, CUBIC_C, CUBIC_FRIENDLY_INC, CUBIC_PLATEAU_INC,
    HTCP_BETA_MAX, HTCP_BETA_MIN, HTCP_DELTA_L_S, HYSTART_ETA_DIVISOR, HYSTART_ETA_MAX_NS,
    HYSTART_ETA_MIN_NS, HYSTART_LOW_WINDOW, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS, RENO_BETA,
)
from repro.experiments.config import canonical_cca_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

# The table's times in seconds (each ``/ 1e9`` is exact).
HYSTART_ETA_MIN_S = HYSTART_ETA_MIN_NS / 1e9
HYSTART_ETA_MAX_S = HYSTART_ETA_MAX_NS / 1e9
BBR_PROBE_RTT_INTERVAL_S = BBR_PROBE_RTT_INTERVAL_NS / 1e9
BBR_PROBE_RTT_DURATION_S = BBR_PROBE_RTT_DURATION_NS / 1e9
BBR2_PROBE_RTT_INTERVAL_S = BBR2_PROBE_RTT_INTERVAL_NS / 1e9
#: CRUISE lasts the mean span from a start stamp drawn within +- the half-span.
BBR2_CRUISE_MEAN_S = (BBR2_CRUISE_MIN_S + BBR2_CRUISE_MAX_S) / 2
BBR2_CRUISE_HALF_SPAN_S = (BBR2_CRUISE_MAX_S - BBR2_CRUISE_MIN_S) / 2

# Numbers only the fluid model has, shared by the rule objects below and
# the vector kernels in repro.fluid.batched.
#: A BBR flow never paces below its initial window per 100 ms.
RATE_FLOOR_PPS = INITIAL_CWND_SEGMENTS / 0.1
#: BBRv1's RTO-like collapse (paper §5.2): a round losing more than this
#: share collapses the flow with this probability.
BBR1_COLLAPSE_LOSS_RATE = 0.4
BBR1_COLLAPSE_PROBABILITY = 0.03
#: BBRv1's inflight cap in PROBE_RTT, as a fraction of the BDP (the packet
#: engine holds calibration.BBR_PROBE_RTT_CWND segments instead).
BBR1_PROBE_RTT_CAP_GAIN = 0.5
#: Floor of the min-RTT estimate that times the gain cycle and PROBE_UP.
BBR_MIN_RTT_FLOOR_S = 1e-3
#: Cap of the window a BBR flow doubles per round before its model exists.
BBR_RAMP_CWND_CAP = 1e9


# --- pure per-round laws -----------------------------------------------------
#
# Element-wise numpy functions shared by the per-flow rule objects (cold
# paths) and the vector kernels (every due lane of a shard).  Hot
# per-flow paths that cannot afford a numpy call keep a literal python
# mirror of the same expression — `+ - * /` and comparisons are IEEE-
# exact, so mirrors stay bit-identical; anything transcendental must go
# through the numpy kernel in BOTH paths (python `**` is not
# bit-identical to numpy array `**` and is banned here).


def slow_start_next(cwnd, ssthresh):
    """Classic slow-start doubling, clamped to ssthresh."""
    nxt = np.minimum(cwnd * 2.0, np.maximum(ssthresh, cwnd))
    return np.where(nxt > ssthresh, ssthresh, nxt)


def aimd_backoff(cwnd, beta):
    """Multiplicative decrease with the global cwnd floor."""
    return np.maximum(cwnd * beta, MIN_CWND_SEGMENTS)


def hystart_exit_eta(base_rtt_s: float) -> float:
    """HyStart delay threshold for leaving slow start."""
    return min(HYSTART_ETA_MAX_S, max(HYSTART_ETA_MIN_S, base_rtt_s / HYSTART_ETA_DIVISOR))


def cubic_wmax_after_loss(cwnd, w_max):
    """Fast-convergence w_max update on a loss round."""
    return np.where(cwnd < w_max, cwnd * (2.0 - CUBIC_BETA) / 2.0, cwnd)


def cubic_epoch_k(cwnd, w_max):
    """Time-to-origin K at the start of a cubic epoch."""
    diff = np.where(cwnd < w_max, (w_max - cwnd) / CUBIC_C, 0.0)
    return np.cbrt(diff)


def cubic_epoch_origin(cwnd, w_max):
    """Plateau the cubic curve aims for this epoch."""
    return np.where(cwnd < w_max, w_max, cwnd)


def cubic_target(origin, k, t):
    """Cubic window target at epoch time ``t`` (exact ops only)."""
    d = t - k
    return origin + CUBIC_C * (d * d * d)


def htcp_alpha(elapsed_s, beta):
    """H-TCP per-round additive increase from time since congestion.

    ``elapsed_s`` may be NaN (no congestion event yet) — that lane gets
    the pre-threshold increase of 1.0.
    """
    x = np.maximum(np.asarray(elapsed_s, dtype=np.float64) - HTCP_DELTA_L_S, 0.0)
    xh = x / 2.0
    grown = 2.0 * (1.0 - beta) * (1.0 + 10.0 * x + xh * xh)
    return np.where(x > 0.0, grown, 1.0)


def htcp_bw_stable(max_bw, old_max_bw):
    """Linux H-TCP bandwidth switch: throughput within [-20%, +25%]."""
    return (4.0 * old_max_bw <= 5.0 * max_bw) & (5.0 * max_bw <= 6.0 * old_max_bw)


def htcp_adaptive_beta(rtt_min_s, rtt_max_s):
    """Adaptive backoff factor rtt_min/rtt_max clamped to [0.5, 0.8].

    Caller guards ``rtt_max_s > 0`` and finite ``rtt_min_s``; unguarded
    lanes produce NaN and must be discarded by the caller's mask.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.asarray(rtt_min_s, dtype=np.float64) / rtt_max_s
    return np.minimum(HTCP_BETA_MAX, np.maximum(HTCP_BETA_MIN, ratio))


def bbr_bdp(bw, min_rtt_s):
    """BDP estimate; the initial window until both bw and min_rtt are modelled."""
    have = (np.asarray(bw, dtype=np.float64) > 0.0) & np.isfinite(min_rtt_s)
    safe_rtt = np.where(np.isfinite(min_rtt_s), min_rtt_s, 0.0)
    return np.where(have, bw * safe_rtt, INITIAL_CWND_SEGMENTS)


class RoundInfo:
    """What one flow experienced during one RTT-long round."""

    __slots__ = ("now_s", "rtt_s", "base_rtt_s", "delivered", "lost", "delivery_rate_pps", "inflight")

    def __init__(self, now_s, rtt_s, base_rtt_s, delivered, lost, delivery_rate_pps, inflight):
        self.now_s = now_s
        self.rtt_s = rtt_s
        self.base_rtt_s = base_rtt_s
        self.delivered = delivered
        self.lost = lost
        self.delivery_rate_pps = delivery_rate_pps
        self.inflight = inflight

    @property
    def loss_rate(self) -> float:
        total = self.delivered + self.lost
        return self.lost / total if total > 0 else 0.0


class FluidCca:
    """Base class: a window-based flow with slow start."""

    name = "base"
    #: BBR-family rules pace instead of being window-limited.
    rate_based = False

    def __init__(self, rng: Optional[Stream] = None):
        self.cwnd = INITIAL_CWND_SEGMENTS
        self.ssthresh = float("inf")
        self.pacing_pps: Optional[float] = None
        self.inflight_cap = float("inf")
        self.rng = rng

    # -- hooks ---------------------------------------------------------------------

    def round_update(self, info: RoundInfo) -> None:
        """Fold one RTT-long round's outcome into the flow state."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------------

    def _slow_start_round(self, info: RoundInfo) -> None:
        """Double per round up to ssthresh (classic slow start)."""
        self.cwnd = float(slow_start_next(self.cwnd, self.ssthresh))

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh


class FluidReno(FluidCca):
    """AIMD: slow-start doubling, +1/round, halve on loss."""

    name = "reno"

    def round_update(self, info: RoundInfo) -> None:
        if info.lost > 0:
            self.ssthresh = float(aimd_backoff(self.cwnd, RENO_BETA))
            self.cwnd = self.ssthresh
        elif self.in_slow_start:
            self._slow_start_round(info)
        else:
            self.cwnd += 1.0


class FluidCubic(FluidCca):
    """Cubic curve with fast convergence and a HyStart-style exit."""

    name = "cubic"

    def __init__(self, rng=None):
        super().__init__(rng)
        self.w_max = 0.0
        self.epoch_start_s: Optional[float] = None
        self.k = 0.0
        self.origin = 0.0
        self.w_est = 0.0

    def round_update(self, info: RoundInfo) -> None:
        if info.lost > 0:
            self.w_max = float(cubic_wmax_after_loss(self.cwnd, self.w_max))
            self.ssthresh = float(aimd_backoff(self.cwnd, CUBIC_BETA))
            self.cwnd = self.ssthresh
            self.epoch_start_s = None
            return
        if self.in_slow_start:
            # HyStart: leave slow start once queueing delay builds.
            eta = hystart_exit_eta(info.base_rtt_s)
            if info.rtt_s >= info.base_rtt_s + eta and self.cwnd >= HYSTART_LOW_WINDOW:
                self.ssthresh = self.cwnd
            else:
                self._slow_start_round(info)
                return
        if self.epoch_start_s is None:
            self.epoch_start_s = info.now_s
            self.k = float(cubic_epoch_k(self.cwnd, self.w_max))
            self.origin = float(cubic_epoch_origin(self.cwnd, self.w_max))
            self.w_est = self.cwnd
        t = info.now_s - self.epoch_start_s + info.rtt_s
        target = cubic_target(self.origin, self.k, t)
        if target > self.cwnd:
            # Converge toward the cubic target over roughly one RTT.
            self.cwnd += (target - self.cwnd)
        else:
            self.cwnd += CUBIC_PLATEAU_INC
        # TCP-friendly floor.
        self.w_est += CUBIC_FRIENDLY_INC
        if self.w_est > self.cwnd:
            self.cwnd = self.w_est


class FluidHTcp(FluidCca):
    """Elapsed-time alpha, adaptive beta, Linux bandwidth switch."""

    name = "htcp"

    def __init__(self, rng=None):
        super().__init__(rng)
        self.last_congestion_s: Optional[float] = None
        self.rtt_min_s = float("inf")
        self.rtt_max_s = 0.0
        self.beta = HTCP_BETA_MIN
        # Bandwidth switch (Linux default), as in repro.cca.htcp.
        self.max_bw = 0.0
        self.old_max_bw = 0.0
        self.modeswitch = False

    def _alpha(self, now_s: float) -> float:
        # Hot-path python mirror of htcp_alpha() — exact ops only.
        if self.last_congestion_s is None:
            return 1.0
        dt = now_s - self.last_congestion_s
        if dt <= HTCP_DELTA_L_S:
            return 1.0
        x = dt - HTCP_DELTA_L_S
        xh = x / 2.0
        return 2.0 * (1.0 - self.beta) * (1.0 + 10.0 * x + xh * xh)

    def _update_beta(self) -> None:
        max_bw, old_max_bw = self.max_bw, self.old_max_bw
        self.old_max_bw = max_bw
        self.max_bw = 0.0
        if not bool(htcp_bw_stable(max_bw, old_max_bw)):
            self.beta = HTCP_BETA_MIN
            self.modeswitch = False
            return
        if self.modeswitch and self.rtt_max_s > 0 and math.isfinite(self.rtt_min_s):
            self.beta = float(htcp_adaptive_beta(self.rtt_min_s, self.rtt_max_s))
        else:
            self.beta = HTCP_BETA_MIN
            self.modeswitch = True

    def round_update(self, info: RoundInfo) -> None:
        self.rtt_min_s = min(self.rtt_min_s, info.rtt_s)
        self.rtt_max_s = max(self.rtt_max_s, info.rtt_s)
        self.max_bw = max(self.max_bw, info.delivery_rate_pps)
        if info.lost > 0:
            self._update_beta()
            self.ssthresh = float(aimd_backoff(self.cwnd, self.beta))
            self.cwnd = self.ssthresh
            self.last_congestion_s = info.now_s
            self.rtt_min_s = float("inf")
            self.rtt_max_s = 0.0
        elif self.in_slow_start:
            self._slow_start_round(info)
        else:
            self.cwnd += self._alpha(info.now_s)


class _BwMaxFilter:
    """Windowed max over the samples of the last N rounds (one per round)."""

    def __init__(self, window_rounds: int = BBR_BTLBW_WINDOW_ROUNDS):
        self.samples: deque = deque(maxlen=window_rounds)
        self._max = 0.0

    def update(self, value: float) -> None:
        self.samples.append(value)
        self._max = max(self.samples)

    def reset(self, value: float) -> None:
        """Forget every sample but ``value``, taken this round."""
        self.samples.clear()
        self.update(value)

    def get(self) -> float:
        return self._max


class FluidBbrV1(FluidCca):
    """BBRv1 mean-field rules: bw max-filter, gain cycle, 2xBDP cap."""

    name = "bbrv1"
    rate_based = True

    def __init__(self, rng=None):
        super().__init__(rng)
        self.state = "STARTUP"
        self.bw_filter = _BwMaxFilter()
        self.min_rtt_s = float("inf")
        self.min_rtt_stamp_s = 0.0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.cycle_index = BBR_CYCLE_FIRST_CRUISE
        self.cycle_stamp_s = 0.0
        self.probe_rtt_until_s: Optional[float] = None
        self.pacing_pps = None  # engine treats None as "unmodelled yet"
        self.rate_floor_pps = RATE_FLOOR_PPS

    def _bdp(self) -> float:
        bw = self.bw_filter.get()
        if bw <= 0 or not math.isfinite(self.min_rtt_s):
            return INITIAL_CWND_SEGMENTS
        return bw * self.min_rtt_s

    def round_update(self, info: RoundInfo) -> None:
        now = info.now_s
        # Rigid loss response: sustained heavy loss occasionally drives real
        # BBRv1 into retransmission timeouts that crater its rate (paper
        # §5.2, RED intra-CCA).  Model as a rare collapse under heavy loss.
        if (
            info.loss_rate > BBR1_COLLAPSE_LOSS_RATE
            and self.rng is not None
            and self.rng.random() < BBR1_COLLAPSE_PROBABILITY
        ):
            self.on_rto_like_collapse(now)
        bw = self._observe(info)
        if self.state == "STARTUP" and self.full_bw_count >= BBR_FULL_BW_COUNT:
            self.state = "DRAIN"
        if self.state == "DRAIN":
            if info.inflight <= self._bdp():
                self.state = "PROBE_BW"
                self.cycle_index = (
                    int(self.rng.integers(BBR_CYCLE_FIRST_CRUISE, len(BBR_PACING_CYCLE)))
                    if self.rng is not None
                    else BBR_CYCLE_FIRST_CRUISE
                )
                self.cycle_stamp_s = now
        if self.state == "PROBE_BW":
            if now - self.cycle_stamp_s > max(self.min_rtt_s, BBR_MIN_RTT_FLOOR_S):
                self.cycle_index = (self.cycle_index + 1) % len(BBR_PACING_CYCLE)
                self.cycle_stamp_s = now
            if now - self.min_rtt_stamp_s > BBR_PROBE_RTT_INTERVAL_S:
                self.state = "PROBE_RTT"
                self.probe_rtt_until_s = now + BBR_PROBE_RTT_DURATION_S
        if self.state == "PROBE_RTT":
            if self.probe_rtt_until_s is not None and now >= self.probe_rtt_until_s:
                self.min_rtt_stamp_s = now
                self.state = "PROBE_BW"
                self.cycle_stamp_s = now

        # Outputs.
        if self.state == "STARTUP":
            gain, cap_gain = BBR_HIGH_GAIN, BBR_HIGH_GAIN
        elif self.state == "DRAIN":
            gain, cap_gain = BBR_DRAIN_GAIN, BBR_HIGH_GAIN
        elif self.state == "PROBE_RTT":
            gain, cap_gain = 1.0, BBR1_PROBE_RTT_CAP_GAIN
        else:
            gain, cap_gain = BBR_PACING_CYCLE[self.cycle_index], BBR_CWND_GAIN
        if bw > 0:
            self.pacing_pps = max(self.rate_floor_pps, gain * bw)
            self.inflight_cap = max(BBR_MIN_CWND, cap_gain * self._bdp())
        else:
            # No model yet: keep ramping like slow start.
            self.pacing_pps = None
            self.cwnd = min(self.cwnd * 2.0, BBR_RAMP_CWND_CAP)

    def _observe(self, info: RoundInfo) -> float:
        """Fold the round into the min-RTT and BtlBw estimates and, in
        STARTUP, the full-bandwidth count; returns the BtlBw estimate."""
        if info.rtt_s < self.min_rtt_s:
            self.min_rtt_s = info.rtt_s
            self.min_rtt_stamp_s = info.now_s
        if info.delivery_rate_pps > 0:
            self.bw_filter.update(info.delivery_rate_pps)
        bw = self.bw_filter.get()
        if self.state == "STARTUP":
            if bw >= self.full_bw * BBR_FULL_BW_THRESH:
                self.full_bw = bw
                self.full_bw_count = 0
            else:
                self.full_bw_count += 1
        return bw

    def on_rto_like_collapse(self, now_s: float) -> None:
        """Model the paper's intermittent BBRv1 RTO crashes under RED.

        The rate craters, then recovers through a fresh STARTUP (slow-start
        restart), as after a real retransmission timeout.
        """
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.bw_filter.reset(self.rate_floor_pps)
        self.pacing_pps = self.rate_floor_pps
        self.state = "STARTUP"


class FluidBbrV2(FluidBbrV1):
    """BBRv2 rules: inflight_hi with the 2% loss threshold + probe cycle."""

    name = "bbrv2"

    def __init__(self, rng=None):
        super().__init__(rng)
        self.inflight_hi = float("inf")
        self.phase = "DOWN"
        self.phase_stamp_s = 0.0

    def round_update(self, info: RoundInfo) -> None:
        now = info.now_s
        bw = self._observe(info)
        bdp = self._bdp()

        high_loss = info.loss_rate >= BBR2_LOSS_THRESH and info.lost >= BBR2_LOSS_MIN_PACKETS
        if high_loss:
            base = self.inflight_hi if math.isfinite(self.inflight_hi) else max(info.inflight, bdp)
            self.inflight_hi = max(
                BBR_MIN_CWND, min(base, max(info.inflight, BBR_MIN_CWND)) * BBR2_BETA
            )

        if self.state == "STARTUP" and (self.full_bw_count >= BBR_FULL_BW_COUNT or high_loss):
            self.state = "DRAIN"
        if self.state == "DRAIN":
            if info.inflight <= bdp:
                self.state = "PROBE_BW"
                self.phase = "DOWN"
                self.phase_stamp_s = now
        if self.state == "PROBE_BW":
            if self.phase == "DOWN":
                bound = self.inflight_hi * (1 - BBR2_HEADROOM) if math.isfinite(self.inflight_hi) else float("inf")
                if info.inflight <= max(BBR_MIN_CWND, min(bdp, bound)):
                    self.phase = "CRUISE"
                    half = BBR2_CRUISE_HALF_SPAN_S
                    self.phase_stamp_s = now + (
                        float(self.rng.uniform(-half, half)) if self.rng is not None else 0.0
                    )
            elif self.phase == "CRUISE":
                if now - self.phase_stamp_s > BBR2_CRUISE_MEAN_S:
                    self.phase = "UP"
                    self.phase_stamp_s = now
            elif self.phase == "UP":
                if math.isfinite(self.inflight_hi) and not high_loss:
                    # Slow-start-pace bound growth, as in the packet engine.
                    self.inflight_hi += max(1.0, info.delivered)
                if high_loss or now - self.phase_stamp_s > BBR2_PROBE_UP_MAX_RTTS * max(
                    self.min_rtt_s, BBR_MIN_RTT_FLOOR_S
                ):
                    self.phase = "DOWN"
                    self.phase_stamp_s = now
            if now - self.min_rtt_stamp_s > BBR2_PROBE_RTT_INTERVAL_S:
                self.state = "PROBE_RTT"
                self.probe_rtt_until_s = now + BBR_PROBE_RTT_DURATION_S
        if self.state == "PROBE_RTT":
            if self.probe_rtt_until_s is not None and now >= self.probe_rtt_until_s:
                self.min_rtt_stamp_s = now
                self.state = "PROBE_BW"
                self.phase = "DOWN"
                self.phase_stamp_s = now

        if self.state == "STARTUP":
            gain, cap_gain = BBR2_STARTUP_PACING_GAIN, BBR2_STARTUP_CWND_GAIN
        elif self.state == "DRAIN":
            gain, cap_gain = BBR2_DRAIN_GAIN, BBR2_STARTUP_CWND_GAIN
        elif self.state == "PROBE_RTT":
            gain, cap_gain = 1.0, BBR2_PROBE_RTT_CWND_GAIN
        elif self.phase == "DOWN":
            gain, cap_gain = BBR2_DOWN_GAIN, BBR2_CWND_GAIN
        elif self.phase == "UP":
            gain, cap_gain = BBR2_UP_GAIN, BBR2_CWND_GAIN
        else:
            gain, cap_gain = 1.0, BBR2_CWND_GAIN

        if bw > 0:
            self.pacing_pps = max(self.rate_floor_pps, gain * bw)
            cap = max(BBR_MIN_CWND, cap_gain * bdp)
            if math.isfinite(self.inflight_hi):
                hi = self.inflight_hi
                if self.phase == "CRUISE" and self.state == "PROBE_BW":
                    hi *= 1 - BBR2_HEADROOM
                cap = min(cap, max(BBR_MIN_CWND, hi))
            self.inflight_cap = cap
        else:
            self.pacing_pps = None
            self.cwnd = min(self.cwnd * 2.0, BBR_RAMP_CWND_CAP)


FLUID_CCAS = {
    "reno": FluidReno,
    "cubic": FluidCubic,
    "htcp": FluidHTcp,
    "bbrv1": FluidBbrV1,
    "bbrv2": FluidBbrV2,
}


def make_fluid_cca(name: str, rng: Optional[Stream] = None) -> FluidCca:
    """Instantiate the fluid rule set for the CCA called ``name``."""
    return FLUID_CCAS[canonical_cca_name(name)](rng)
