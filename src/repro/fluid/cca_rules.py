"""Per-flow congestion-control rules for the fluid engine.

Each flow owns one rule object.  The engine calls
:meth:`FluidCca.round_update` once per (effective) RTT with what happened
during that round — segments delivered, segments dropped, the measured
round RTT — and the rule updates the flow's *window* (segments) or
*pacing rate + inflight cap* (BBR family).  The engine converts windows
to send rates each integration step.

The constants match the packet-engine implementations in
:mod:`repro.cca` so the two engines model the same algorithms.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.experiments.config import canonical_cca_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

INIT_CWND = 10.0
MIN_CWND = 2.0

# Algorithm constants, shared between the per-flow rule objects below and
# the vectorized kernels in repro.fluid.batched.
CUBIC_C = 0.4
CUBIC_BETA = 0.7
CUBIC_FRIENDLY_INC = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
HYSTART_ETA_MIN_S = 0.004
HYSTART_ETA_MAX_S = 0.016
HTCP_DELTA_L_S = 1.0
HTCP_BETA_MIN = 0.5
HTCP_BETA_MAX = 0.8
BBR_HIGH_GAIN = 2.885
BBR_DRAIN_GAIN = 1.0 / BBR_HIGH_GAIN
BBR_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BBR_CWND_GAIN = 2.0
BBR_RING = 10
RATE_FLOOR_PPS = INIT_CWND / 0.1
BBR2_STARTUP_GAIN = 2.77
BBR2_DRAIN_GAIN = 1.0 / 2.77
BBR2_LOSS_THRESH = 0.02
BBR2_BETA = 0.7
BBR2_HEADROOM = 0.15


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
    return np.maximum(cwnd * beta, MIN_CWND)


def hystart_exit_eta(base_rtt_s: float) -> float:
    """HyStart delay threshold for leaving slow start."""
    return min(HYSTART_ETA_MAX_S, max(HYSTART_ETA_MIN_S, base_rtt_s / 8))


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
    """BDP estimate; INIT_CWND until both bw and min_rtt are modelled."""
    have = (np.asarray(bw, dtype=np.float64) > 0.0) & np.isfinite(min_rtt_s)
    safe_rtt = np.where(np.isfinite(min_rtt_s), min_rtt_s, 0.0)
    return np.where(have, bw * safe_rtt, INIT_CWND)


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
        self.cwnd = INIT_CWND
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
    BETA = 0.5

    def round_update(self, info: RoundInfo) -> None:
        if info.lost > 0:
            self.ssthresh = float(aimd_backoff(self.cwnd, self.BETA))
            self.cwnd = self.ssthresh
        elif self.in_slow_start:
            self._slow_start_round(info)
        else:
            self.cwnd += 1.0


class FluidCubic(FluidCca):
    """Cubic curve with fast convergence and a HyStart-style exit."""

    name = "cubic"
    C = CUBIC_C
    BETA = CUBIC_BETA
    HYSTART_ETA_MIN_S = HYSTART_ETA_MIN_S
    HYSTART_ETA_MAX_S = HYSTART_ETA_MAX_S

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
            self.ssthresh = float(aimd_backoff(self.cwnd, self.BETA))
            self.cwnd = self.ssthresh
            self.epoch_start_s = None
            return
        if self.in_slow_start:
            # HyStart: leave slow start once queueing delay builds.
            eta = hystart_exit_eta(info.base_rtt_s)
            if info.rtt_s >= info.base_rtt_s + eta and self.cwnd >= 16:
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
            self.cwnd += 0.01
        # TCP-friendly floor.
        self.w_est += CUBIC_FRIENDLY_INC
        if self.w_est > self.cwnd:
            self.cwnd = self.w_est


class FluidHTcp(FluidCca):
    """Elapsed-time alpha, adaptive beta, Linux bandwidth switch."""

    name = "htcp"
    DELTA_L_S = HTCP_DELTA_L_S
    BETA_MIN, BETA_MAX = HTCP_BETA_MIN, HTCP_BETA_MAX

    def __init__(self, rng=None):
        super().__init__(rng)
        self.last_congestion_s: Optional[float] = None
        self.rtt_min_s = float("inf")
        self.rtt_max_s = 0.0
        self.beta = self.BETA_MIN
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
    """Windowed max over the last N rounds (list-based; N is small)."""

    def __init__(self, window_rounds: int = 10):
        self.window = window_rounds
        self.samples: list = []  # (round_idx, value)
        self.round_idx = 0

    def update(self, value: float) -> None:
        self.round_idx += 1
        self.samples.append((self.round_idx, value))
        self.samples = [(r, v) for r, v in self.samples if r > self.round_idx - self.window]

    def get(self) -> float:
        return max((v for _, v in self.samples), default=0.0)


class FluidBbrV1(FluidCca):
    """BBRv1 mean-field rules: bw max-filter, gain cycle, 2xBDP cap."""

    name = "bbrv1"
    rate_based = True
    HIGH_GAIN = BBR_HIGH_GAIN
    CYCLE = BBR_CYCLE
    CWND_GAIN = BBR_CWND_GAIN
    PROBE_RTT_INTERVAL_S = 10.0
    PROBE_RTT_DURATION_S = 0.2

    def __init__(self, rng=None):
        super().__init__(rng)
        self.state = "STARTUP"
        self.bw_filter = _BwMaxFilter()
        self.min_rtt_s = float("inf")
        self.min_rtt_stamp_s = 0.0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.cycle_index = 2
        self.cycle_stamp_s = 0.0
        self.probe_rtt_until_s: Optional[float] = None
        self.pacing_pps = None  # engine treats None as "unmodelled yet"
        self.rate_floor_pps = RATE_FLOOR_PPS

    def _bdp(self) -> float:
        bw = self.bw_filter.get()
        if bw <= 0 or not math.isfinite(self.min_rtt_s):
            return INIT_CWND
        return bw * self.min_rtt_s

    def round_update(self, info: RoundInfo) -> None:
        now = info.now_s
        # Rigid loss response: sustained heavy loss occasionally drives real
        # BBRv1 into retransmission timeouts that crater its rate (paper
        # §5.2, RED intra-CCA).  Model as a rare collapse under heavy loss.
        if (
            info.loss_rate > 0.4
            and self.rng is not None
            and self.rng.random() < 0.03
        ):
            self.on_rto_like_collapse(now)
        if info.rtt_s < self.min_rtt_s:
            self.min_rtt_s = info.rtt_s
            self.min_rtt_stamp_s = now
        if info.delivery_rate_pps > 0:
            self.bw_filter.update(info.delivery_rate_pps)
        bw = self.bw_filter.get()

        if self.state == "STARTUP":
            if bw >= self.full_bw * 1.25:
                self.full_bw = bw
                self.full_bw_count = 0
            else:
                self.full_bw_count += 1
            if self.full_bw_count >= 3:
                self.state = "DRAIN"
        if self.state == "DRAIN":
            if info.inflight <= self._bdp():
                self.state = "PROBE_BW"
                self.cycle_index = int(self.rng.integers(2, 8)) if self.rng is not None else 2
                self.cycle_stamp_s = now
        if self.state == "PROBE_BW":
            if now - self.cycle_stamp_s > max(self.min_rtt_s, 1e-3):
                self.cycle_index = (self.cycle_index + 1) % len(self.CYCLE)
                self.cycle_stamp_s = now
            if now - self.min_rtt_stamp_s > self.PROBE_RTT_INTERVAL_S:
                self.state = "PROBE_RTT"
                self.probe_rtt_until_s = now + self.PROBE_RTT_DURATION_S
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
            gain, cap_gain = 1.0, 0.5
        else:
            gain, cap_gain = self.CYCLE[self.cycle_index], self.CWND_GAIN
        if bw > 0:
            self.pacing_pps = max(self.rate_floor_pps, gain * bw)
            self.inflight_cap = max(4.0, cap_gain * self._bdp())
        else:
            # No model yet: keep ramping like slow start.
            self.pacing_pps = None
            self.cwnd = min(self.cwnd * 2.0, 1e9)

    def on_rto_like_collapse(self, now_s: float) -> None:
        """Model the paper's intermittent BBRv1 RTO crashes under RED.

        The rate craters, then recovers through a fresh STARTUP (slow-start
        restart), as after a real retransmission timeout.
        """
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.bw_filter.samples = [(self.bw_filter.round_idx, self.rate_floor_pps)]
        self.pacing_pps = self.rate_floor_pps
        self.state = "STARTUP"


class FluidBbrV2(FluidBbrV1):
    """BBRv2 rules: inflight_hi with the 2% loss threshold + probe cycle."""

    name = "bbrv2"
    LOSS_THRESH = BBR2_LOSS_THRESH
    BETA = BBR2_BETA
    HEADROOM = BBR2_HEADROOM
    PROBE_RTT_INTERVAL_S = 5.0
    CRUISE_S = 2.5

    def __init__(self, rng=None):
        super().__init__(rng)
        self.inflight_hi = float("inf")
        self.phase = "DOWN"
        self.phase_stamp_s = 0.0

    def round_update(self, info: RoundInfo) -> None:
        now = info.now_s
        if info.rtt_s < self.min_rtt_s:
            self.min_rtt_s = info.rtt_s
            self.min_rtt_stamp_s = now
        if info.delivery_rate_pps > 0:
            self.bw_filter.update(info.delivery_rate_pps)
        bw = self.bw_filter.get()
        bdp = self._bdp()

        high_loss = info.loss_rate >= self.LOSS_THRESH and info.lost >= 2
        if high_loss:
            base = self.inflight_hi if math.isfinite(self.inflight_hi) else max(info.inflight, bdp)
            self.inflight_hi = max(4.0, min(base, max(info.inflight, 4.0)) * self.BETA)

        if self.state == "STARTUP":
            if bw >= self.full_bw * 1.25:
                self.full_bw = bw
                self.full_bw_count = 0
            else:
                self.full_bw_count += 1
            if self.full_bw_count >= 3 or high_loss:
                self.state = "DRAIN"
        if self.state == "DRAIN":
            if info.inflight <= bdp:
                self.state = "PROBE_BW"
                self.phase = "DOWN"
                self.phase_stamp_s = now
        if self.state == "PROBE_BW":
            if self.phase == "DOWN":
                bound = self.inflight_hi * (1 - self.HEADROOM) if math.isfinite(self.inflight_hi) else float("inf")
                if info.inflight <= max(4.0, min(bdp, bound)):
                    self.phase = "CRUISE"
                    self.phase_stamp_s = now + (
                        float(self.rng.uniform(-0.5, 0.5)) if self.rng is not None else 0.0
                    )
            elif self.phase == "CRUISE":
                if now - self.phase_stamp_s > self.CRUISE_S:
                    self.phase = "UP"
                    self.phase_stamp_s = now
            elif self.phase == "UP":
                if math.isfinite(self.inflight_hi) and not high_loss:
                    # Slow-start-pace bound growth, as in the packet engine.
                    self.inflight_hi += max(1.0, info.delivered)
                if high_loss or now - self.phase_stamp_s > 4 * max(self.min_rtt_s, 1e-3):
                    self.phase = "DOWN"
                    self.phase_stamp_s = now
            if now - self.min_rtt_stamp_s > self.PROBE_RTT_INTERVAL_S:
                self.state = "PROBE_RTT"
                self.probe_rtt_until_s = now + self.PROBE_RTT_DURATION_S
        if self.state == "PROBE_RTT":
            if self.probe_rtt_until_s is not None and now >= self.probe_rtt_until_s:
                self.min_rtt_stamp_s = now
                self.state = "PROBE_BW"
                self.phase = "DOWN"
                self.phase_stamp_s = now

        if self.state == "STARTUP":
            gain, cap_gain = BBR2_STARTUP_GAIN, 2.0
        elif self.state == "DRAIN":
            gain, cap_gain = BBR2_DRAIN_GAIN, 2.0
        elif self.state == "PROBE_RTT":
            gain, cap_gain = 1.0, 0.5
        elif self.phase == "DOWN":
            gain, cap_gain = 0.9, 2.0
        elif self.phase == "UP":
            gain, cap_gain = 1.25, 2.0
        else:
            gain, cap_gain = 1.0, 2.0

        if bw > 0:
            self.pacing_pps = max(self.rate_floor_pps, gain * bw)
            cap = max(4.0, cap_gain * bdp)
            if math.isfinite(self.inflight_hi):
                hi = self.inflight_hi
                if self.phase == "CRUISE" and self.state == "PROBE_BW":
                    hi *= 1 - self.HEADROOM
                cap = min(cap, max(4.0, hi))
            self.inflight_cap = cap
        else:
            self.pacing_pps = None
            self.cwnd = min(self.cwnd * 2.0, 1e9)


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
