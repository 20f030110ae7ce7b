"""AQM drop laws for the fluid engine.

Each discipline advances one integration step at a time: it takes the
per-flow arrival vector (packets, may be fractional), applies its drop
law, serves up to ``capacity * dt`` packets, and returns what each flow
had delivered and dropped.  Backlogs are per-flow even for the shared
FIFO/RED queue (processor-sharing approximation of FIFO order, the
standard fluid treatment), which is what lets a buffer-filling CUBIC
crowd out an inflight-capped BBR exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.fluid.noise import UniformTable, poisson_from_uniform

# --- pure drop/serve laws ----------------------------------------------------
#
# Rows-form (one row per config) element-wise laws shared by the scalar
# classes below (which pass a single row) and the batched backend in
# repro.fluid.batched (which passes a whole (n_configs, n_flows) block of
# configs of that one flow count, so a row reduces the same either way).


def waterfill_rows(supply: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Max-min fair allocation of ``cap[c]`` across each row of demands."""
    totals = supply.sum(axis=1)
    under = totals <= cap
    if under.all():
        return supply.copy()
    n_rows, width = supply.shape
    order = np.sort(supply, axis=1)
    csum = np.cumsum(order, axis=1)
    prefix = np.concatenate([np.zeros((n_rows, 1)), csum[:, :-1]], axis=1)
    remaining = width - np.arange(width)
    theta = (cap[:, None] - prefix) / remaining
    ok = theta <= order
    any_ok = ok.any(axis=1)
    idx = np.where(any_ok, np.argmax(ok, axis=1), width - 1)
    theta_star = theta[np.arange(n_rows), idx]
    return np.where(under[:, None], supply, np.minimum(supply, theta_star[:, None]))


def waterfill(supply: np.ndarray, cap: float) -> np.ndarray:
    """Max-min fair allocation of ``cap`` across ``supply`` demands."""
    return waterfill_rows(supply[None, :], np.asarray([float(cap)]))[0]


def shared_queue_serve(
    backlog: np.ndarray,
    accepted: np.ndarray,
    serve_cap: np.ndarray,
    limit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Processor-sharing service + tail drop, rows form.

    Returns ``(served, new_backlog, tail_drops)`` for per-row service
    budget ``serve_cap`` (capacity*dt) and shared limit ``limit``.
    """
    supply = backlog + accepted
    totals = supply.sum(axis=1)
    serve = np.minimum(totals, serve_cap)
    ratio = np.divide(serve, totals, out=np.zeros_like(serve), where=totals > 0)
    served = supply * ratio[:, None]
    new_backlog = supply - served
    bsum = new_backlog.sum(axis=1)
    excess = bsum - limit
    need = excess > 1e-12
    tail = np.zeros_like(supply)
    if need.any():
        # Tail drop hits the newest arrivals, proportionally.  Computed
        # only for overflowing rows (element-wise ops are positionally
        # consistent, and non-overflowing rows drop exactly 0.0 either
        # way, so the row-compacted form is bit-identical).
        rows = np.nonzero(need)[0]
        acc_r = accepted[rows]
        nb_r = new_backlog[rows]
        exc_r = excess[rows]
        bsum_r = bsum[rows]
        weights = np.minimum(acc_r, nb_r)
        wsum = weights.sum(axis=1)
        num = exc_r[:, None] * weights
        prop = np.divide(
            num, wsum[:, None], out=np.zeros_like(num), where=(wsum > 0)[:, None]
        )
        tail_prop = np.minimum(nb_r, prop)
        flat_ratio = np.divide(
            exc_r, bsum_r, out=np.zeros_like(exc_r), where=bsum_r > 0
        )
        tail_flat = nb_r * flat_ratio[:, None]
        chosen = np.where((wsum > 0)[:, None], tail_prop, tail_flat)
        tail[rows] = chosen
        new_backlog[rows] = nb_r - chosen
    return served, new_backlog, tail


def red_ewma_gain(weight, exponent):
    """Effective EWMA gain after folding ``exponent`` per-packet updates."""
    return 1.0 - np.power(1.0 - weight, exponent)


def red_drop_probability(avg, min_th, max_th, max_p, gentle):
    """RED (gentle) drop-probability ramp from the averaged queue."""
    ramp = max_p * (avg - min_th) / (max_th - min_th)
    gentle_ramp = max_p + (1 - max_p) * (avg - max_th) / max_th
    return np.where(
        avg < min_th,
        0.0,
        np.where(
            avg < max_th,
            ramp,
            np.where(gentle & (avg < 2 * max_th), gentle_ramp, 1.0),
        ),
    )


def pie_scale(p):
    """PIE auto-tuning gain scale from the current drop probability."""
    return np.where(
        p < 0.000001, 1 / 2048,
        np.where(
            p < 0.00001, 1 / 512,
            np.where(
                p < 0.0001, 1 / 128,
                np.where(
                    p < 0.001, 1 / 32,
                    np.where(p < 0.01, 1 / 8, np.where(p < 0.1, 1 / 2, 1.0)),
                ),
            ),
        ),
    )


def pie_probability_step(p, qdelay, qdelay_old, target, alpha, beta):
    """One PI controller update of the PIE drop probability."""
    delta = pie_scale(p) * (alpha * (qdelay - target) + beta * (qdelay - qdelay_old))
    p_new = np.minimum(1.0, np.maximum(0.0, p + delta))
    return np.where((qdelay == 0.0) & (qdelay_old == 0.0), p_new * 0.98, p_new)


def evict_fattest(backlog: np.ndarray, drops: np.ndarray, limit: float, excess: float, n_flows: int) -> None:
    """Shed a shared-limit overflow from the fattest flows (in place, 1D)."""
    order = np.argsort(backlog)[::-1]
    for idx in order:
        take = min(backlog[idx] - limit / n_flows, excess)
        if take <= 0:
            break
        take = min(take, backlog[idx])
        backlog[idx] -= take
        drops[idx] += take
        excess -= take
        if excess <= 1e-12:
            break


class FluidAqm:
    """Base: byte/packet accounting shared by all disciplines."""

    def __init__(self, limit_pkts: float, capacity_pps: float, n_flows: int):
        if limit_pkts <= 0 or capacity_pps <= 0 or n_flows <= 0:
            raise ValueError("limit, capacity, and flow count must be positive")
        self.limit = float(limit_pkts)
        self.capacity = float(capacity_pps)
        self.n = n_flows
        self.backlog = np.zeros(n_flows)
        self.total_dropped = 0.0

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one dt: returns (delivered, dropped) per flow."""
        raise NotImplementedError

    def flow_delay_s(self) -> np.ndarray:
        """Queueing delay currently experienced by each flow's packets."""
        raise NotImplementedError

    # -- shared single-queue service -----------------------------------------------

    def _serve_shared(self, accepted: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Processor-sharing service + tail drop to the shared limit."""
        served, backlog, tail_drops = shared_queue_serve(
            self.backlog[None, :],
            accepted[None, :],
            np.asarray([self.capacity * dt]),
            np.asarray([self.limit]),
        )
        self.backlog = backlog[0]
        self.total_dropped += float(tail_drops[0].sum())
        return served[0], tail_drops[0]


class FluidFifo(FluidAqm):
    """Drop-tail: no early drops; overflow is tail-dropped."""

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        return self._serve_shared(arrivals, dt)

    def flow_delay_s(self) -> np.ndarray:
        delay = float(self.backlog.sum()) / self.capacity
        return np.full(self.n, delay)


class FluidRed(FluidAqm):
    """RED's EWMA ramp applied to (Poisson-sampled) early drops."""

    def __init__(
        self,
        limit_pkts: float,
        capacity_pps: float,
        n_flows: int,
        rng: np.random.Generator,
        *,
        min_th: Optional[float] = None,
        max_th: Optional[float] = None,
        max_p: float = 0.02,
        weight: float = 0.002,
        gentle: bool = True,
    ):
        super().__init__(limit_pkts, capacity_pps, n_flows)
        self.rng = rng
        # Drop-lottery uniforms: one row per step, consumed positionally
        # whether or not the ramp is active (see repro.fluid.noise).
        self._lottery = UniformTable([rng], [n_flows])
        # Fixed classic-tc thresholds (30/90 packets), clamped to the buffer
        # — matching repro.aqm.red.RedQueue (see the note there).
        if min_th is not None:
            self.min_th = float(min_th)
        else:
            self.min_th = max(1.0, min(30.0, limit_pkts / 3.0))
        if max_th is not None:
            self.max_th = float(max_th)
        else:
            self.max_th = max(self.min_th + 1.0, min(90.0, limit_pkts * 0.75))
        self.max_p = max_p
        self.weight = weight
        self.gentle = gentle
        self.avg = 0.0

    def _drop_probability(self) -> float:
        return float(
            red_drop_probability(self.avg, self.min_th, self.max_th, self.max_p, self.gentle)
        )

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        u = self._lottery.next_row()
        n_arr = float(arrivals.sum())
        # Per-packet EWMA folded over this step's arrivals; when idle the
        # average decays toward the (empty) instantaneous queue instead.
        exponent = n_arr if n_arr > 0 else self.capacity * dt
        w_eff = float(red_ewma_gain(self.weight, exponent))
        self.avg += w_eff * (float(self.backlog.sum()) - self.avg)
        p = self._drop_probability()
        if p > 0:
            # Floyd/Jacobson count-uniformization spaces drops uniformly over
            # [1, 1/p_b] packets, i.e. an effective rate of ~2*p_b.
            p_eff = min(1.0, 2.0 * p)
            early = np.minimum(arrivals, poisson_from_uniform(arrivals * p_eff, u))
        else:
            early = np.zeros(self.n)
        self.total_dropped += float(early.sum())
        served, tail = self._serve_shared(arrivals - early, dt)
        return served, early + tail

    def flow_delay_s(self) -> np.ndarray:
        delay = float(self.backlog.sum()) / self.capacity
        return np.full(self.n, delay)


class FluidFqCodel(FluidAqm):
    """Per-flow fair queueing with an approximate CoDel controller per flow.

    Service is max-min fair (the DRR fluid limit).  Each flow's sojourn is
    its backlog over its fair-share rate; once it has exceeded ``target``
    for ``interval``, the flow enters dropping mode and sheds packets at
    the CoDel control-law rate sqrt(count)/interval, escalating while the
    sojourn stays high.
    """

    TARGET_S = 0.005
    INTERVAL_S = 0.100

    def __init__(self, limit_pkts: float, capacity_pps: float, n_flows: int, rng=None):
        super().__init__(limit_pkts, capacity_pps, n_flows)
        self.above_since = np.full(n_flows, -1.0)
        self.count = np.zeros(n_flows)
        self.drop_credit = np.zeros(n_flows)

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        supply = self.backlog + arrivals
        served = waterfill(supply, self.capacity * dt)
        backlog = supply - served

        active = backlog > 1e-9
        n_active = max(1, int(active.sum()))
        share_pps = self.capacity / n_active
        sojourn = backlog / share_pps

        above = (sojourn > self.TARGET_S) & (backlog > 1.0)
        fresh = above & (self.above_since < 0)
        self.above_since[fresh] = now_s
        self.above_since[~above] = -1.0
        # CoDel count relaxes when the queue comes back under target.
        self.count[~above] = np.floor(self.count[~above] / 2.0)
        self.drop_credit[~above] = 0.0

        dropping = above & (now_s - self.above_since >= self.INTERVAL_S)
        drops = np.zeros(self.n)
        if dropping.any():
            rate = np.sqrt(self.count[dropping] + 1.0) / self.INTERVAL_S
            self.drop_credit[dropping] += rate * dt
            d = np.floor(self.drop_credit[dropping])
            self.drop_credit[dropping] -= d
            d = np.minimum(d, backlog[dropping])
            drops[dropping] = d
            self.count[dropping] += d
            backlog[dropping] -= d

        # Shared memory limit: evict from the fattest flows.
        excess = float(backlog.sum()) - self.limit
        if excess > 1e-12:
            evict_fattest(backlog, drops, self.limit, excess, self.n)

        self.backlog = backlog
        self.total_dropped += float(drops.sum())
        return served, drops

    def flow_delay_s(self) -> np.ndarray:
        active = self.backlog > 1e-9
        n_active = max(1, int(active.sum()))
        share_pps = self.capacity / n_active
        return self.backlog / share_pps


class FluidPie(FluidAqm):
    """PIE's PI controller over the shared queue (mean-field form).

    The drop probability integrates the queueing-delay error at the RFC's
    15 ms cadence with the same magnitude-scaled gains as
    :class:`repro.aqm.pie.PieQueue`.
    """

    TARGET_S = 0.015
    T_UPDATE_S = 0.015
    ALPHA = 0.125
    BETA = 1.25

    def __init__(self, limit_pkts: float, capacity_pps: float, n_flows: int, rng: np.random.Generator):
        super().__init__(limit_pkts, capacity_pps, n_flows)
        if rng is None:
            raise ValueError("fluid PIE needs an rng")
        self.rng = rng
        self._lottery = UniformTable([rng], [n_flows])
        self.drop_prob = 0.0
        self.qdelay_old_s = 0.0
        self._since_update_s = 0.0

    def _scale(self) -> float:
        return float(pie_scale(self.drop_prob))

    def _update(self) -> None:
        qdelay = float(self.backlog.sum()) / self.capacity
        self.drop_prob = float(
            pie_probability_step(
                self.drop_prob, qdelay, self.qdelay_old_s,
                self.TARGET_S, self.ALPHA, self.BETA,
            )
        )
        self.qdelay_old_s = qdelay

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        u = self._lottery.next_row()
        self._since_update_s += dt
        while self._since_update_s >= self.T_UPDATE_S:
            self._since_update_s -= self.T_UPDATE_S
            self._update()
        if self.drop_prob > 0:
            early = np.minimum(arrivals, poisson_from_uniform(arrivals * self.drop_prob, u))
        else:
            early = np.zeros(self.n)
        self.total_dropped += float(early.sum())
        served, tail = self._serve_shared(arrivals - early, dt)
        return served, early + tail

    def flow_delay_s(self) -> np.ndarray:
        delay = float(self.backlog.sum()) / self.capacity
        return np.full(self.n, delay)


def make_fluid_aqm(
    name: str,
    limit_pkts: float,
    capacity_pps: float,
    n_flows: int,
    rng: Optional[np.random.Generator] = None,
    **params,
) -> FluidAqm:
    """Factory mirroring :func:`repro.aqm.registry.make_aqm`."""
    key = name.lower()
    if key == "fifo":
        return FluidFifo(limit_pkts, capacity_pps, n_flows)
    if key == "red":
        if rng is None:
            raise ValueError("fluid RED needs an rng")
        return FluidRed(limit_pkts, capacity_pps, n_flows, rng, **params)
    if key in ("fq_codel", "codel"):
        return FluidFqCodel(limit_pkts, capacity_pps, n_flows, rng)
    if key == "pie":
        if rng is None:
            raise ValueError("fluid PIE needs an rng")
        return FluidPie(limit_pkts, capacity_pps, n_flows, rng)
    raise ValueError(f"unknown AQM {name!r}")
