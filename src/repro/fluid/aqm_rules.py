"""AQM drop laws for the fluid engine, in rows form.

Each law advances one integration step of a ``(n_configs, n_flows)``
block — one row of per-flow arrivals and backlogs (packets, may be
fractional) per config — row by row, so a config's numbers do not depend
on which configs share its block.  The queue-law classes in
:mod:`repro.fluid.batched` hold the state and call these.  Backlogs are
per-flow even for the shared FIFO/RED/PIE queue (processor-sharing
approximation of FIFO order, the standard fluid treatment), which is
what lets a buffer-filling CUBIC crowd out an inflight-capped BBR
exactly as in the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
    ratio = np.divide(serve, totals, out=np.zeros(serve.shape), where=totals > 0)
    served = supply * ratio[:, None]
    new_backlog = supply - served
    bsum = new_backlog.sum(axis=1)
    excess = bsum - limit
    need = excess > 1e-12
    tail = np.zeros(supply.shape)
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
