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

from typing import Optional, Tuple

import numpy as np


def waterfill_rows(supply: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Max-min fair allocation of ``cap[c]`` across each row of demands.

    When every row fits its ``cap`` the answer is ``supply`` itself (the
    same array, not a copy).
    """
    under = np.add.reduce(supply, axis=1) <= cap
    n_under = np.count_nonzero(under)
    if n_under == under.size:
        return supply
    n_rows, width = supply.shape
    order = np.sort(supply, axis=1)
    # prefix[:, j] is the sum of the j smallest demands of the row.
    prefix = np.zeros(order.shape)
    np.add.accumulate(order[:, :-1], axis=1, out=prefix[:, 1:])
    # theta[:, j] splits what the j smallest leave evenly over the other
    # width - j flows (counted in floats: an int divisor costs a cast).
    theta = (cap[:, None] - prefix) / np.arange(float(width), 0.0, -1.0)
    ok = theta <= order
    ok[:, -1] = True  # a row where no level fits takes the last one
    capped = np.minimum(supply, theta[np.arange(n_rows), ok.argmax(axis=1)][:, None])
    return np.where(under[:, None], supply, capped) if n_under else capped


def shared_queue_serve(
    backlog: np.ndarray,
    accepted: np.ndarray,
    serve_cap: np.ndarray,
    limit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Processor-sharing service + tail drop, rows form.

    Returns ``(served, new_backlog, tail_drops, queued)`` for per-row
    service budget ``serve_cap`` (capacity*dt) and shared limit ``limit``;
    ``queued`` is each row's new backlog, and ``tail_drops`` is ``None``
    when no row overflows.
    """
    supply = backlog + accepted
    totals = np.add.reduce(supply, axis=1)
    under = totals <= serve_cap
    n_under = np.count_nonzero(under)
    if n_under == under.size:
        # Every queue empties: each row's share of service is exactly 1
        # (0 for a row with nothing to send), so all of it is served.
        return supply, np.zeros(supply.shape), None, np.zeros(totals.shape)
    if n_under == 0:  # every row overloaded: serve == serve_cap < totals
        ratio = serve_cap / totals
    else:
        serve = np.minimum(totals, serve_cap)
        ratio = np.divide(serve, totals, out=np.zeros(serve.shape), where=totals > 0)
    served = supply * ratio[:, None]
    new_backlog = supply - served
    bsum = np.add.reduce(new_backlog, axis=1)
    excess = bsum - limit
    need = excess > 1e-12
    if not np.count_nonzero(need):
        return served, new_backlog, None, bsum
    # Tail drop hits the newest arrivals, proportionally.  Computed only
    # for overflowing rows (element-wise ops are positionally consistent,
    # and non-overflowing rows drop exactly 0.0 either way, so the
    # row-compacted form is bit-identical).
    tail = np.zeros(supply.shape)
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
    return served, new_backlog, tail, np.add.reduce(new_backlog, axis=1)


def red_drop_probability(avg, min_th, max_th, max_p, gentle):
    """RED (gentle) drop-probability ramp from the averaged queue."""
    ramp = max_p * (avg - min_th) / (max_th - min_th)
    below = avg < min_th
    on_ramp = avg < max_th
    if np.count_nonzero(on_ramp) == on_ramp.size:  # no row past max_th
        return np.where(below, 0.0, ramp)
    gentle_ramp = max_p + (1 - max_p) * (avg - max_th) / max_th
    return np.where(
        below,
        0.0,
        np.where(
            on_ramp,
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
