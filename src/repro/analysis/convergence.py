"""Short-term dynamics: per-interval fairness and convergence time.

The paper's introduction notes that "short-term dynamics of competing
high-speed TCP flows can have strong impacts on their long-term fairness"
(citing Molnar et al.).  Given a run sampled with ``sample_interval_s``,
these helpers compute the per-interval sender shares, the Jain-index time
series, and the *convergence time* — when fairness first reaches and then
holds a threshold.

Two API levels:

- the ``series_*`` functions operate on raw ``(times, values)`` series
  and are **engine-agnostic** — the fairness probe
  (:mod:`repro.obs.fairness`) feeds them samples from the packet DES
  and both fluid engines alike;
- the result-level wrappers (:func:`jain_series`,
  :func:`convergence_time_s`, :func:`fairness_half_life_s`) keep the
  original packet-sampled ``ExperimentResult`` workflow working on top
  of the same series math.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.metrics.fairness import jain_index
from repro.metrics.summary import ExperimentResult

#: Default Jain threshold a run must reach and hold to count as converged.
DEFAULT_CONVERGENCE_THRESHOLD = 0.9
#: Default number of consecutive samples the threshold must hold.
DEFAULT_HOLD_INTERVALS = 3
#: Default fractional drop (vs the previous sample) flagged as a
#: loss-synchronization instant in :func:`series_sync_loss_times`.
DEFAULT_SYNC_DROP_FRAC = 0.25
#: Previous-sample floor below which a drop is noise, not a sync event.
DEFAULT_SYNC_FLOOR = 0.5


# --- engine-agnostic series helpers -------------------------------------------


def series_convergence_time_s(
    times_s: Sequence[float],
    series: Sequence[float],
    *,
    threshold: float = DEFAULT_CONVERGENCE_THRESHOLD,
    hold_intervals: int = DEFAULT_HOLD_INTERVALS,
) -> Optional[float]:
    """First time the series reaches ``threshold`` and holds it.

    Returns the timestamp of the *first* sample of the earliest window of
    ``hold_intervals`` consecutive samples all >= ``threshold``; ``None``
    if no such window exists (including for an empty series).
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if hold_intervals < 1:
        raise ValueError(f"hold_intervals must be >= 1, got {hold_intervals}")
    if len(times_s) != len(series):
        raise ValueError(
            f"times/series length mismatch: {len(times_s)} != {len(series)}"
        )
    run = 0
    for i, value in enumerate(series):
        run = run + 1 if value >= threshold else 0
        if run >= hold_intervals:
            return float(times_s[i - hold_intervals + 1])
    return None


def series_oscillation_count(
    series: Sequence[float],
    *,
    threshold: float = DEFAULT_CONVERGENCE_THRESHOLD,
) -> int:
    """Number of downward crossings of ``threshold``.

    Each crossing (sample >= threshold followed by sample < threshold) is
    one *fairness oscillation*: the run reached the fair regime and fell
    back out of it.  0 for series that never reach the threshold or never
    leave it.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    count = 0
    for prev, cur in zip(series, series[1:]):
        if prev >= threshold and cur < threshold:
            count += 1
    return count


def series_sync_loss_times(
    times_s: Sequence[float],
    series: Sequence[float],
    *,
    drop_frac: float = DEFAULT_SYNC_DROP_FRAC,
    floor: float = DEFAULT_SYNC_FLOOR,
) -> List[float]:
    """Timestamps where the series drops by >= ``drop_frac`` in one sample.

    Applied to a utilization (φ) series this marks *loss-synchronization
    instants*: the global back-off events where many flows cut their
    windows together and the bottleneck goes briefly idle.  A drop only
    counts when the previous sample was at least ``floor`` — crashes from
    an already-idle link are startup noise, not synchronization.
    """
    if not 0 < drop_frac < 1:
        raise ValueError(f"drop_frac must be in (0, 1), got {drop_frac}")
    if len(times_s) != len(series):
        raise ValueError(
            f"times/series length mismatch: {len(times_s)} != {len(series)}"
        )
    out: List[float] = []
    for i in range(1, len(series)):
        prev, cur = series[i - 1], series[i]
        if prev >= floor and cur <= prev * (1.0 - drop_frac):
            out.append(float(times_s[i]))
    return out


# --- result-level wrappers (packet-sampled ExperimentResult) -------------------


def sender_interval_series(result: ExperimentResult) -> Dict[str, List[float]]:
    """Aggregate a sampled run's per-flow series into per-sender series.

    Raises ``ValueError`` when the per-flow series disagree in length —
    summing ragged series would silently mis-attribute the tail intervals
    to whichever flow was registered first.
    """
    series = result.extra.get("series_bps")
    if not series:
        raise ValueError("result was not sampled (set sample_interval_s)")
    lengths = {name: len(values) for name, values in series.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(
            f"per-flow series lengths differ, cannot aggregate: {lengths}"
        )
    flow_owner = {
        f"flow{flow_id}": node
        for flow_id, node in zip(
            result.flows.column("flow_id"), result.flows.column("sender_node")
        )
    }
    out: Dict[str, List[float]] = {}
    for flow_name, values in series.items():
        node = flow_owner.get(flow_name)
        if node is None:
            continue
        acc = out.setdefault(node, [0.0] * len(values))
        for i, v in enumerate(values):
            acc[i] += v
    return out


def jain_series(result: ExperimentResult) -> List[float]:
    """Per-interval Jain index over the sender aggregates."""
    per_sender = sender_interval_series(result)
    nodes = sorted(per_sender)
    length = min(len(per_sender[n]) for n in nodes)
    return [
        jain_index([per_sender[n][i] for n in nodes]) for i in range(length)
    ]


def convergence_time_s(
    result: ExperimentResult,
    *,
    threshold: float = DEFAULT_CONVERGENCE_THRESHOLD,
    hold_intervals: int = DEFAULT_HOLD_INTERVALS,
) -> Optional[float]:
    """First time (seconds) the Jain series reaches ``threshold`` and holds
    it for ``hold_intervals`` consecutive samples; None if it never does."""
    series = jain_series(result)
    interval_s = float(result.extra.get("interval_s", 1.0))
    times = [(i + 1) * interval_s for i in range(len(series))]
    return series_convergence_time_s(
        times, series, threshold=threshold, hold_intervals=hold_intervals
    )


def fairness_half_life_s(result: ExperimentResult) -> Optional[float]:
    """Time until the unfairness gap halves: J reaching (1 + J0) / 2,
    where J0 is the first interval's index.  None if it never halves."""
    series = jain_series(result)
    if not series:
        return None
    target = (1.0 + series[0]) / 2.0
    interval_s = float(result.extra.get("interval_s", 1.0))
    for i, j in enumerate(series):
        if j >= target:
            return (i + 1) * interval_s
    return None
