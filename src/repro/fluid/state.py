"""Batch planning and state-layout constants for the fluid integrator.

A *shard* is a set of configs the integrator advances in lock-step over
one flat lane table: they must share the integration geometry (base RTT
and therefore dt, duration, warmup) and the fairness cadence — the
:class:`ShardKey`.  Everything else — AQM, flow count, bandwidth tier,
buffer size, CCA pair, seed, RED knobs — varies per config.

Only a queue law's row reductions depend on the AQM or the flow count,
so inside a shard the configs of one (AQM, flow count) form a *block*:
one contiguous lane range its queue law sees as a ``(configs, flows)``
matrix whose every row has the shape and contiguity of a one-config
block's.  :func:`plan_shards` orders a shard's members by block so each
block is contiguous, and cuts the ordered list at :data:`LANE_BUDGET`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig

#: Integration steps per base RTT: every fluid run advances by
#: ``base_rtt / DEFAULT_STEPS_PER_RTT``.
DEFAULT_STEPS_PER_RTT = 5

#: Integer lane codes for the vectorized CCA kernels.
CCA_CODE: Dict[str, int] = {
    "reno": 0,
    "cubic": 1,
    "htcp": 2,
    "bbrv1": 3,
    "bbrv2": 4,
}

#: Codes whose kernels pace (BBR family) and own a per-lane RNG stream.
RATE_BASED_CODES = frozenset({CCA_CODE["bbrv1"], CCA_CODE["bbrv2"]})

#: Most flow lanes one shard advances (a single wider config runs alone).
#: Bounds a task's working set and how much work one failure loses;
#: docs/FLUID.md has the measured wall time at each candidate value.
LANE_BUDGET = 32_768


@dataclass(frozen=True)
class ShardKey:
    """Lock-step compatibility key: configs in one shard share these."""

    base_rtt_ns: int
    duration_s: float
    warmup_s: float
    #: Fairness-sampling cadence: one shard-wide hook drives every config's
    #: probe, so shard members must agree on it (None = not sampled).
    fairness_interval_s: Optional[float] = None


def shard_key(config: ExperimentConfig) -> ShardKey:
    """Compute the lock-step compatibility key for one config."""
    from repro.testbed.sites import PAPER_RTT_NS

    return ShardKey(
        base_rtt_ns=int(PAPER_RTT_NS * config.delay_multiplier),
        duration_s=float(config.duration_s),
        warmup_s=float(config.warmup_s),
        fairness_interval_s=config.fairness_interval_s,
    )


def block_key(config: ExperimentConfig) -> Tuple[str, int]:
    """(AQM, flow count): configs sharing it share a queue block."""
    return config.aqm, config.plan.total_flows


def plan_shards(configs: Sequence[ExperimentConfig], *, jobs: int = 1) -> List[List[int]]:
    """Group config indices into lock-step shards of bounded lane count.

    Each lock-step group is ordered by block (stably, so the plan is a
    function of the list alone) and cut into consecutive runs of at most
    :data:`LANE_BUDGET` lanes — in block order a cut splits at most one
    block, where input order would leave every shard a sliver of every
    block.  If that makes fewer than ``jobs`` shards, the cut is redone at
    an even share of the lanes, so a pool of that many workers gets a task
    each.  Per-config results do not depend on shard composition.
    """
    lanes = [c.plan.total_flows for c in configs]
    groups: Dict[ShardKey, List[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(shard_key(config), []).append(i)
    for members in groups.values():
        members.sort(key=lambda i: block_key(configs[i]))

    def cut(budget: int) -> List[List[int]]:
        shards: List[List[int]] = []
        for members in groups.values():
            shard: List[int] = []
            used = 0
            for i in members:
                if shard and used + lanes[i] > budget:
                    shards.append(shard)
                    shard, used = [], 0
                shard.append(i)
                used += lanes[i]
            shards.append(shard)
        return shards

    shards = cut(LANE_BUDGET)
    if len(shards) < jobs:
        shards = cut(min(LANE_BUDGET, max(1, sum(lanes) // jobs)))
    return shards
