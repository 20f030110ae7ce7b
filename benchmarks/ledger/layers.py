"""Per-layer metrics read off a traced unit's spans.

Layers are this repo's modules.  A metric whose layer the workload never
enters is simply absent here and reported as 0 (no calls, no time).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from ledger import inputs
from ledger.trace import Tracer


def _mean(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def _lane_steps(configs: Iterable[Any]) -> float:
    """Flow-lanes x integration steps one ``run_fluid_batch`` call advanced."""
    return sum(
        2 * inputs.FLOWS_PER_NODE[c.bottleneck_bw_bps]
        * c.duration_s * inputs.FLUID_STEPS_PER_SIM_S
        for c in configs
    )


def span_metrics(tracer: Tracer, unit_wall_s: float) -> Dict[str, float]:
    rows = tracer.by_name()

    def row(name: str) -> Dict[str, float]:
        return rows.get(name, {"calls": 0, "truthy": 0, "total_s": 0.0,
                               "truthy_s": 0.0, "self_s": 0.0})

    get, put = row("ResultCache.get"), row("ResultCache.put")
    append = row("ResultStore.append_dict")
    claim, complete = row("WorkQueue.claim"), row("WorkQueue.complete")
    refresh = row("ResultCache.refresh")
    out = {
        "cache.open_s": _mean(refresh["total_s"], refresh["calls"]),
        "cache.get_hit_us": _mean(get["truthy_s"], get["truthy"], 1e6),
        "cache.put_fresh_us": _mean(put["truthy_s"], put["truthy"], 1e6),
        "cache.put_dup_us": _mean(
            put["total_s"] - put["truthy_s"], put["calls"] - put["truthy"], 1e6
        ),
        "cache.merge_s": row("ResultCache.merge")["total_s"],
        "cache.hits": float(get["truthy"]),
        "cache.misses": float(get["calls"] - get["truthy"]),
        "cache.puts": float(put["truthy"]),
        "storage.append_us": _mean(append["total_s"], append["calls"], 1e6),
        "storage.load_s": row("ResultStore.load")["total_s"],
        "storage.completed_labels_s": row("ResultStore.completed_labels")["total_s"],
        "metrics.to_dict_calls": float(row("ExperimentResult.to_dict")["calls"]),
        "metrics.from_dict_calls": float(row("ExperimentResult.from_dict")["calls"]),
        "queue.create_s": row("WorkQueue.create")["total_s"],
        "queue.claim_us": _mean(claim["total_s"], claim["calls"], 1e6),
        "queue.complete_us": _mean(complete["total_s"], complete["calls"], 1e6),
        "fluid.batched.run_s": row("run_fluid_batch")["total_s"],
        "fluid.batched.shards": float(row("run_fluid_batch")["calls"]),
        "fluid.state.plan_shards_s": row("plan_shards")["total_s"],
        "trace.wall_s": unit_wall_s,
        "trace.spans": float(len(tracer.spans)),
    }

    steps = {"narrow": 0.0, "wide": 0.0}
    seconds = {"narrow": 0.0, "wide": 0.0}
    for span in tracer.spans:
        if span.name != "run_fluid_batch" or not span.arg:
            continue
        try:
            width = (
                "narrow"
                if span.arg[0].bottleneck_bw_bps <= inputs.NARROW_MAX_BPS
                else "wide"
            )
            steps[width] += _lane_steps(span.arg)
        except (AttributeError, KeyError, TypeError):
            continue  # the config type changed shape; leave the rate at 0
        seconds[width] += span.duration
    for width in steps:
        out[f"fluid.batched.lane_steps_per_s.{width}"] = _mean(steps[width], seconds[width])

    for layer, self_s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = self_s
    return out
