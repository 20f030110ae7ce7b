"""Seeded input generation: the program only ever sees these documents.

The paper's study axes (Tables 1-2) are restated here on purpose, so the
benchmark's inputs do not move when ``repro.experiments.matrix`` or the
presets are refactored.  ``assert_matches_facade`` pins them to
``full_matrix`` -> ``Scenario.from_experiment_config`` for as long as that
facade exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

# Paper Table 1.  Bandwidths are ints because the library's unit helpers
# produce ints and canonical JSON (hence cache keys) preserves int-vs-float.
CCA_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("bbrv1", "cubic"),
    ("bbrv2", "cubic"),
    ("htcp", "cubic"),
    ("reno", "cubic"),
    ("cubic", "cubic"),
    ("bbrv1", "bbrv1"),
    ("bbrv2", "bbrv2"),
    ("htcp", "htcp"),
    ("reno", "reno"),
)
AQMS: Tuple[str, ...] = ("fifo", "fq_codel", "red")
BUFFER_BDPS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
BANDWIDTHS_BPS: Tuple[int, ...] = (
    100_000_000,
    500_000_000,
    1_000_000_000,
    10_000_000_000,
    25_000_000_000,
)
# Paper Table 2: flows per sender node at each bandwidth tier.
FLOWS_PER_NODE: Dict[int, int] = {
    100_000_000: 1,
    500_000_000: 5,
    1_000_000_000: 10,
    10_000_000_000: 100,
    25_000_000_000: 250,
}

#: Shards at or below this tier are "narrow" (<= 20 flows), above it "wide".
NARROW_MAX_BPS = 1_000_000_000

# The fluid engines integrate in steps of RTT/5 over the paper's 62 ms path;
# fixed here so "steps per second" stays comparable if a kernel changes dt.
FLUID_STEPS_PER_SIM_S = 5 / 0.062

# The scaled packet-DES geometry (the ``scaled-des`` preset's numbers).
DES_SCALE = 250.0
DES_DURATION_S = 15.0
DES_MSS = 1500

#: Buffer size (x BDP) of every single-buffer cell set: the timed grid slab,
#: the packet anchor cells and the cold queries.
SLAB_BUFFER_BDP = 2.0


@dataclass(frozen=True)
class Size:
    """Every knob that scales a workload; ``FULL`` is what BENCHMARK.json runs."""

    cca_pairs: Sequence[Tuple[str, str]]
    aqms: Sequence[str]
    buffer_bdps: Sequence[float]
    bandwidths_bps: Sequence[int]
    cold_duration_s: float  # grid_cold sim seconds (the issue's knob)
    populate_duration_s: float  # warm-cache set-up sim seconds
    packet_cells: Sequence[Tuple[Tuple[str, str], str, int]]
    packet_duration_s: float  # packet_anchor sim seconds
    cold_queries: Sequence[Tuple[Tuple[str, str], str, int]]
    cold_query_duration_s: float  # sim seconds of each never-seen cell
    warm_queries: int
    #: Probes that need the whole study (claims, queue and hardened-executor
    #: scaling) widen the axes to the paper's when this is set.
    paper_probes: bool
    claims_duration_s: float  # sim seconds of the claims probe's grid
    probe_tasks: int  # null-engine configs of the queue and hardened probes
    obs_cell_bw_bps: int

    def grid_cells(self) -> List[Tuple[Tuple[str, str], str, float, int]]:
        return [
            (pair, aqm, bdp, bw)
            for pair in self.cca_pairs
            for aqm in self.aqms
            for bdp in self.buffer_bdps
            for bw in self.bandwidths_bps
        ]


# Every CCA against CUBIC: the cold queries cover all five scalar-fluid CCAs.
_COLD_PAIRS = CCA_PAIRS[:4]

# Sized so one repetition of a workload's timed region takes 1.5-3.5 s on the
# 2-core box this was written on: a run then fits 6-13 repetitions in its 20 s
# and reports their median, which is steadier on a noisy host than one long
# pass (README.md, "Steadiness").  The grid workloads therefore time one buffer
# slab of the paper grid (135 of its 810 cells, all 15 shards).
FULL = Size(
    cca_pairs=CCA_PAIRS,
    aqms=AQMS,
    buffer_bdps=(SLAB_BUFFER_BDP,),
    bandwidths_bps=BANDWIDTHS_BPS,
    cold_duration_s=1.5,
    populate_duration_s=0.5,
    # One cell per AQM and per CCA family at the 200-flow tier: the diagonal
    # of the issue's 3x3 anchor.
    packet_cells=(
        (("bbrv1", "cubic"), "fifo", 10_000_000_000),
        (("cubic", "cubic"), "red", 10_000_000_000),
        (("bbrv2", "bbrv2"), "fq_codel", 10_000_000_000),
    ),
    packet_duration_s=4.0,
    cold_queries=tuple(
        (pair, aqm, 500_000_000) for pair in _COLD_PAIRS for aqm in AQMS
    ),
    cold_query_duration_s=5.0,
    warm_queries=1000,
    paper_probes=True,
    claims_duration_s=10.0,
    probe_tasks=810,
    obs_cell_bw_bps=1_000_000_000,
)

TOY = Size(
    cca_pairs=CCA_PAIRS[:3],
    aqms=("fifo",),
    buffer_bdps=(1.0, 4.0),
    bandwidths_bps=BANDWIDTHS_BPS[:2],  # two flow counts -> two shards
    cold_duration_s=0.5,
    populate_duration_s=0.5,
    packet_cells=(
        (("bbrv1", "cubic"), "fifo", 100_000_000),
        (("cubic", "cubic"), "red", 100_000_000),
    ),
    packet_duration_s=DES_DURATION_S,
    cold_queries=tuple((pair, "fifo", 100_000_000) for pair in _COLD_PAIRS[:3]),
    cold_query_duration_s=5.0,
    warm_queries=200,
    paper_probes=False,
    claims_duration_s=0.5,
    probe_tasks=12,
    obs_cell_bw_bps=100_000_000,
)


def probe_axes(size: Size) -> Size:
    """``size`` on the paper's full axes, for probes that need the whole study."""
    if not size.paper_probes:
        return size
    return replace(
        size, cca_pairs=CCA_PAIRS, aqms=AQMS, buffer_bdps=BUFFER_BDPS,
        bandwidths_bps=BANDWIDTHS_BPS,
    )


def scenario_doc(
    pair: Tuple[str, str],
    aqm: str,
    buffer_bdp: float,
    bw_bps: int,
    *,
    seed: int,
    duration_s: float,
    warmup_s: float,
    mss_bytes: int = 8900,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """One scenario-IR document (docs/SCENARIO.md), every field explicit."""
    return {
        "version": 1,
        "topology": {
            "kind": "dumbbell",
            "bottleneck_bw_bps": bw_bps,
            "buffer_bdp": buffer_bdp,
            "mss_bytes": mss_bytes,
            "scale": scale,
            "delay_multiplier": 1.0,
            "client_delay_multipliers": [1.0, 1.0],
            "trunk_loss_rate": 0.0,
        },
        "flows": [{"cca": pair[0], "node": 0}, {"cca": pair[1], "node": 1}],
        "aqm": {"name": aqm},
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "seed": seed,
    }


def grid_docs(
    size: Size, seed: int, duration_s: float, *, des: bool = False
) -> List[Dict[str, Any]]:
    """The study grid as IR documents; ``seed`` is the grid's base seed.

    Per-cell seeds follow ``full_matrix`` (base + 1000 x cell number, one
    repetition).  ``des=True`` gives the rate-scaled packet-DES geometry.
    """
    docs = []
    for cell, (pair, aqm, bdp, bw) in enumerate(size.grid_cells(), 1):
        if des:
            docs.append(
                scenario_doc(
                    pair, aqm, bdp, bw, seed=seed + cell * 1000,
                    duration_s=DES_DURATION_S, warmup_s=0.0,
                    mss_bytes=DES_MSS, scale=DES_SCALE,
                )
            )
        else:
            docs.append(
                scenario_doc(
                    pair, aqm, bdp, bw, seed=seed + cell * 1000,
                    duration_s=duration_s, warmup_s=duration_s / 4,
                )
            )
    return docs


def packet_docs(size: Size, seed: int) -> List[Dict[str, Any]]:
    """The packet-DES anchor cells (2 x BDP), seeded like the grid."""
    return [
        scenario_doc(
            pair, aqm, SLAB_BUFFER_BDP, bw, seed=seed + i * 1000,
            duration_s=size.packet_duration_s, warmup_s=0.0,
            mss_bytes=DES_MSS, scale=DES_SCALE,
        )
        for i, (pair, aqm, bw) in enumerate(size.packet_cells, 1)
    ]


def cold_docs(size: Size, seed: int) -> List[Dict[str, Any]]:
    """Scalar-fluid what-if cells no grid sweep ever computed."""
    return [
        scenario_doc(
            pair, aqm, SLAB_BUFFER_BDP, bw, seed=seed + 500_000 + i,
            duration_s=size.cold_query_duration_s,
            warmup_s=size.cold_query_duration_s / 4,
        )
        for i, (pair, aqm, bw) in enumerate(size.cold_queries, 1)
    ]


def flows_in(doc: Dict[str, Any]) -> int:
    """Total flow count of a document (Table 2, both sender nodes)."""
    return 2 * FLOWS_PER_NODE[doc["topology"]["bottleneck_bw_bps"]]


def warm_query_plan(n_cells: int, n_queries: int, seed: int) -> List[Tuple[int, bool]]:
    """Seeded warm-phase order: (cell index, use the scenario-IR dialect)."""
    rng = random.Random(seed)
    ir_first = rng.random() < 0.5
    return [
        (rng.randrange(n_cells), (i % 2 == 0) == ir_first) for i in range(n_queries)
    ]


def assert_matches_facade(size: Size, seed: int, docs: List[Dict[str, Any]],
                          duration_s: float) -> None:
    """Pin the generated grid to the library's own enumeration, if present."""
    try:
        from repro.api import Scenario
        from repro.experiments.matrix import full_matrix

        lift = Scenario.from_experiment_config
    except (ImportError, AttributeError):
        return  # the facade is gone; the axes above are the definition now
    configs = full_matrix(
        cca_pairs=tuple(size.cca_pairs),
        aqms=tuple(size.aqms),
        buffer_bdps=tuple(size.buffer_bdps),
        bandwidths_bps=tuple(size.bandwidths_bps),
        engine="fluid_batched",
        duration_s=duration_s,
        warmup_s=duration_s / 4,
        base_seed=seed,
    )
    want = [json.dumps(lift(c).to_dict(), sort_keys=True) for c in configs]
    got = [json.dumps(d, sort_keys=True) for d in docs]
    if want != got:
        raise AssertionError(
            "generated grid documents differ from full_matrix -> "
            "Scenario.from_experiment_config"
        )
