"""From an :class:`~repro.experiments.config.ExperimentConfig` to fluid
inputs, and from fluid outputs to an ExperimentResult.

The integrator (:mod:`repro.fluid.batched`) takes its bottleneck
geometry and per-flow rule objects from here and hands its per-flow
totals back to :func:`build_fluid_result`, which produces the same
:class:`~repro.metrics.summary.ExperimentResult` record as the packet
runner, so the analysis layer is engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig, canonical_cca_name
from repro.fluid.cca_rules import FLUID_CCAS, FluidCca, make_fluid_cca
from repro.metrics.fairness import jain_index
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.metrics.utilization import link_utilization
from repro.sim.rng import RngStreams
from repro.testbed.sites import PAPER_RTT_NS
from repro.units import bdp_bytes


@dataclass(frozen=True)
class FluidGeometry:
    """Bottleneck numbers the fluid integrator derives from a config."""

    base_rtt_s: float
    capacity_bps: float
    capacity_pps: float
    limit_pkts: float
    n_flows: int

    @property
    def node_of(self) -> np.ndarray:
        return np.repeat([0, 1], self.n_flows // 2)


def fluid_geometry(config: ExperimentConfig) -> FluidGeometry:
    """Compute the bottleneck geometry (same numbers the dumbbell builder uses)."""
    rtt_ns = int(PAPER_RTT_NS * config.delay_multiplier)
    capacity_bps = config.bottleneck_bw_bps / config.scale
    bdp_b = bdp_bytes(capacity_bps, rtt_ns)
    return FluidGeometry(
        base_rtt_s=rtt_ns / 1e9,
        capacity_bps=capacity_bps,
        capacity_pps=capacity_bps / (8 * config.mss_bytes),
        limit_pkts=max(1.0, config.buffer_bdp * bdp_b / config.mss_bytes),
        n_flows=2 * config.plan.flows_per_node,
    )


def flow_cca_names(config: ExperimentConfig, n_flows: int) -> List[str]:
    """Per-flow CCA name (first half node 1, second half node 2)."""
    per_node = n_flows // 2
    return [config.cca_pair[0]] * per_node + [config.cca_pair[1]] * per_node


def make_fluid_flows(config: ExperimentConfig, rngs: RngStreams, n_flows: int) -> List[FluidCca]:
    """Instantiate per-flow rule objects with per-flow RNG streams.

    Only rate-based (BBR-family) rules draw randomness, and each gets
    its **own** named stream — so a flow's draw sequence depends only on
    the config seed and its flow index, never on what other flows did.
    The vector kernels draw from the same streams, which is what lets them
    interleave round updates from many configs and still reproduce these
    rules bit-for-bit.
    """
    flows: List[FluidCca] = []
    for i, name in enumerate(flow_cca_names(config, n_flows)):
        cls = FLUID_CCAS[canonical_cca_name(name)]
        rng = rngs.stream(f"cca-flow{i}") if cls.rate_based else None
        flows.append(make_fluid_cca(name, rng))
    return flows


def build_fluid_result(
    config: ExperimentConfig,
    geom: FluidGeometry,
    *,
    delivered_window: np.ndarray,
    delivered_total: np.ndarray,
    dropped_total: np.ndarray,
    aqm_dropped: float,
    wallclock_s: float,
    fairness: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Assemble the ExperimentResult record, tagged with ``config.engine``."""
    measured_s = config.duration_s - config.warmup_s
    thr_pps = delivered_window / measured_s
    thr_bps = thr_pps * 8 * config.mss_bytes
    retx = dropped_total  # every dropped segment is retransmitted once
    node_of = geom.node_of
    nodes = node_of.tolist()
    n = len(nodes)
    names = ("client1", "client2")

    # The flow columns straight from the arrays: flows are in node order
    # (``node_of`` is sorted), and ``astype(int64)``/``rint`` truncate and
    # round (half to even) exactly as ``int()``/``round()`` do per element.
    flows = FlowTable([
        list(range(n)),
        [names[nd] for nd in nodes],
        [config.cca_pair[nd] for nd in nodes],
        thr_bps.tolist(),
        (delivered_window * config.mss_bytes).astype(np.int64).tolist(),
        (delivered_total + dropped_total).astype(np.int64).tolist(),
        np.rint(retx).astype(np.int64).tolist(),
        [0] * n,
        [0] * n,
    ])
    senders: List[SenderStats] = []
    for node_idx in range(2):
        mask = node_of == node_idx
        senders.append(
            SenderStats(
                node=names[node_idx],
                cca=config.cca_pair[node_idx],
                throughput_bps=float(thr_bps[mask].sum()),
                retransmits=int(round(retx[mask].sum())),
                flows=int(mask.sum()),
            )
        )

    throughputs = [s.throughput_bps for s in senders]
    extra = {"flow_jain_index": jain_index(flows.column("throughput_bps"))}
    if fairness is not None:
        extra["fairness"] = fairness
    return ExperimentResult(
        config=config.to_dict(),
        senders=senders,
        flows=flows,
        jain_index=jain_index(throughputs),
        link_utilization=link_utilization(throughputs, geom.capacity_bps),
        total_retransmits=sum(s.retransmits for s in senders),
        total_throughput_bps=sum(throughputs),
        bottleneck_drops=int(round(aqm_dropped)),
        duration_s=measured_s,
        engine=config.engine,
        events_processed=0,
        wallclock_s=wallclock_s,
        extra=extra,
    )
