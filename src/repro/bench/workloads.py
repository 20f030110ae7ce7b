"""Pinned-seed benchmark workloads.

Each workload is a pure function of its :class:`WorkloadSpec` parameters:
same spec, same seeds, same simulated work — so the "events" count it
returns is deterministic, and wall time is the only thing that varies
between runs.  ``benchmarks/bench_engine.py`` times the same functions
under pytest-benchmark; :mod:`repro.bench.harness` times them for the
regression gate.

A workload returns ``(events, checksum)``: ``events`` is the unit the
events/sec throughput metric counts (simulator events, fluid steps);
``checksum`` is a cheap determinism witness the harness verifies across
repeats (a drift here means a workload stopped being pinned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

#: Quick mode shrinks every workload by this factor (CI smoke runs).
QUICK_FACTOR = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload plus the parameters that pin it."""

    name: str
    fn: Callable[..., Tuple[int, int]]
    params: Dict[str, Any] = field(default_factory=dict)
    quick_params: Dict[str, Any] = field(default_factory=dict)

    def run(self, quick: bool = False) -> Tuple[int, int]:
        """Execute once; returns (events, checksum)."""
        return self.fn(**(self.quick_params if quick else self.params))

    def config(self, quick: bool = False) -> Dict[str, Any]:
        """The parameter dict that pins this workload (for config hashing)."""
        params = self.quick_params if quick else self.params
        return {"workload": self.name, "quick": quick, **params}


# --- engine microbenchmarks ----------------------------------------------------


def event_loop(count: int) -> Tuple[int, int]:
    """Schedule+dispatch cost of the bare event loop."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def noop() -> None:
        pass

    for i in range(count):
        sim.schedule(i, noop)
    sim.run()
    return sim.events_processed, sim.now


def timer_churn(count: int) -> Tuple[int, int]:
    """Cancel/reschedule pattern of TCP retransmission timers."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    state = {"handle": None, "fired": 0}

    def tick(i: int) -> None:
        state["fired"] += 1
        if state["handle"] is not None:
            state["handle"].cancel()
        if i < count:
            state["handle"] = sim.schedule(1000, tick, i + 1)

    sim.schedule(0, tick, 0)
    sim.run()
    return sim.events_processed, state["fired"]


def single_flow_datapath(duration_s: float, bw_mbps: float = 20.0) -> Tuple[int, int]:
    """Full-stack packets/second: one CUBIC flow over the dumbbell."""
    from repro.cca.registry import make_cca
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
    from repro.units import mbps, seconds

    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(bw_mbps), buffer_bdp=2.0, mss_bytes=1500, seed=1)
    )
    conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500, flow_id=1)
    conn.start()
    db.network.run(seconds(duration_s))
    return db.sim.events_processed, conn.receiver.bytes_received


def datapath_obs_disabled(duration_s: float, bw_mbps: float = 20.0) -> Tuple[int, int]:
    """``single_flow_datapath`` with disabled telemetry wired in.

    Regression gate for the telemetry subsystem's core promise: wiring a
    *disabled* registry plus the null tracer into the full stack must not
    slow the datapath.  Compare this row against ``single_flow_datapath``
    in the same report — the events/sec should match within noise, and the
    baseline comparison catches anyone sneaking per-packet work into the
    disabled path.
    """
    from repro.cca.registry import make_cca
    from repro.obs.instrument import instrument_experiment
    from repro.obs.metrics import MetricsRegistry
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
    from repro.units import mbps, seconds

    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(bw_mbps), buffer_bdp=2.0, mss_bytes=1500, seed=1)
    )
    conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500, flow_id=1)
    registry = MetricsRegistry(enabled=False)
    instrument_experiment(registry, db, [conn.sender], cwnd_interval_ns=None)
    conn.start()
    db.network.run(seconds(duration_s))
    return db.sim.events_processed, conn.receiver.bytes_received


def datapath_spans_disabled(duration_s: float, bw_mbps: float = 20.0) -> Tuple[int, int]:
    """``single_flow_datapath`` run through the disabled span/profiler plumbing.

    Companion gate to ``datapath_obs_disabled`` for the tracing subsystem:
    the run is wrapped in NULL-tracer phase spans exactly the way the
    experiment runner wraps it, with ``sim.profiler`` left at ``None``, so
    the events/sec must match ``single_flow_datapath`` within noise — any
    per-event cost sneaking into the disabled path shows up here.
    """
    from repro.cca.registry import make_cca
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.instrument import instrument_experiment
    from repro.obs.spans import CAT_RUN, NULL_SPAN_TRACER
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
    from repro.units import mbps, seconds

    spans = NULL_SPAN_TRACER
    run_span = spans.start("run", CAT_RUN, labels={"bench": True})
    with spans.span("setup"):
        db = build_dumbbell(
            DumbbellConfig(bottleneck_bw_bps=mbps(bw_mbps), buffer_bdp=2.0,
                           mss_bytes=1500, seed=1)
        )
        conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"),
                               mss=1500, flow_id=1)
        instrument_experiment(MetricsRegistry(enabled=False), db, [conn.sender],
                              cwnd_interval_ns=None)
        conn.start()
    assert db.sim.profiler is None  # the plain (unprofiled) loop must run
    with spans.span("transfer"):
        db.network.run(seconds(duration_s))
    run_span.close()
    return db.sim.events_processed, conn.receiver.bytes_received


def datapath_fairness_disabled(duration_s: float, bw_mbps: float = 20.0) -> Tuple[int, int]:
    """``single_flow_datapath`` with the fairness probe left disabled.

    Companion gate to ``datapath_obs_disabled`` / ``datapath_spans_disabled``
    for the fairness observatory: ``instrument_packet_fairness`` is called
    exactly the way the experiment runner calls it, with the cadence left at
    ``None``, so it must return ``None`` and schedule nothing — the
    events/sec must match ``single_flow_datapath`` within noise.  Any
    per-packet or per-event cost sneaking into the disabled path shows up
    here against the baseline.
    """
    from repro.cca.registry import make_cca
    from repro.obs.fairness import instrument_packet_fairness
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
    from repro.units import mbps, seconds

    db = build_dumbbell(
        DumbbellConfig(bottleneck_bw_bps=mbps(bw_mbps), buffer_bdp=2.0, mss_bytes=1500, seed=1)
    )
    conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500, flow_id=1)
    sampler = instrument_packet_fairness(
        db.sim,
        db.bottleneck_qdisc,
        db.config.scaled_bottleneck_bps,
        [(1, 0, lambda: conn.receiver.bytes_received)],
        None,
    )
    assert sampler is None  # disabled probe must not touch the event loop
    conn.start()
    db.network.run(seconds(duration_s))
    return db.sim.events_processed, conn.receiver.bytes_received


def contended_datapath_aqm(duration_s: float, aqm: str, bw_mbps: float = 20.0) -> Tuple[int, int]:
    """Two competing flows (BBRv1 vs CUBIC) through a non-trivial AQM.

    Exercises the per-packet AQM enqueue/dequeue path plus pacing — the
    parts of the hot path the single-flow FIFO bench barely touches.
    """
    from repro.cca.registry import make_cca
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_packet_experiment

    cfg = ExperimentConfig(
        cca_pair=("bbrv1", "cubic"),
        aqm=aqm,
        buffer_bdp=2.0,
        bottleneck_bw_bps=bw_mbps * 1e6,
        duration_s=duration_s,
        mss_bytes=1500,
        seed=1,
        flows_per_node=1,
    )
    result = run_packet_experiment(cfg)
    return result.events_processed, int(result.total_throughput_bps)


def fluid_steps(duration_s: float, n_flows: int = 500) -> Tuple[int, int]:
    """Fluid-engine steps/second with a large flow population."""
    import numpy as np

    from repro.fluid.aqm_rules import FluidFifo
    from repro.fluid.cca_rules import make_fluid_cca
    from repro.fluid.model import FluidSimulation

    rng = np.random.default_rng(1)
    flows = [make_fluid_cca("cubic", rng) for _ in range(n_flows)]
    aqm = FluidFifo(limit_pkts=43_000, capacity_pps=350_000, n_flows=n_flows)
    sim = FluidSimulation(
        capacity_pps=350_000, base_rtt_s=0.062, aqm=aqm, flows=flows, arrival_rng=rng
    )
    sim.run(duration_s)
    steps = int(round(duration_s / sim.dt))
    return steps * n_flows, int(sim.delivered_total.sum())


def fluid_batched_shard(duration_s: float, n_seeds: int = 3, flows_per_node: int = 10) -> Tuple[int, int]:
    """Batched fluid backend: one lock-step shard of many configs.

    Builds a homogeneous shard (4 CCA pairs x ``n_seeds`` seeds, all FIFO
    at 1 Gbps) and advances it as a single stacked integration — the
    campaign fast path for ``engine="fluid_batched"``.  Events are
    lane-steps (steps x configs x flows), the batched analogue of
    ``fluid_steps``, so the two rows are directly comparable per lane.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.fluid.batched import BatchedFluidSimulation

    pairs = (("cubic", "cubic"), ("bbrv1", "cubic"), ("reno", "htcp"), ("bbrv2", "bbrv2"))
    configs = [
        ExperimentConfig(
            cca_pair=pair,
            aqm="fifo",
            buffer_bdp=2.0,
            bottleneck_bw_bps=1e9,
            duration_s=duration_s,
            mss_bytes=8900,
            seed=seed,
            engine="fluid_batched",
            flows_per_node=flows_per_node,
        )
        for pair in pairs
        for seed in range(1, n_seeds + 1)
    ]
    sim = BatchedFluidSimulation(configs)
    sim.run(duration_s)
    steps = int(round(duration_s / sim.dt))
    return steps * sim.delivered_total.size, int(sim.delivered_total.sum())


#: The harness registry.  Order is the execution/report order.
WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "event_loop",
        event_loop,
        params={"count": 200_000},
        quick_params={"count": 200_000 // QUICK_FACTOR},
    ),
    WorkloadSpec(
        "timer_churn",
        timer_churn,
        params={"count": 50_000},
        quick_params={"count": 50_000 // QUICK_FACTOR},
    ),
    WorkloadSpec(
        "single_flow_datapath",
        single_flow_datapath,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
    WorkloadSpec(
        "datapath_obs_disabled",
        datapath_obs_disabled,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
    WorkloadSpec(
        "datapath_spans_disabled",
        datapath_spans_disabled,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
    WorkloadSpec(
        "datapath_fairness_disabled",
        datapath_fairness_disabled,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
    WorkloadSpec(
        "contended_fq_codel",
        contended_datapath_aqm,
        params={"duration_s": 3.0, "aqm": "fq_codel"},
        quick_params={"duration_s": 3.0 / QUICK_FACTOR, "aqm": "fq_codel"},
    ),
    WorkloadSpec(
        "contended_red",
        contended_datapath_aqm,
        params={"duration_s": 3.0, "aqm": "red"},
        quick_params={"duration_s": 3.0 / QUICK_FACTOR, "aqm": "red"},
    ),
    WorkloadSpec(
        "fluid_steps",
        fluid_steps,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
    WorkloadSpec(
        "fluid_batched_shard",
        fluid_batched_shard,
        params={"duration_s": 5.0},
        quick_params={"duration_s": 5.0 / QUICK_FACTOR},
    ),
)

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}
