"""Run one experiment configuration and produce an :class:`ExperimentResult`.

The packet engine builds the paper's dumbbell, opens the Table 2 flow
complement (client1 -> server1 with ``cca_pair[0]``, client2 -> server2
with ``cca_pair[1]``), runs the clock for ``duration_s`` of simulated
time, and aggregates per-flow counters into per-sender statistics, Jain's
index, link utilization, and retransmission totals.  The fluid engines
are dispatched to :mod:`repro.fluid.batched`.
"""

from __future__ import annotations

import importlib
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.fairness import jain_index
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.metrics.utilization import link_utilization
from repro.obs.spans import CAT_RUN, NULL_SPAN_TRACER
from repro.units import milliseconds, seconds

if TYPE_CHECKING:
    from repro.obs.session import TelemetryOptions, TelemetrySession
    from repro.tcp.connection import Connection

#: The modules each engine runs on, imported by the engine's first run.  A
#: parent that forks workers imports them first (``load_engines``), so its
#: children inherit them instead of each compiling its own copy.
ENGINE_MODULES: Dict[str, Tuple[str, ...]] = {
    "packet": ("repro.cca.registry", "repro.tcp.connection", "repro.testbed.dumbbell"),
    "fluid": ("repro.fluid.batched",),
    "fluid_batched": ("repro.fluid.batched",),
}


def load_engines(configs: Iterable[ExperimentConfig], telemetry: bool = False) -> None:
    """Import every module the runs of ``configs`` will need, now."""
    names = set()
    for config in configs:
        names.update(ENGINE_MODULES[config.engine])
        if config.fairness_interval_s:
            names.add("repro.obs.fairness")
    if telemetry:
        names.add("repro.obs.session")
    for name in sorted(names):
        importlib.import_module(name)

#: Start jitter span for flow launch, mimicking near-simultaneous iperf3
#: process spawns (and desynchronizing slow-start among parallel streams).
START_JITTER_NS = milliseconds(100)

#: Cadence (simulated time) of run-log progress records when telemetry is on.
PROGRESS_INTERVAL_NS = seconds(1)


def run_experiment(
    config: ExperimentConfig,
    telemetry: Optional[TelemetryOptions] = None,
) -> ExperimentResult:
    """Execute one configuration with the engine it names.

    ``telemetry``, when given, opens a :class:`TelemetrySession` around the
    run: manifest + metrics + summary records go to a JSONL run log, and a
    failure dumps the flight-recorder window.  Telemetry is deliberately
    *not* part of :class:`ExperimentConfig` — it never perturbs outcomes
    (every flow/queue statistic is bit-identical with it on or off; only
    ``events_processed`` additionally counts the sampler's timer events).
    """
    if config.engine != "packet":
        # A one-config shard of the fluid integrator, with the round rule
        # the engine names (see repro.fluid.batched).
        from repro.fluid.batched import run_fluid_single

        if telemetry is None:
            return run_fluid_single(config)
        from repro.obs.session import TelemetrySession

        session = TelemetrySession.start(config, telemetry)
        try:
            with session.spans.span("run", CAT_RUN, label=config.label(),
                                    engine=config.engine, seed=config.seed):
                result = run_fluid_single(config)
        except Exception as exc:
            session.record_failure(exc)
            raise
        session.finish(result)
        return result
    return run_packet_experiment(config, telemetry=telemetry)


def run_packet_experiment(
    config: ExperimentConfig,
    telemetry: Optional[TelemetryOptions] = None,
) -> ExperimentResult:
    """Packet-level (discrete-event) execution of one configuration."""
    if telemetry is None:
        return _execute_packet(config, None)
    from repro.obs.session import TelemetrySession

    session = TelemetrySession.start(config, telemetry)
    try:
        result = _execute_packet(config, session)
    except Exception as exc:
        session.record_failure(exc)
        raise
    session.finish(result)
    return result


def _execute_packet(
    config: ExperimentConfig, session: Optional[TelemetrySession]
) -> ExperimentResult:
    from repro.cca.registry import make_cca
    from repro.tcp.connection import open_connection
    from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell

    wall_start = time.perf_counter()
    # Span lifecycle: run -> setup / warmup / transfer / collect.  The
    # tracer is NULL (every call a no-op) unless --trace asked for spans,
    # and all spans are phase-granular — nothing here is per-packet.
    spans = session.spans if session is not None else NULL_SPAN_TRACER
    run_span = spans.start("run", CAT_RUN,
                           labels={"label": config.label(), "engine": "packet",
                                   "seed": config.seed})
    setup_span = spans.start("setup")
    dumbbell = build_dumbbell(
        DumbbellConfig(
            bottleneck_bw_bps=config.bottleneck_bw_bps,
            buffer_bdp=config.buffer_bdp,
            aqm=config.aqm,
            mss_bytes=config.mss_bytes,
            scale=config.scale,
            seed=config.seed,
            ecn_mode=config.ecn_mode,
            aqm_params=dict(config.aqm_params),
            delay_multiplier=config.delay_multiplier,
            client_delay_multipliers=config.client_delay_multipliers,
            trunk_loss_rate=config.trunk_loss_rate,
        )
    )
    net = dumbbell.network
    start_rng = net.rng.stream("flow-start")
    cca_rng = net.rng.stream("cca")

    plan = config.plan
    connections: List[List[Connection]] = [[], []]
    # Flow ids are pinned per experiment (1..2N in creation order) rather
    # than drawn from the process-global counter, so reruns of the same
    # config are bit-identical regardless of what ran earlier in the
    # process (flow-id-hashed AQMs like fq_codel see the same buckets).
    next_fid = 1
    for node_idx, cca_name in enumerate(config.cca_pair):
        client = dumbbell.clients[node_idx]
        server = dumbbell.servers[node_idx]
        for _ in range(plan.flows_per_node):
            conn = open_connection(
                client,
                server,
                make_cca(cca_name, cca_rng),
                mss=config.mss_bytes,
                flow_id=next_fid,
                ecn_enabled=config.ecn_mode,
            )
            next_fid += 1
            conn.start(delay_ns=int(start_rng.uniform(0, START_JITTER_NS)))
            connections[node_idx].append(conn)

    # Arm the fault timeline at a fixed point in the scheduling order —
    # before any telemetry-owned events — so event sequence numbers (the
    # same-instant tie-breakers) are identical with telemetry on or off.
    fault_schedule = None
    if config.faults:
        from repro.faults.schedule import FaultSchedule

        fault_schedule = FaultSchedule.from_config(
            config, rng=net.rng.stream("faults")
        )
        fault_schedule.arm(net.sim, dumbbell)

    if session is not None:
        senders = [conn.sender for conns in connections for conn in conns]
        session.instrument(dumbbell, senders)
        if fault_schedule is not None:
            session.attach_faults(fault_schedule)
        sim = net.sim

        def _progress() -> None:
            session.progress(sim.now / 1e9)
            sim.call_later(PROGRESS_INTERVAL_NS, _progress)

        sim.call_later(PROGRESS_INTERVAL_NS, _progress)

    # Snapshot byte counters at the warmup boundary so excluded-warmup
    # throughput only counts bytes delivered inside the measured window.
    warmup_bytes: dict = {}
    if config.warmup_s > 0:
        def _snapshot() -> None:
            for conns in connections:
                for conn in conns:
                    warmup_bytes[conn.flow_id] = conn.receiver.bytes_received

        net.sim.schedule(seconds(config.warmup_s), _snapshot)

    sampler = None
    if config.sample_interval_s:
        from repro.metrics.timeseries import ThroughputSampler

        sampler = ThroughputSampler(net.sim, seconds(config.sample_interval_s))
        for node_idx, conns in enumerate(connections):
            for conn in conns:
                sampler.track(
                    f"flow{conn.flow_id}",
                    lambda r=conn.receiver: r.bytes_received,
                )
        sampler.start()

    queue_monitor = None
    if config.queue_monitor_interval_s:
        from repro.metrics.queue_monitor import QueueMonitor

        queue_monitor = QueueMonitor(
            net.sim, dumbbell.bottleneck_qdisc, seconds(config.queue_monitor_interval_s)
        )
        queue_monitor.start()

    fairness_sampler = None
    if config.fairness_interval_s:
        from repro.obs.fairness import instrument_packet_fairness

        fairness_sampler = instrument_packet_fairness(
            net.sim,
            dumbbell.bottleneck_qdisc,
            dumbbell.config.scaled_bottleneck_bps,
            [
                (conn.flow_id, node_idx, (lambda r=conn.receiver: r.bytes_received))
                for node_idx, conns in enumerate(connections)
                for conn in conns
            ],
            config.fairness_interval_s,
        )
    setup_span.close()

    # The event-loop phase is one wall-clock region; when spans are on and
    # a warmup window exists, a sim-scheduled boundary callback splits it
    # into warmup/transfer spans (the callback touches only the span
    # tracer, never simulation state, so outcomes are unchanged — same
    # class of telemetry event as the progress records above).
    phase_span = spans.start("warmup" if config.warmup_s > 0 else "transfer")
    if spans.enabled and 0 < config.warmup_s < config.duration_s:
        def _warmup_boundary() -> None:
            phase_span.close()
            spans.start("transfer")

        net.sim.schedule(seconds(config.warmup_s), _warmup_boundary)

    net.run(seconds(config.duration_s))
    current = spans.current
    if current is not None:
        current.close()  # transfer (or warmup, if the boundary never fired)

    with spans.span("collect"):
        # Flush the samplers' final partial intervals before reading them.
        if sampler is not None:
            sampler.stop()
        if fairness_sampler is not None:
            fairness_sampler.stop()
        for conns in connections:
            for conn in conns:
                conn.stop()
        result = _collect(
            config, dumbbell, connections, sampler, queue_monitor, warmup_bytes,
            wall_start, fault_schedule, fairness_sampler,
        )
    run_span.annotate(events=dumbbell.sim.events_processed)
    run_span.close()
    return result


def _collect(
    config, dumbbell, connections, sampler, queue_monitor, warmup_bytes,
    wall_start, fault_schedule=None, fairness_sampler=None,
) -> ExperimentResult:
    measured_s = config.duration_s - config.warmup_s
    flows: List[tuple] = []  # one FlowStats field tuple per flow
    senders: List[SenderStats] = []
    for node_idx, conns in enumerate(connections):
        node_name = dumbbell.clients[node_idx].name
        cca_name = config.cca_pair[node_idx]
        node_bytes = 0
        node_retx = 0
        for conn in conns:
            rx = conn.receiver.bytes_received - warmup_bytes.get(conn.flow_id, 0)
            node_bytes += rx
            node_retx += conn.sender.retransmits
            flows.append((
                conn.flow_id, node_name, cca_name, rx * 8 / measured_s, rx,
                conn.sender.segments_sent, conn.sender.retransmits,
                conn.sender.rto_count, conn.sender.fast_recoveries,
            ))
        senders.append(
            SenderStats(
                node=node_name,
                cca=cca_name,
                throughput_bps=node_bytes * 8 / measured_s,
                retransmits=node_retx,
                flows=len(conns),
            )
        )

    throughputs = [s.throughput_bps for s in senders]
    bottleneck_bps = dumbbell.config.scaled_bottleneck_bps
    qstats = dumbbell.bottleneck_qdisc.stats
    extra = {}
    if sampler is not None:
        extra["interval_s"] = config.sample_interval_s
        extra["series_bps"] = {k: list(v) for k, v in sampler.series.items()}
    if queue_monitor is not None:
        extra["queue_trace"] = queue_monitor.trace.to_dict()
        extra["queue_occupancy"] = queue_monitor.trace.occupancy(
            dumbbell.bottleneck_qdisc.limit_bytes
        )
    # Per-flow fairness (n = all flows) alongside the paper's per-sender
    # index — the "scaling capability" measure of contribution #2.
    table = FlowTable.from_rows(flows)
    extra["flow_jain_index"] = jain_index(table.column("throughput_bps"))
    if fairness_sampler is not None:
        extra["fairness"] = fairness_sampler.probe.to_dict()
    if fault_schedule is not None:
        # Deterministic audit trail of what was injected (simulated-time
        # stamps only, so it is golden-fixture comparable).
        extra["faults"] = {
            "injected": fault_schedule.injected,
            "applied": list(fault_schedule.applied),
        }

    return ExperimentResult(
        config=config.to_dict(),
        senders=senders,
        flows=table,
        jain_index=jain_index(throughputs),
        link_utilization=link_utilization(throughputs, bottleneck_bps),
        total_retransmits=sum(s.retransmits for s in senders),
        total_throughput_bps=sum(throughputs),
        bottleneck_drops=qstats.dropped_total,
        duration_s=measured_s,
        engine="packet",
        events_processed=dumbbell.sim.events_processed,
        wallclock_s=time.perf_counter() - wall_start,
        extra=extra,
    )
