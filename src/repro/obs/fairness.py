"""Engine-agnostic fairness-dynamics telemetry.

The paper's headline quantities — Jain's index, link utilization φ, and
the short-term dynamics that "have strong impacts on long-term fairness"
— used to be observable only as end-of-run scalars (and, as time series,
only on the packet DES).  This module records them *over time* on every
engine through one shared recorder:

- :class:`FairnessProbe` is the pure-Python core: feed it per-flow
  rate samples on a fixed simulated-time cadence and it accumulates the
  per-sender Jain series, the per-flow Jain series, the φ (utilization)
  series, and the bottleneck queue series, then derives convergence
  time, fairness-oscillation counts, and loss-synchronization instants
  via the series helpers in :mod:`repro.analysis.convergence`.
- :func:`instrument_packet_fairness` drives a probe from the DES via a
  :class:`~repro.metrics.timeseries.ThroughputSampler` ``on_sample``
  hook (timer events only — outcomes are bit-identical with it on/off).
- :func:`attach_batched_fairness` installs a passive per-step sampling
  hook on the fluid integrator (both fluid engines).  It computes the
  per-flow rate deltas with one elementwise numpy expression and hands
  plain Python floats to the probe, so the two fluid engines' Jain/φ
  series agree **bit-for-bit** whenever their state does (enforced by
  ``tests/fluid/test_batched_vs_scalar.py``).

Sampling is opt-in via ``ExperimentConfig.fairness_interval_s``; the
probe only ever *reads* engine state (no RNG draws, no mutation), so
enabling it never perturbs outcomes on any engine.

Downstream, the recorded series land in ``result.extra["fairness"]``,
stream into the run log as ``fairness`` records, surface as pull gauges
in the metrics registry, and export as Perfetto counter tracks — see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.convergence import (
    series_convergence_time_s,
    series_oscillation_count,
    series_sync_loss_times,
)
from repro.metrics.fairness import jain_index

#: Default sampling cadence (simulated seconds) for CLI ``--fairness``.
DEFAULT_FAIRNESS_INTERVAL_S = 1.0


class FairnessProbe:
    """Accumulates fairness-dynamics series from per-flow rate samples.

    The probe is deliberately engine-blind: every engine adapter reduces
    its state to ``(t_s, per-flow bits/sec, queue packets)`` and calls
    :meth:`sample`; all derived math happens here in pure Python, so two
    engines feeding bit-identical samples produce bit-identical series.
    """

    def __init__(
        self,
        *,
        capacity_bps: float,
        node_of: Sequence[int],
        interval_s: float,
        engine: str = "",
    ):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.capacity_bps = float(capacity_bps)
        self.node_of = [int(n) for n in node_of]
        if not self.node_of:
            raise ValueError("need at least one flow")
        self.n_nodes = max(self.node_of) + 1
        self.interval_s = float(interval_s)
        self.engine = engine
        self.t_s: List[float] = []
        self.jain: List[float] = []
        self.flow_jain: List[float] = []
        self.phi: List[float] = []
        self.queue_pkts: List[float] = []
        #: Per-node aggregate rate series (``sender_bps[node][sample]``).
        self.sender_bps: List[List[float]] = [[] for _ in range(self.n_nodes)]

    def sample(self, t_s: float, flow_bps: Sequence[float], queue_pkts: float = 0.0) -> None:
        """Record one sample: per-flow rates (bits/sec) at sim time ``t_s``."""
        if len(flow_bps) != len(self.node_of):
            raise ValueError(
                f"expected {len(self.node_of)} flow rates, got {len(flow_bps)}"
            )
        rates = [float(v) for v in flow_bps]
        per_node = [0.0] * self.n_nodes
        for node, rate in zip(self.node_of, rates):
            per_node[node] += rate
        self.t_s.append(float(t_s))
        self.jain.append(jain_index(per_node))
        self.flow_jain.append(jain_index(rates))
        self.phi.append(sum(rates) / self.capacity_bps)
        self.queue_pkts.append(float(queue_pkts))
        for node, rate in enumerate(per_node):
            self.sender_bps[node].append(rate)

    # -- derived dynamics ---------------------------------------------------------

    def convergence_time_s(self) -> Optional[float]:
        """When the per-sender Jain series converges (None if never)."""
        return series_convergence_time_s(self.t_s, self.jain)

    def oscillations(self) -> int:
        """Downward fairness-threshold crossings after convergence."""
        return series_oscillation_count(self.jain)

    def sync_loss_times_s(self) -> List[float]:
        """Loss-synchronization instants: sharp one-sample drops in φ."""
        return series_sync_loss_times(self.t_s, self.phi)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready series + derived dynamics (``result.extra['fairness']``)."""
        return {
            "engine": self.engine,
            "interval_s": self.interval_s,
            "samples": len(self.t_s),
            "t_s": list(self.t_s),
            "jain": list(self.jain),
            "flow_jain": list(self.flow_jain),
            "phi": list(self.phi),
            "queue_pkts": list(self.queue_pkts),
            "sender_bps": [list(s) for s in self.sender_bps],
            "convergence_time_s": self.convergence_time_s(),
            "oscillations": self.oscillations(),
            "sync_loss_t_s": self.sync_loss_times_s(),
        }


# --- run-log / registry integration -------------------------------------------


def fairness_records(fairness: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Yield one run-log ``fairness`` record dict per recorded sample."""
    t_s = fairness.get("t_s") or []
    jain = fairness.get("jain") or []
    flow_jain = fairness.get("flow_jain") or []
    phi = fairness.get("phi") or []
    queue = fairness.get("queue_pkts") or []
    sender = fairness.get("sender_bps") or []
    for i, t in enumerate(t_s):
        yield {
            "t_sim_s": t,
            "jain": jain[i],
            "flow_jain": flow_jain[i],
            "phi": phi[i],
            "queue_pkts": queue[i],
            "sender_bps": [s[i] for s in sender],
        }


def fairness_summary(fairness: Dict[str, Any]) -> Dict[str, Any]:
    """Compact dynamics digest folded into the run-log ``summary`` record."""
    return {
        "samples": fairness.get("samples", 0),
        "interval_s": fairness.get("interval_s"),
        "convergence_time_s": fairness.get("convergence_time_s"),
        "oscillations": fairness.get("oscillations", 0),
        "sync_losses": len(fairness.get("sync_loss_t_s") or []),
    }


def register_fairness_gauges(registry, fairness: Dict[str, Any]) -> None:
    """Expose a fairness dict as pull gauges (Prometheus-exportable).

    Gauges read the *latest* sample at snapshot time, so a registry
    snapshotted mid-run (or at finish) reports the live values.
    Idempotent: re-registering the same keys returns the existing gauges.
    """

    def _last(key: str, default: float) -> Callable[[], float]:
        def read() -> float:
            series = fairness.get(key) or []
            return float(series[-1]) if series else default

        return read

    registry.gauge(
        "fairness_jain", "Per-sender Jain index, latest sample", fn=_last("jain", 1.0)
    )
    registry.gauge(
        "fairness_flow_jain", "Per-flow Jain index, latest sample",
        fn=_last("flow_jain", 1.0),
    )
    registry.gauge(
        "fairness_phi", "Link utilization phi, latest sample", fn=_last("phi", 0.0)
    )
    registry.gauge(
        "fairness_queue_pkts", "Bottleneck backlog (packets), latest sample",
        fn=_last("queue_pkts", 0.0),
    )
    registry.gauge(
        "fairness_convergence_time_s",
        "Jain convergence time in simulated seconds (-1 = not yet converged)",
        fn=lambda: (
            -1.0
            if fairness.get("convergence_time_s") is None
            else float(fairness["convergence_time_s"])
        ),
    )
    registry.gauge(
        "fairness_oscillations", "Fairness oscillations (threshold re-crossings)",
        fn=lambda: float(fairness.get("oscillations", 0)),
    )
    registry.gauge(
        "fairness_sync_losses", "Loss-synchronization instants detected",
        fn=lambda: float(len(fairness.get("sync_loss_t_s") or [])),
    )
    registry.counter(
        "fairness_samples_total", "Fairness probe samples recorded",
        fn=lambda: len(fairness.get("t_s") or []),
    )


# --- packet (DES) adapter ------------------------------------------------------


class PacketFairnessSampler:
    """DES driver: a :class:`ThroughputSampler` feeding a fairness probe.

    Reuses the sampler's byte-counter deltas (the same machinery behind
    ``extra["series_bps"]``) through its ``on_sample`` hook, so the only
    engine footprint is the sampler's timer events — which, like every
    telemetry event, change ``events_processed`` and nothing else.
    """

    def __init__(self, sim, probe: FairnessProbe, interval_ns: int,
                 queue_fn: Callable[[], float]):
        from repro.metrics.timeseries import ThroughputSampler

        self.probe = probe
        self._queue_fn = queue_fn
        self._names: List[str] = []
        self._sampler = ThroughputSampler(sim, interval_ns)
        self._sampler.on_sample = self._on_sample

    def track(self, name: str, counter: Callable[[], int]) -> None:
        """Register one flow's byte counter (in flow order)."""
        self._names.append(name)
        self._sampler.track(name, counter)

    def start(self) -> None:
        """Begin sampling on the simulator clock."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling, flushing the final partial interval."""
        self._sampler.stop()

    def _on_sample(self, now_ns: int, rates: Dict[str, float]) -> None:
        self.probe.sample(
            now_ns / 1e9,
            [rates[name] for name in self._names],
            float(self._queue_fn()),
        )


def instrument_packet_fairness(
    sim,
    qdisc,
    capacity_bps: float,
    flows: Sequence[Tuple[int, int, Callable[[], int]]],
    interval_s: Optional[float],
) -> Optional[PacketFairnessSampler]:
    """Wire fairness sampling into a built packet experiment.

    ``flows`` is ``(flow_id, node_index, bytes_received_fn)`` in flow
    order.  Returns None when ``interval_s`` is falsy — the disabled path
    constructs nothing and schedules nothing (bench-guarded by the
    ``datapath_fairness_disabled`` workload).
    """
    if not interval_s:
        return None
    from repro.units import seconds

    probe = FairnessProbe(
        capacity_bps=capacity_bps,
        node_of=[node for _, node, _ in flows],
        interval_s=float(interval_s),
        engine="packet",
    )
    sampler = PacketFairnessSampler(
        sim, probe, seconds(interval_s), lambda: qdisc.packets_queued
    )
    for flow_id, _, counter in flows:
        sampler.track(f"flow{flow_id}", counter)
    sampler.start()
    return sampler


# --- fluid adapters ------------------------------------------------------------


def fluid_sample_stride(interval_s: float, dt: float) -> int:
    """Integration steps per fairness sample (>= 1) for a fluid engine."""
    return max(1, int(round(float(interval_s) / dt)))


def attach_batched_fairness(sim) -> List[FairnessProbe]:
    """Install the vectorized sampling hook on a :class:`BatchedFluidSimulation`.

    One probe per config in the shard.  The hook reads ``delivered_total``
    deltas and the backlog — never writes, never draws randomness — so
    integration outcomes are unchanged.  It computes the whole lane
    table's delivery delta once per sample, then slices each config's
    lanes, contiguous 1-D ranges summed the same way whatever the shard,
    so a config's fairness series does not depend on its shard-mates.
    """
    probes: List[FairnessProbe] = []
    for c, config in enumerate(sim.configs):
        probes.append(
            FairnessProbe(
                capacity_bps=sim.geoms[c].capacity_bps,
                node_of=sim.geoms[c].node_of.tolist(),
                interval_s=float(config.fairness_interval_s),
                engine=config.engine,
            )
        )
    state = {"delivered": sim.delivered_total.copy(), "t": sim.now}
    bits_per_pkt = [8.0 * c.mss_bytes for c in sim.configs]

    def hook(s) -> None:
        span = s.now - state["t"]
        delta = s.delivered_total - state["delivered"]
        for c, probe in enumerate(probes):
            lanes = slice(s.offsets[c], s.offsets[c + 1])
            probe.sample(
                s.now,
                (delta[lanes] * (bits_per_pkt[c] / span)).tolist(),
                float(s.backlog[lanes].sum()),
            )
        state["delivered"] = s.delivered_total.copy()
        state["t"] = s.now

    sim.set_sample_hook(
        hook, fluid_sample_stride(sim.configs[0].fairness_interval_s, sim.dt)
    )
    return probes
