"""The fluid integrator.

Time advances in fixed steps of ``base_rtt / steps_per_rtt``.  Each step:

1. every flow's send rate is computed from its window (``cwnd/RTT_eff``)
   or its pacing rate, clipped by the BBR inflight cap;
2. arrivals enter the AQM, which drops and serves per its law;
3. per-flow round accumulators collect delivered/lost packets, and flows
   whose round timer (one effective RTT) expired get a
   :class:`~repro.fluid.cca_rules.RoundInfo` callback.

Rates and queues are in **segments** (packets); the caller converts to
bits using the configured MSS.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.fluid.aqm_rules import FluidAqm
from repro.fluid.cca_rules import FluidCca, RoundInfo
from repro.fluid.noise import UniformTable, poisson_from_uniform

DEFAULT_STEPS_PER_RTT = 5


class FluidSimulation:
    """Integrate a set of flows over a single bottleneck."""

    def __init__(
        self,
        *,
        capacity_pps: float,
        base_rtt_s: float,
        aqm: FluidAqm,
        flows: Sequence[FluidCca],
        start_times_s: Optional[Sequence[float]] = None,
        steps_per_rtt: int = DEFAULT_STEPS_PER_RTT,
        arrival_rng: Optional[np.random.Generator] = None,
        burst_pkts: int = 4,
    ):
        if capacity_pps <= 0 or base_rtt_s <= 0:
            raise ValueError("capacity and base RTT must be positive")
        if len(flows) == 0:
            raise ValueError("need at least one flow")
        if aqm.n != len(flows):
            raise ValueError("AQM was sized for a different flow count")
        self.capacity = capacity_pps
        self.base_rtt = base_rtt_s
        self.aqm = aqm
        self.flows: List[FluidCca] = list(flows)
        self.n = len(flows)
        self.dt = base_rtt_s / steps_per_rtt
        self.now = 0.0
        # With an arrival RNG, per-step arrivals are Poisson-sampled around
        # the fluid rate in bursts of ``burst_pkts`` (ACK-clocked TCP sends
        # back-to-back runs) — the packet-level burstiness that makes small
        # buffers overflow (mean-field arrivals never would).  The variates
        # come from a positionally consumed uniform table through the
        # shared inverse-CDF transform, so the batched backend reproduces
        # them bit-for-bit (see repro.fluid.noise).
        self.arrival_rng = arrival_rng
        if burst_pkts < 1:
            raise ValueError(f"burst_pkts must be >= 1, got {burst_pkts}")
        self.burst_pkts = burst_pkts
        self._arrival_noise = (
            UniformTable([arrival_rng], [self.n]) if arrival_rng is not None else None
        )
        # Measurement-window bookkeeping (begin_measurement()).
        self._measure_start_s: Optional[float] = None
        self._measure_delivered: Optional[np.ndarray] = None

        starts = np.asarray(start_times_s if start_times_s is not None else np.zeros(self.n), dtype=float)
        if len(starts) != self.n:
            raise ValueError("start_times length mismatch")
        self.start_times = starts

        # Mirrors of per-flow CCA outputs (refreshed at round boundaries).
        self.cwnd = np.array([f.cwnd for f in self.flows])
        self.pacing = np.full(self.n, np.nan)
        self.cap = np.full(self.n, np.inf)

        # Round bookkeeping.
        self.next_round = starts + base_rtt_s
        self.round_delivered = np.zeros(self.n)
        self.round_lost = np.zeros(self.n)
        self.round_started_at = starts.copy()

        # Totals.
        self.delivered_total = np.zeros(self.n)
        self.dropped_total = np.zeros(self.n)

        # Passive per-step sampling seam (see set_sample_hook).
        self._sample_hook = None
        self._sample_every = 1
        self._sample_count = 0

    # -- one step ----------------------------------------------------------------

    def _rates(self, rtt_eff: np.ndarray, started: np.ndarray) -> np.ndarray:
        window_rate = self.cwnd / rtt_eff
        x = np.where(np.isnan(self.pacing), window_rate, self.pacing)
        # BBR inflight cap: wire inflight ~ x*base_rtt plus our queue share.
        capped = np.isfinite(self.cap)
        if capped.any():
            allowed = np.maximum(0.0, (self.cap - self.aqm.backlog) / self.base_rtt)
            x = np.where(capped, np.minimum(x, allowed), x)
        return np.where(started, x, 0.0)

    def step(self) -> None:
        """Advance one dt: rates, AQM, accumulators, due round_updates."""
        started = self.start_times <= self.now
        rtt_eff = self.base_rtt + self.aqm.flow_delay_s()
        x = self._rates(rtt_eff, started)
        arrivals = x * self.dt
        if self._arrival_noise is not None:
            b = self.burst_pkts
            u = self._arrival_noise.next_row()
            arrivals = poisson_from_uniform(arrivals / b, u) * b
        delivered, dropped = self.aqm.step(arrivals, self.dt, self.now)

        self.delivered_total += delivered
        self.dropped_total += dropped
        self.round_delivered += delivered
        self.round_lost += dropped
        self.now += self.dt

        due = started & (self.now >= self.next_round)
        if due.any():
            rtt_after = self.base_rtt + self.aqm.flow_delay_s()
            for i in np.nonzero(due)[0]:
                flow = self.flows[i]
                span = max(self.now - self.round_started_at[i], self.dt)
                info = RoundInfo(
                    now_s=self.now,
                    rtt_s=float(rtt_after[i]),
                    base_rtt_s=self.base_rtt,
                    delivered=float(self.round_delivered[i]),
                    lost=float(self.round_lost[i]),
                    delivery_rate_pps=float(self.round_delivered[i] / span),
                    inflight=float(x[i] * self.base_rtt + self.aqm.backlog[i]),
                )
                flow.round_update(info)
                self.cwnd[i] = flow.cwnd
                self.pacing[i] = flow.pacing_pps if flow.pacing_pps is not None else np.nan
                self.cap[i] = flow.inflight_cap
                self.round_delivered[i] = 0.0
                self.round_lost[i] = 0.0
                self.round_started_at[i] = self.now
                self.next_round[i] = self.now + float(rtt_after[i])

        if self._sample_hook is not None:
            self._sample_count += 1
            if self._sample_count % self._sample_every == 0:
                self._sample_hook(self)

    def set_sample_hook(self, hook, every_steps: int) -> None:
        """Install a read-only observer called every ``every_steps`` steps.

        The hook receives the simulation *after* the step completes (time
        already advanced, round updates applied).  It must only read
        state — the fairness probe contract that keeps sampled and
        unsampled integrations bit-identical.
        """
        if every_steps < 1:
            raise ValueError(f"every_steps must be >= 1, got {every_steps}")
        self._sample_hook = hook
        self._sample_every = every_steps
        self._sample_count = 0

    def run(self, duration_s: float) -> None:
        """Integrate until ``duration_s`` of model time has elapsed."""
        end = self.now + duration_s
        while self.now < end - 1e-12:
            self.step()

    # -- outputs -----------------------------------------------------------------

    def begin_measurement(self) -> None:
        """Mark the start of the measurement window (end of warmup).

        Delivery before this point — slow-start transients, staggered
        flow starts — is excluded from :attr:`measured_delivered` and
        :meth:`measured_throughput_pps`, matching the post-warmup
        convention the packet engine and ``analysis`` use.
        """
        self._measure_start_s = self.now
        self._measure_delivered = self.delivered_total.copy()

    @property
    def measured_delivered(self) -> np.ndarray:
        """Per-flow segments delivered since :meth:`begin_measurement`."""
        if self._measure_delivered is None:
            return self.delivered_total.copy()
        return self.delivered_total - self._measure_delivered

    def measured_throughput_pps(self) -> np.ndarray:
        """Per-flow delivery rate (segments/s) over the measurement window.

        Unlike :meth:`throughput_pps`, this excludes everything before
        :meth:`begin_measurement` — both the delivered packets and the
        elapsed time — so warmup cannot dilute (or inflate) the rate.
        """
        start = self._measure_start_s if self._measure_start_s is not None else 0.0
        window = self.now - start
        if window <= 0:
            return np.zeros(self.n)
        return self.measured_delivered / window

    def throughput_pps(self, duration_s: float) -> np.ndarray:
        """Per-flow delivery rate (segments/s) averaged over ``duration_s``.

        This divides the run's *total* delivery by the caller-supplied
        duration — if the run included a warmup, warmup traffic is
        counted and the result is NOT the steady-state rate.  Use
        :meth:`begin_measurement` + :meth:`measured_throughput_pps` for
        the post-warmup convention.
        """
        return self.delivered_total / duration_s
