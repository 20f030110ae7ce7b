"""The fluid integrator: advance a whole shard of configs in lock-step.

Time advances in fixed steps of ``base_rtt / DEFAULT_STEPS_PER_RTT``.
Every per-flow quantity is one flat *lane table*: a 1-D array over the
flows of every config in the shard, config ``c`` owning the lanes
``[offsets[c], offsets[c + 1])``.  Each step:

1. every lane's send rate comes from its window (``cwnd/RTT_eff``) or its
   pacing rate, clipped by the BBR inflight cap, and Poisson burst
   arrivals are drawn around it;
2. the AQM drop laws run per *block* — a run of configs of one (AQM,
   flow count), whose lanes a queue law sees as a C-contiguous
   ``(n_configs, n_flows)`` view — and serve up to ``capacity * dt``;
3. round accumulators collect delivered/lost segments, and lanes whose
   round timer (one effective RTT) expired get a round update.

Rates and queues are in **segments**; results convert with the MSS.

One integrator, two round-update rules.  :class:`BatchedFluidSimulation`
(``engine="fluid_batched"``) updates the due lanes with the vector
kernels below, one call per CCA per step.  :class:`PerFlowFluidSimulation`
(``engine="fluid"``) hands each due lane to its own
:class:`~repro.fluid.cca_rules.FluidCca` object.  The per-flow rules are
the **oracle**: for every CCA x AQM cell the vector kernels reproduce
their results bit-for-bit (``tests/fluid/test_batched_vs_scalar.py``),
which is what licenses the fast path for the paper's 810 x 5 grid.

The bitwise contract, and a config's independence from its shard-mates,
rest on three properties:

1. all randomness is positionally consumed from per-config streams
   (:mod:`repro.fluid.noise`), so draws do not depend on batch
   composition;
2. every arithmetic expression is either IEEE-exact (``+ - * /``,
   comparisons) or routed through the same numpy kernel in both rules
   (``exp/log/sqrt/cbrt/power``) — the shared laws live in
   :mod:`repro.fluid.cca_rules` / :mod:`repro.fluid.aqm_rules`;
3. the rare per-lane draws of the BBR state machines (collapse lottery,
   cycle randomization) come from per-*flow* streams, so interleaving
   many configs cannot reorder any one lane's draw sequence.
"""

from __future__ import annotations

import ctypes
import time
from itertools import accumulate, groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.calibration import (
    BBR2_BETA, BBR2_CWND_GAIN, BBR2_DOWN_GAIN, BBR2_DRAIN_GAIN, BBR2_HEADROOM,
    BBR2_LOSS_MIN_PACKETS, BBR2_LOSS_THRESH, BBR2_PROBE_RTT_CWND_GAIN, BBR2_PROBE_UP_MAX_RTTS,
    BBR2_STARTUP_CWND_GAIN, BBR2_STARTUP_PACING_GAIN, BBR2_UP_GAIN, BBR_BTLBW_WINDOW_ROUNDS,
    BBR_CWND_GAIN, BBR_CYCLE_FIRST_CRUISE, BBR_DRAIN_GAIN, BBR_FULL_BW_COUNT, BBR_FULL_BW_THRESH,
    BBR_HIGH_GAIN, BBR_MIN_CWND, BBR_PACING_CYCLE, CODEL_INTERVAL_NS, CODEL_TARGET_NS, CUBIC_BETA,
    CUBIC_FRIENDLY_INC, CUBIC_PLATEAU_INC, HTCP_BETA_MIN, HYSTART_LOW_WINDOW,
    INITIAL_CWND_SEGMENTS, PIE_ALPHA, PIE_BETA, PIE_T_UPDATE_NS, PIE_TARGET_NS, RED_GENTLE,
    RED_MAX_P, RED_MAX_TH_OF_BUFFER, RED_MAX_TH_PACKETS, RED_MIN_TH_OF_BUFFER, RED_MIN_TH_PACKETS,
    RED_WEIGHT, RENO_BETA,
)
from repro.experiments.config import ExperimentConfig, canonical_cca_name
from repro.fluid.aqm_rules import (
    evict_fattest,
    red_drop_probability,
    pie_probability_step,
    shared_queue_serve,
    waterfill_rows,
)
from repro.fluid.cca_rules import (
    BBR1_COLLAPSE_LOSS_RATE, BBR1_COLLAPSE_PROBABILITY, BBR1_PROBE_RTT_CAP_GAIN,
    BBR2_CRUISE_HALF_SPAN_S, BBR2_CRUISE_MEAN_S, BBR2_PROBE_RTT_INTERVAL_S, BBR_MIN_RTT_FLOOR_S,
    BBR_PROBE_RTT_DURATION_S, BBR_PROBE_RTT_INTERVAL_S, BBR_RAMP_CWND_CAP, RATE_FLOOR_PPS,
    FluidCca, RoundInfo, aimd_backoff, bbr_bdp, cubic_epoch_k, cubic_epoch_origin, cubic_target,
    cubic_wmax_after_loss, htcp_adaptive_beta, htcp_alpha, htcp_bw_stable, hystart_exit_eta,
    slow_start_next,
)
from repro.fluid.noise import UniformTable, chunk_steps_for, poisson_from_uniform
from repro.fluid.runner import (
    FluidGeometry,
    build_fluid_result,
    flow_cca_names,
    fluid_geometry,
    make_fluid_flows,
)
from repro.fluid.state import (
    CCA_CODE,
    DEFAULT_STEPS_PER_RTT,
    RATE_BASED_CODES,
    block_key,
    plan_shards,
    shard_key,
)
from repro.fluid.streams import StreamTable, batch_streams
from repro.metrics.summary import ExperimentResult
from repro.sim.rng import RngStreams

# BBR state machine lane codes.
S_STARTUP, S_DRAIN, S_PROBE_BW, S_PROBE_RTT = 0, 1, 2, 3
P_DOWN, P_CRUISE, P_UP = 0, 1, 2
_CYCLE_ARR = np.asarray(BBR_PACING_CYCLE)

# The queue laws' times in seconds (each ``/ 1e9`` is exact).
_PIE_TARGET_S = PIE_TARGET_NS / 1e9
_PIE_T_UPDATE_S = PIE_T_UPDATE_NS / 1e9
_CODEL_TARGET_S = CODEL_TARGET_NS / 1e9
_CODEL_INTERVAL_S = CODEL_INTERVAL_NS / 1e9

#: AQMs that draw a per-flow drop lottery every step.
_LOTTERY_FAMILIES = frozenset({"red", "pie"})

# glibc keeps a freed buffer's pages resident below any live block, so what a
# batch left resident varied by megabytes between runs of one seed; trim them.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


# --- queue laws --------------------------------------------------------------


class _BatchAqm:
    """Queue law of one block: one row of flow backlogs per config.

    ``lanes`` is the block's range of the integrator's lane table;
    ``backlog`` and ``delay`` (``(n_configs, n_flows)``) and
    ``total_dropped`` are views into the integrator's arrays, updated in
    place.  A step that drops nothing returns :attr:`no_drops`, one
    read-only block of zeros, so the integrator can skip adding it.
    """

    def __init__(self, lanes: slice, limit, capacity, backlog, delay, total_dropped):
        self.lanes = lanes
        self.limit = limit
        self.capacity = capacity
        self.backlog = backlog
        self.delay = delay
        self.total_dropped = total_dropped
        self.no_drops = np.zeros(backlog.shape)
        self.no_drops.flags.writeable = False

    def rows(self, table: np.ndarray) -> np.ndarray:
        """This block's ``(n_configs, n_flows)`` view of a flat lane array."""
        return table[self.lanes].reshape(self.backlog.shape)

    def step(self, arrivals: np.ndarray, dt: float, now_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Serve one step's arrivals; refresh ``backlog`` and ``delay``."""
        raise NotImplementedError

    def _serve(self, accepted: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        served, backlog, tail, queued = shared_queue_serve(
            self.backlog, accepted, self.capacity * dt, self.limit
        )
        self.backlog[...] = backlog
        # Every flow of a shared queue waits behind the whole backlog.
        self.delay[...] = (queued / self.capacity)[:, None]
        if tail is None:
            return served, self.no_drops
        self.total_dropped += np.add.reduce(tail, axis=1)
        return served, tail

    def _early_drop(self, arrivals, p_eff, u, dt):
        """Poisson early drops at per-row rate ``p_eff``, then serve.

        A row whose rate is 0 draws 0 drops, so when every row's is 0 the
        transform is skipped: the lottery row ``u`` was consumed all the
        same.
        """
        if not np.count_nonzero(p_eff):
            return self._serve(arrivals, dt)
        u = u.reshape(arrivals.shape)
        early = np.minimum(arrivals, poisson_from_uniform(arrivals * p_eff[:, None], u))
        self.total_dropped += np.add.reduce(early, axis=1)
        served, tail = self._serve(arrivals - early, dt)
        return served, early if tail is self.no_drops else early + tail


class _BatchFifo(_BatchAqm):
    """Drop-tail: no early drops; overflow is tail-dropped."""

    def step(self, arrivals, dt, now_s):
        return self._serve(arrivals, dt)


#: The ``aqm_params`` keys :class:`_BatchRed` reads.  A fluid config with
#: any other key is refused (``ExperimentConfig.__post_init__``).
RED_KNOBS = ("min_th", "max_th", "max_p", "weight", "gentle")


class _BatchRed(_BatchAqm):
    """RED's EWMA ramp applied to (Poisson-sampled) early drops.

    Thresholds default to the classic 30/90 packets, clamped to the buffer,
    as in :class:`repro.aqm.red.RedQueue` (the calibration table's RED_*).
    """

    def __init__(self, *views, lottery: UniformTable, params: Sequence[dict]):
        super().__init__(*views)
        self.lottery = lottery
        min_num, min_den = RED_MIN_TH_OF_BUFFER
        max_num, max_den = RED_MAX_TH_OF_BUFFER
        min_th, max_th, max_p, weight, gentle = [], [], [], [], []
        for lim, p in zip(self.limit.tolist(), params):
            mn = p.get("min_th")
            if mn is None:
                mn = max(1.0, min(RED_MIN_TH_PACKETS, lim * min_num / min_den))
            mx = p.get("max_th")
            if mx is None:
                mx = max(float(mn) + 1.0, min(RED_MAX_TH_PACKETS, lim * max_num / max_den))
            min_th.append(float(mn))
            max_th.append(float(mx))
            max_p.append(float(p.get("max_p", RED_MAX_P)))
            weight.append(float(p.get("weight", RED_WEIGHT)))
            gentle.append(bool(p.get("gentle", RED_GENTLE)))
        self.min_th = np.asarray(min_th)
        self.max_th = np.asarray(max_th)
        self.max_p = np.asarray(max_p)
        #: Per-packet EWMA retention, ``1 - weight``.
        self.keep = 1.0 - np.asarray(weight)
        self.gentle = np.asarray(gentle)
        self.avg = np.zeros(len(params))

    def step(self, arrivals, dt, now_s):
        u = self.lottery.next_row()
        # Per-packet EWMA folded over this step's arrivals; when idle the
        # average decays toward the instantaneous queue instead.
        n_arr = np.add.reduce(arrivals, axis=1)
        if np.count_nonzero(n_arr) == n_arr.size:
            exponent = n_arr
        else:
            exponent = np.where(n_arr > 0, n_arr, self.capacity * dt)
        w_eff = 1.0 - np.power(self.keep, exponent)
        self.avg += w_eff * (np.add.reduce(self.backlog, axis=1) - self.avg)
        if np.count_nonzero(self.avg < self.min_th) == self.avg.size:  # p is 0 everywhere
            return self._serve(arrivals, dt)
        p = red_drop_probability(self.avg, self.min_th, self.max_th, self.max_p, self.gentle)
        # Floyd/Jacobson count-uniformization spaces drops uniformly over
        # [1, 1/p_b] packets, i.e. an effective rate of ~2*p_b.
        return self._early_drop(arrivals, np.minimum(1.0, 2.0 * p), u, dt)


class _BatchPie(_BatchAqm):
    """PIE's PI controller over the shared queue (mean-field form).

    The drop probability integrates the queueing-delay error at the RFC's
    15 ms cadence with the same magnitude-scaled gains as
    :class:`repro.aqm.pie.PieQueue`.
    """

    def __init__(self, *views, lottery: UniformTable):
        super().__init__(*views)
        self.lottery = lottery
        self.drop_prob = np.zeros(len(self.limit))
        self.qdelay_old_s = np.zeros(len(self.limit))
        self._since_update_s = 0.0

    def step(self, arrivals, dt, now_s):
        u = self.lottery.next_row()
        self._since_update_s += dt
        while self._since_update_s >= _PIE_T_UPDATE_S:
            self._since_update_s -= _PIE_T_UPDATE_S
            qdelay = self.backlog.sum(axis=1) / self.capacity
            self.drop_prob = pie_probability_step(
                self.drop_prob, qdelay, self.qdelay_old_s,
                _PIE_TARGET_S, PIE_ALPHA, PIE_BETA,
            )
            self.qdelay_old_s = qdelay
        return self._early_drop(arrivals, self.drop_prob, u, dt)


class _BatchFqCodel(_BatchAqm):
    """Per-flow fair queueing with an approximate CoDel controller per flow.

    Service is max-min fair (the DRR fluid limit).  Each flow's sojourn is
    its backlog over its fair-share rate; once above CoDel's target for one
    interval, the flow sheds packets at the control-law rate
    sqrt(count)/interval, escalating while the sojourn stays high.
    """

    def __init__(self, *views):
        super().__init__(*views)
        self.above_since = np.full(self.backlog.shape, -1.0)
        self.count = np.zeros(self.backlog.shape)
        self.drop_credit = np.zeros(self.backlog.shape)
        #: No flow's controller holds state (no stamp, count or credit), so
        #: a step with no flow above target leaves all three as they are.
        self._at_rest = True

    def step(self, arrivals, dt, now_s):
        supply = self.backlog + arrivals
        served = waterfill_rows(supply, self.capacity * dt)
        if served is supply:  # every queue empties, so no flow is above target
            self.backlog[...] = 0.0
            self.delay[...] = 0.0
            if not self._at_rest:
                self._rest()
            return served, self.no_drops
        backlog = supply - served
        sojourn = self._sojourn(backlog)

        above = (sojourn > _CODEL_TARGET_S) & (backlog > 1.0)
        drops = None
        if np.count_nonzero(above):
            since = self.above_since
            since = np.where(above, np.where(since < 0, now_s, since), -1.0)
            count = self.count
            if np.count_nonzero(count):  # (a count of 0 halves to 0)
                count = np.where(above, count, np.floor(count / 2.0))
            credit = np.where(above, self.drop_credit, 0.0)

            dropping = above & (now_s - since >= _CODEL_INTERVAL_S)
            if np.count_nonzero(dropping):
                rate = np.sqrt(count + 1.0) / _CODEL_INTERVAL_S
                credit = np.where(dropping, credit + rate * dt, credit)
                drops = np.where(dropping, np.floor(credit), 0.0)
                credit = credit - drops
                drops = np.minimum(drops, backlog)
                count = count + drops
                backlog = backlog - drops
            self.above_since = since
            self.count = count
            self.drop_credit = credit
            self._at_rest = False
        elif not self._at_rest:
            self._rest()

        # Shared memory limit: evict from the fattest flows, one config's
        # row at a time so the argsort permutation does not depend on the
        # block's other rows.
        excess = np.add.reduce(backlog, axis=1) - self.limit
        over = excess > 1e-12
        if np.count_nonzero(over):
            if drops is None:
                drops = np.zeros(backlog.shape)
            width = backlog.shape[1]
            for c in np.flatnonzero(over):
                evict_fattest(backlog[c], drops[c], float(self.limit[c]), float(excess[c]), width)

        self.backlog[...] = backlog
        if drops is None:
            self.delay[...] = sojourn
            return served, self.no_drops
        self.delay[...] = self._sojourn(backlog)
        self.total_dropped += np.add.reduce(drops, axis=1)
        return served, drops

    def _rest(self) -> None:
        """A step with no flow above target: stamps and credit clear, and
        each drop count halves (at rest once every count is 0)."""
        self.above_since = np.full(self.backlog.shape, -1.0)
        self.count = np.floor(self.count / 2.0)
        self.drop_credit = np.zeros(self.backlog.shape)
        self._at_rest = not np.count_nonzero(self.count)

    def _sojourn(self, backlog: np.ndarray) -> np.ndarray:
        """Each flow's backlog over its fair share of the link."""
        n_active = np.maximum(1.0, np.add.reduce(backlog > 1e-9, axis=1, dtype=float))
        share_pps = self.capacity / n_active
        return backlog / share_pps[:, None]


# --- the integrator ----------------------------------------------------------


class BatchedFluidSimulation:
    """Lock-step integrator over one shard of compatible configs.

    All configs must share the lock-step key (base RTT, duration, warmup,
    fairness cadence); AQM and flow count may differ.  Blocks are the
    consecutive runs of one (AQM, flow count) in the order given: any
    order is correct, :func:`repro.fluid.state.plan_shards` hands over the
    one with fewest blocks.  Round updates run the vector CCA kernels.
    """

    def __init__(self, configs: Sequence[ExperimentConfig]):
        if not configs:
            raise ValueError("need at least one config")
        keys = {shard_key(c) for c in configs}
        if len(keys) > 1:
            raise ValueError(f"configs are not shard-compatible: {sorted(map(str, keys))}")
        self.configs = list(configs)
        self.geoms: List[FluidGeometry] = [fluid_geometry(c) for c in configs]
        self.widths = [g.n_flows for g in self.geoms]
        #: Config ``c`` owns lanes ``[offsets[c], offsets[c + 1])``.
        self.offsets = [0, *accumulate(self.widths)]
        L = self.offsets[-1]

        self.base_rtt = self.geoms[0].base_rtt_s
        self.steps_per_rtt = DEFAULT_STEPS_PER_RTT
        self.dt = self.base_rtt / self.steps_per_rtt
        self.burst_pkts = 4
        self.now = 0.0

        self.capacity = np.asarray([g.capacity_pps for g in self.geoms])
        limit = np.asarray([g.limit_pkts for g in self.geoms])
        if (self.capacity <= 0).any() or (limit <= 0).any():
            raise ValueError("limit and capacity must be positive")

        # Per-config generators, one per named consumer, seeded in one pass
        # (the AQM lottery's only where the AQM draws).
        consumers = [
            [n for n in ("flow-start", "arrivals", "aqm")
             if n != "aqm" or block_key(config)[0] in _LOTTERY_FAMILIES]
            for config in configs
        ]
        gens = iter(batch_streams([(c.seed, n) for c, ns in zip(configs, consumers) for n in ns]))
        self._streams = [{n: next(gens) for n in ns} for ns in consumers]

        self.cca_code = np.empty(L, dtype=np.int64)
        starts = np.empty(L)
        for c, config in enumerate(configs):
            lanes = slice(self.offsets[c], self.offsets[c + 1])
            names = flow_cca_names(config, self.widths[c])
            self.cca_code[lanes] = [CCA_CODE[canonical_cca_name(x)] for x in names]
            starts[lanes] = self._streams[c]["flow-start"].uniform(
                0.0, 0.1, size=self.widths[c]
            )
        self.start_times = starts
        #: Some lane may not have started yet (cleared once all have).
        self._waiting = True
        #: A BBR lane paces and caps its inflight; other lanes' pacing stays
        #: NaN and their cap inf, so without one the window alone sets a rate.
        self._paced = not RATE_BASED_CODES.isdisjoint(self.cca_code.tolist())

        # Queue state: per-lane backlog and the delay it implies (refreshed
        # after every queue step), per-config early+tail drop totals.
        self.backlog = np.zeros(L)
        self._delay = np.zeros(L)
        self.aqm_dropped = np.zeros(len(configs))

        # One positional uniform per (config, flow, step) for the arrival
        # noise, one more per lottery lane; every table refills in chunks
        # sized so that together they fit the table byte budget.
        lottery_lanes = sum(
            w for c, w in zip(configs, self.widths) if block_key(c)[0] in _LOTTERY_FAMILIES
        )
        chunk = chunk_steps_for(L + lottery_lanes)
        self._arrival_noise = UniformTable(
            [s["arrivals"] for s in self._streams], self.widths, chunk
        )
        self._tables = [self._arrival_noise]
        self.blocks: List[_BatchAqm] = []
        for key, run in groupby(range(len(configs)), key=lambda c: block_key(configs[c])):
            members = list(run)
            self.blocks.append(
                self._make_aqm(key, slice(members[0], members[-1] + 1), limit, chunk)
            )

        # Shared CCA outputs.
        self.cwnd = np.full(L, INITIAL_CWND_SEGMENTS)
        self.ssthresh = np.full(L, np.inf)
        self.pacing = np.full(L, np.nan)
        self.cap = np.full(L, np.inf)

        # Round bookkeeping.
        self.next_round = starts + self.base_rtt
        self.round_delivered = np.zeros(L)
        self.round_lost = np.zeros(L)
        self.round_started_at = starts.copy()
        self.delivered_total = np.zeros(L)
        self.dropped_total = np.zeros(L)
        self._init_kernels(L)

        # Measurement window.
        self._measure_delivered: Optional[np.ndarray] = None

        # Passive per-step sampling seam (see set_sample_hook).
        self._sample_hook = None
        self._sample_every = 1
        self._sample_count = 0

    # -- construction helpers --------------------------------------------------

    def _init_kernels(self, L: int) -> None:
        """The vector kernels' lane order and per-family state."""
        # Lanes ordered by CCA code, and where each code's run starts: a
        # step's due lanes, taken in this order, reach each kernel as one
        # contiguous slice.
        self._by_code = np.argsort(self.cca_code, kind="stable")
        self._code_edges = np.searchsorted(
            self.cca_code[self._by_code], np.arange(len(CCA_CODE) + 1)
        )
        # Plain functions, not bound methods: a simulation that referenced
        # itself would keep its lane table resident until the cyclic garbage
        # collector next ran, long after the shard finished.
        self._kernels = [
            (CCA_CODE[name], getattr(BatchedFluidSimulation, f"_round_{name}"))
            for name in ("reno", "cubic", "htcp", "bbrv1", "bbrv2")
        ]
        present = set(np.unique(self.cca_code).tolist())

        # Per-family state (allocated only for present families).
        if CCA_CODE["cubic"] in present:
            self.cu_w_max = np.zeros(L)
            self.cu_epoch = np.full(L, np.nan)
            self.cu_k = np.zeros(L)
            self.cu_origin = np.zeros(L)
            self.cu_w_est = np.zeros(L)
        if CCA_CODE["htcp"] in present:
            self.ht_last_cong = np.full(L, np.nan)
            self.ht_rtt_min = np.full(L, np.inf)
            self.ht_rtt_max = np.zeros(L)
            self.ht_beta = np.full(L, HTCP_BETA_MIN)
            self.ht_max_bw = np.zeros(L)
            self.ht_old_max_bw = np.zeros(L)
            self.ht_modeswitch = np.zeros(L, dtype=bool)
        if RATE_BASED_CODES & present:
            self.bb_state = np.zeros(L, dtype=np.int64)
            self.bb_ring = np.zeros((L, BBR_BTLBW_WINDOW_ROUNDS))
            self.bb_pos = np.zeros(L, dtype=np.int64)
            self.bb_min_rtt = np.full(L, np.inf)
            self.bb_min_rtt_stamp = np.zeros(L)
            self.bb_full_bw = np.zeros(L)
            self.bb_full_bw_count = np.zeros(L, dtype=np.int64)
            self.bb_cycle_index = np.full(L, BBR_CYCLE_FIRST_CRUISE, dtype=np.int64)
            self.bb_cycle_stamp = np.zeros(L)
            self.bb_probe_until = np.full(L, np.nan)
            # The BBR lotteries draw from per-flow streams (the per-flow
            # rules' own), held for the whole shard in one stream table;
            # rate-based lane ``i`` draws from row ``_stream_row[i]``.
            lanes = np.flatnonzero(np.isin(self.cca_code, sorted(RATE_BASED_CODES)))
            seeds = np.repeat([c.seed for c in self.configs], self.widths)[lanes]
            flows = (lanes - np.repeat(self.offsets[:-1], self.widths)[lanes]).tolist()
            self._lane_streams = StreamTable(seeds, [f"cca-flow{j}" for j in flows])
            self._stream_row = np.zeros(L, dtype=np.intp)
            self._stream_row[lanes] = np.arange(len(lanes))
        if CCA_CODE["bbrv2"] in present:
            self.b2_inflight_hi = np.full(L, np.inf)
            self.b2_phase = np.zeros(L, dtype=np.int64)
            self.b2_phase_stamp = np.zeros(L)

    def _make_aqm(self, key: Tuple[str, int], members: slice, limit: np.ndarray, chunk: int) -> _BatchAqm:
        """The queue law of the block ``key`` spanning configs ``members``."""
        aqm, width = key
        lanes = slice(self.offsets[members.start], self.offsets[members.stop])
        views = (
            lanes, limit[members], self.capacity[members],
            self.backlog[lanes].reshape(-1, width), self._delay[lanes].reshape(-1, width),
            self.aqm_dropped[members],
        )
        if aqm == "fifo":
            return _BatchFifo(*views)
        if aqm == "fq_codel":
            return _BatchFqCodel(*views)
        if aqm not in _LOTTERY_FAMILIES:
            raise ValueError(f"the fluid engines do not model AQM {aqm!r}")
        lottery = UniformTable(
            [s["aqm"] for s in self._streams[members]], self.widths[members], chunk
        )
        self._tables.append(lottery)
        if aqm == "red":
            params = [c.aqm_params for c in self.configs[members]]
            return _BatchRed(*views, lottery=lottery, params=params)
        return _BatchPie(*views, lottery=lottery)

    @property
    def table_bytes(self) -> int:
        """Bytes held by the shard's uniform tables (arrivals + lotteries)."""
        return sum(table.nbytes for table in self._tables)

    # -- stepping --------------------------------------------------------------

    def _rates(self, rtt_eff: np.ndarray, started: Optional[np.ndarray]) -> np.ndarray:
        x = self.cwnd / rtt_eff
        if self._paced:
            np.copyto(x, self.pacing, where=~np.isnan(self.pacing))
            capped = np.isfinite(self.cap)
            if np.count_nonzero(capped):
                allowed = np.maximum(0.0, (self.cap - self.backlog) / self.base_rtt)
                np.minimum(x, allowed, out=x, where=capped)
        return x if started is None else np.where(started, x, 0.0)

    def step(self) -> None:
        """Advance every config in the shard by one ``dt`` tick."""
        started = None
        if self._waiting:
            started = self.start_times <= self.now
            self._waiting = np.count_nonzero(started) < started.size
        x = self._rates(self.base_rtt + self._delay, started)
        b = self.burst_pkts
        arrivals = poisson_from_uniform(x * self.dt / b, self._arrival_noise.next_row()) * b
        if len(self.blocks) == 1:
            # The block's rows are the whole lane table: use them as they are.
            (q,) = self.blocks
            served, lost = q.step(arrivals.reshape(q.backlog.shape), self.dt, self.now)
            delivered = served.reshape(-1)
            dropped = None if lost is q.no_drops else lost.reshape(-1)
        else:
            delivered = np.empty_like(arrivals)
            dropped = None
            for q in self.blocks:
                served, lost = q.step(q.rows(arrivals), self.dt, self.now)
                q.rows(delivered)[...] = served
                if lost is not q.no_drops:
                    if dropped is None:
                        dropped = np.zeros_like(arrivals)
                    q.rows(dropped)[...] = lost

        self.delivered_total += delivered
        self.round_delivered += delivered
        if dropped is not None:  # adding zeros would change nothing
            self.dropped_total += dropped
            self.round_lost += dropped
        self.now += self.dt

        due = self.now >= self.next_round
        if started is not None:
            due &= started
        if np.count_nonzero(due):
            self._round_updates(due, x)

        if self._sample_hook is not None:
            self._sample_count += 1
            if self._sample_count % self._sample_every == 0:
                self._sample_hook(self)

    def set_sample_hook(self, hook, every_steps: int) -> None:
        """Install a read-only observer called every ``every_steps`` steps.

        The observer runs after the step completes (time advanced, round
        updates applied) and must not mutate state or consume randomness,
        so sampled and unsampled shards stay bit-identical.
        """
        if every_steps < 1:
            raise ValueError(f"every_steps must be >= 1, got {every_steps}")
        self._sample_hook = hook
        self._sample_every = every_steps
        self._sample_count = 0

    def _round_updates(self, due: np.ndarray, x: np.ndarray) -> None:
        now = self.now
        # Due lanes in CCA-code order, and where each code's slice of them ends.
        at = np.flatnonzero(due[self._by_code])
        i = self._by_code[at]
        cuts = np.searchsorted(at, self._code_edges).tolist()
        span = np.maximum(now - self.round_started_at[i], self.dt)
        delivered = self.round_delivered[i]
        lost = self.round_lost[i]
        delivery_rate = delivered / span
        inflight = x[i] * self.base_rtt + self.backlog[i]
        total = delivered + lost
        loss_rate = np.divide(lost, total, out=np.zeros_like(lost), where=total > 0)
        rtt = self.base_rtt + self._delay[i]

        for code, kernel in self._kernels:
            sel = slice(cuts[code], cuts[code + 1])
            if sel.start < sel.stop:
                kernel(
                    self, i[sel], now, rtt[sel], delivery_rate[sel],
                    inflight[sel], loss_rate[sel], delivered[sel], lost[sel],
                )

        self.round_delivered[i] = 0.0
        self.round_lost[i] = 0.0
        self.round_started_at[i] = now
        self.next_round[i] = now + rtt

    # -- CCA kernels -----------------------------------------------------------
    #
    # Each kernel gathers the due lanes of its CCA into compact 1D arrays,
    # applies the per-flow rule class's update (same expressions, element-
    # wise), and scatters the results back — so per-step cost scales with
    # how many lanes actually finished a round, not with the shard size.

    def _round_reno(self, i, now, rtt, rate, inflight, loss_rate, delivered, lost):
        cwnd = self.cwnd[i]
        ssth = self.ssthresh[i]
        loss = lost > 0
        slow = ~loss & (cwnd < ssth)
        ss_new = aimd_backoff(cwnd, RENO_BETA)
        ssth = np.where(loss, ss_new, ssth)
        cwnd = np.where(
            loss, ss_new, np.where(slow, slow_start_next(cwnd, ssth), cwnd + 1.0)
        )
        self.ssthresh[i] = ssth
        self.cwnd[i] = cwnd

    def _round_cubic(self, i, now, rtt, rate, inflight, loss_rate, delivered, lost):
        cwnd = self.cwnd[i]
        ssth = self.ssthresh[i]
        w_max = self.cu_w_max[i]
        epoch = self.cu_epoch[i]
        k = self.cu_k[i]
        origin = self.cu_origin[i]
        w_est = self.cu_w_est[i]

        loss = lost > 0
        w_max = np.where(loss, cubic_wmax_after_loss(cwnd, w_max), w_max)
        ss_new = aimd_backoff(cwnd, CUBIC_BETA)
        ssth = np.where(loss, ss_new, ssth)
        cwnd = np.where(loss, ss_new, cwnd)
        epoch = np.where(loss, np.nan, epoch)

        surv = ~loss
        in_ss = surv & (cwnd < ssth)
        eta = hystart_exit_eta(self.base_rtt)
        exit_ss = in_ss & (rtt >= self.base_rtt + eta) & (cwnd >= HYSTART_LOW_WINDOW)
        ssth = np.where(exit_ss, cwnd, ssth)
        stay = in_ss & ~exit_ss
        cwnd = np.where(stay, slow_start_next(cwnd, ssth), cwnd)

        ca = surv & ~stay
        init = ca & np.isnan(epoch)
        epoch = np.where(init, now, epoch)
        k = np.where(init, cubic_epoch_k(cwnd, w_max), k)
        origin = np.where(init, cubic_epoch_origin(cwnd, w_max), origin)
        w_est = np.where(init, cwnd, w_est)
        with np.errstate(invalid="ignore"):
            t = now - epoch + rtt
            target = cubic_target(origin, k, t)
            inc = np.where(target > cwnd, target - cwnd, CUBIC_PLATEAU_INC)
        cwnd = np.where(ca, cwnd + inc, cwnd)
        w_est = np.where(ca, w_est + CUBIC_FRIENDLY_INC, w_est)
        cwnd = np.where(ca & (w_est > cwnd), w_est, cwnd)

        self.cwnd[i] = cwnd
        self.ssthresh[i] = ssth
        self.cu_w_max[i] = w_max
        self.cu_epoch[i] = epoch
        self.cu_k[i] = k
        self.cu_origin[i] = origin
        self.cu_w_est[i] = w_est

    def _round_htcp(self, i, now, rtt, rate, inflight, loss_rate, delivered, lost):
        cwnd = self.cwnd[i]
        ssth = self.ssthresh[i]
        last_cong = self.ht_last_cong[i]
        rtt_min = np.minimum(self.ht_rtt_min[i], rtt)
        rtt_max = np.maximum(self.ht_rtt_max[i], rtt)
        beta = self.ht_beta[i]
        max_bw = np.maximum(self.ht_max_bw[i], rate)
        old_max_bw = self.ht_old_max_bw[i]
        modeswitch = self.ht_modeswitch[i]

        loss = lost > 0
        slow = ~loss & (cwnd < ssth)
        ca = ~loss & ~slow

        if loss.any():
            stable = htcp_bw_stable(max_bw, old_max_bw)
            adaptive = stable & modeswitch & (rtt_max > 0) & np.isfinite(rtt_min)
            beta_new = np.where(
                stable,
                np.where(adaptive, htcp_adaptive_beta(rtt_min, rtt_max), HTCP_BETA_MIN),
                HTCP_BETA_MIN,
            )
            beta = np.where(loss, beta_new, beta)
            # Per-flow rule: unstable resets the switch; stable arms (or
            # keeps) it whether or not the adaptive branch fired.
            modeswitch = np.where(loss, stable, modeswitch)
            old_max_bw = np.where(loss, max_bw, old_max_bw)
            max_bw = np.where(loss, 0.0, max_bw)
            ss_new = aimd_backoff(cwnd, beta)
            ssth = np.where(loss, ss_new, ssth)
            cwnd = np.where(loss, ss_new, cwnd)
            last_cong = np.where(loss, now, last_cong)
            rtt_min = np.where(loss, np.inf, rtt_min)
            rtt_max = np.where(loss, 0.0, rtt_max)

        cwnd = np.where(slow, slow_start_next(cwnd, ssth), cwnd)
        if ca.any():
            alpha = htcp_alpha(now - last_cong, beta)
            cwnd = np.where(ca, cwnd + alpha, cwnd)

        self.cwnd[i] = cwnd
        self.ssthresh[i] = ssth
        self.ht_last_cong[i] = last_cong
        self.ht_rtt_min[i] = rtt_min
        self.ht_rtt_max[i] = rtt_max
        self.ht_beta[i] = beta
        self.ht_max_bw[i] = max_bw
        self.ht_old_max_bw[i] = old_max_bw
        self.ht_modeswitch[i] = modeswitch

    def _round_bbrv1(self, i, now, rtt, rate, inflight, loss_rate, delivered, lost):
        cwnd = self.cwnd[i]
        pacing = self.pacing[i]
        cap = self.cap[i]
        state = self.bb_state[i]
        ring = self.bb_ring[i]
        pos = self.bb_pos[i]
        min_rtt = self.bb_min_rtt[i]
        min_stamp = self.bb_min_rtt_stamp[i]
        full_bw = self.bb_full_bw[i]
        full_cnt = self.bb_full_bw_count[i]
        cyc_idx = self.bb_cycle_index[i]
        cyc_stamp = self.bb_cycle_stamp[i]
        probe_until = self.bb_probe_until[i]

        # Rare RTO-like collapse lottery, drawn from each lane's own stream.
        heavy = np.flatnonzero(loss_rate > BBR1_COLLAPSE_LOSS_RATE)
        if heavy.size:
            j = heavy[self._lane_streams.random(self._stream_row[i[heavy]]) < BBR1_COLLAPSE_PROBABILITY]
            full_bw[j] = 0.0
            full_cnt[j] = 0
            ring[j] = 0.0
            ring[j, pos[j]] = RATE_FLOOR_PPS
            pacing[j] = RATE_FLOOR_PPS
            state[j] = S_STARTUP

        upd = rtt < min_rtt
        min_rtt = np.where(upd, rtt, min_rtt)
        min_stamp = np.where(upd, now, min_stamp)
        push = rate > 0
        if push.any():
            jj = np.nonzero(push)[0]
            pos[jj] = (pos[jj] + 1) % BBR_BTLBW_WINDOW_ROUNDS
            ring[jj, pos[jj]] = rate[jj]
        bw = ring.max(axis=1)
        bdp = bbr_bdp(bw, min_rtt)

        st = state == S_STARTUP
        grew = st & (bw >= full_bw * BBR_FULL_BW_THRESH)
        full_bw = np.where(grew, bw, full_bw)
        full_cnt = np.where(grew, 0, np.where(st, full_cnt + 1, full_cnt))
        state = np.where(st & (full_cnt >= BBR_FULL_BW_COUNT), S_DRAIN, state)

        exit_d = (state == S_DRAIN) & (inflight <= bdp)
        if exit_d.any():
            j = np.flatnonzero(exit_d)
            cyc_idx[j] = self._lane_streams.integers(
                self._stream_row[i[j]], BBR_CYCLE_FIRST_CRUISE, len(BBR_PACING_CYCLE)
            )
            state = np.where(exit_d, S_PROBE_BW, state)
            cyc_stamp = np.where(exit_d, now, cyc_stamp)

        pb = state == S_PROBE_BW
        adv = pb & (now - cyc_stamp > np.maximum(min_rtt, BBR_MIN_RTT_FLOOR_S))
        cyc_idx = np.where(adv, (cyc_idx + 1) % len(BBR_PACING_CYCLE), cyc_idx)
        cyc_stamp = np.where(adv, now, cyc_stamp)
        to_pr = pb & (now - min_stamp > BBR_PROBE_RTT_INTERVAL_S)
        state = np.where(to_pr, S_PROBE_RTT, state)
        probe_until = np.where(to_pr, now + BBR_PROBE_RTT_DURATION_S, probe_until)

        exit_pr = (state == S_PROBE_RTT) & (now >= probe_until)
        min_stamp = np.where(exit_pr, now, min_stamp)
        state = np.where(exit_pr, S_PROBE_BW, state)
        cyc_stamp = np.where(exit_pr, now, cyc_stamp)

        gain = np.where(
            state == S_STARTUP, BBR_HIGH_GAIN,
            np.where(
                state == S_DRAIN, BBR_DRAIN_GAIN,
                np.where(state == S_PROBE_RTT, 1.0, _CYCLE_ARR[cyc_idx]),
            ),
        )
        cap_gain = np.where(
            (state == S_STARTUP) | (state == S_DRAIN), BBR_HIGH_GAIN,
            np.where(state == S_PROBE_RTT, BBR1_PROBE_RTT_CAP_GAIN, BBR_CWND_GAIN),
        )
        have_bw = bw > 0
        pacing = np.where(have_bw, np.maximum(RATE_FLOOR_PPS, gain * bw), np.nan)
        cap = np.where(have_bw, np.maximum(BBR_MIN_CWND, cap_gain * bdp), cap)
        cwnd = np.where(have_bw, cwnd, np.minimum(cwnd * 2.0, BBR_RAMP_CWND_CAP))

        self.cwnd[i] = cwnd
        self.pacing[i] = pacing
        self.cap[i] = cap
        self.bb_state[i] = state
        self.bb_ring[i] = ring
        self.bb_pos[i] = pos
        self.bb_min_rtt[i] = min_rtt
        self.bb_min_rtt_stamp[i] = min_stamp
        self.bb_full_bw[i] = full_bw
        self.bb_full_bw_count[i] = full_cnt
        self.bb_cycle_index[i] = cyc_idx
        self.bb_cycle_stamp[i] = cyc_stamp
        self.bb_probe_until[i] = probe_until

    def _round_bbrv2(self, i, now, rtt, rate, inflight, loss_rate, delivered, lost):
        cwnd = self.cwnd[i]
        cap = self.cap[i]
        state = self.bb_state[i]
        ring = self.bb_ring[i]
        pos = self.bb_pos[i]
        min_rtt = self.bb_min_rtt[i]
        min_stamp = self.bb_min_rtt_stamp[i]
        full_bw = self.bb_full_bw[i]
        full_cnt = self.bb_full_bw_count[i]
        probe_until = self.bb_probe_until[i]
        hi = self.b2_inflight_hi[i]
        phase = self.b2_phase[i]
        phase_stamp = self.b2_phase_stamp[i]

        upd = rtt < min_rtt
        min_rtt = np.where(upd, rtt, min_rtt)
        min_stamp = np.where(upd, now, min_stamp)
        push = rate > 0
        if push.any():
            jj = np.nonzero(push)[0]
            pos[jj] = (pos[jj] + 1) % BBR_BTLBW_WINDOW_ROUNDS
            ring[jj, pos[jj]] = rate[jj]
        bw = ring.max(axis=1)
        bdp = bbr_bdp(bw, min_rtt)

        high_loss = (loss_rate >= BBR2_LOSS_THRESH) & (lost >= BBR2_LOSS_MIN_PACKETS)
        if high_loss.any():
            fin = np.isfinite(hi)
            base = np.where(fin, hi, np.maximum(inflight, bdp))
            new_hi = np.maximum(
                BBR_MIN_CWND, np.minimum(base, np.maximum(inflight, BBR_MIN_CWND)) * BBR2_BETA
            )
            hi = np.where(high_loss, new_hi, hi)

        st = state == S_STARTUP
        grew = st & (bw >= full_bw * BBR_FULL_BW_THRESH)
        full_bw = np.where(grew, bw, full_bw)
        full_cnt = np.where(grew, 0, np.where(st, full_cnt + 1, full_cnt))
        state = np.where(st & ((full_cnt >= BBR_FULL_BW_COUNT) | high_loss), S_DRAIN, state)

        exit_d = (state == S_DRAIN) & (inflight <= bdp)
        state = np.where(exit_d, S_PROBE_BW, state)
        phase = np.where(exit_d, P_DOWN, phase)
        phase_stamp = np.where(exit_d, now, phase_stamp)

        pb = state == S_PROBE_BW
        # Snapshot the phase so the DOWN/CRUISE/UP arms stay elif-exclusive
        # within one round, like the per-flow state machine.
        ph0 = phase.copy()
        fin = np.isfinite(hi)
        bound = np.where(fin, hi * (1 - BBR2_HEADROOM), np.inf)
        down = pb & (ph0 == P_DOWN)
        to_cruise = down & (inflight <= np.maximum(BBR_MIN_CWND, np.minimum(bdp, bound)))
        if to_cruise.any():
            j = np.flatnonzero(to_cruise)
            half = BBR2_CRUISE_HALF_SPAN_S
            phase_stamp[j] = now + self._lane_streams.uniform(self._stream_row[i[j]], -half, half)
            phase = np.where(to_cruise, P_CRUISE, phase)
        cruise = pb & (ph0 == P_CRUISE)
        to_up = cruise & (now - phase_stamp > BBR2_CRUISE_MEAN_S)
        phase = np.where(to_up, P_UP, phase)
        phase_stamp = np.where(to_up, now, phase_stamp)
        up = pb & (ph0 == P_UP)
        grow = up & np.isfinite(hi) & ~high_loss
        hi = np.where(grow, hi + np.maximum(1.0, delivered), hi)
        to_down = up & (
            high_loss
            | (now - phase_stamp > BBR2_PROBE_UP_MAX_RTTS * np.maximum(min_rtt, BBR_MIN_RTT_FLOOR_S))
        )
        phase = np.where(to_down, P_DOWN, phase)
        phase_stamp = np.where(to_down, now, phase_stamp)
        to_pr = pb & (now - min_stamp > BBR2_PROBE_RTT_INTERVAL_S)
        state = np.where(to_pr, S_PROBE_RTT, state)
        probe_until = np.where(to_pr, now + BBR_PROBE_RTT_DURATION_S, probe_until)

        exit_pr = (state == S_PROBE_RTT) & (now >= probe_until)
        min_stamp = np.where(exit_pr, now, min_stamp)
        state = np.where(exit_pr, S_PROBE_BW, state)
        phase = np.where(exit_pr, P_DOWN, phase)
        phase_stamp = np.where(exit_pr, now, phase_stamp)

        gain = np.where(
            state == S_STARTUP, BBR2_STARTUP_PACING_GAIN,
            np.where(
                state == S_DRAIN, BBR2_DRAIN_GAIN,
                np.where(
                    state == S_PROBE_RTT, 1.0,
                    np.where(
                        phase == P_DOWN, BBR2_DOWN_GAIN,
                        np.where(phase == P_UP, BBR2_UP_GAIN, 1.0),
                    ),
                ),
            ),
        )
        cap_gain = np.where(
            (state == S_STARTUP) | (state == S_DRAIN), BBR2_STARTUP_CWND_GAIN,
            np.where(state == S_PROBE_RTT, BBR2_PROBE_RTT_CWND_GAIN, BBR2_CWND_GAIN),
        )
        have_bw = bw > 0
        new_cap = np.maximum(BBR_MIN_CWND, cap_gain * bdp)
        fin = np.isfinite(hi)
        hi_eff = np.where(
            (phase == P_CRUISE) & (state == S_PROBE_BW), hi * (1 - BBR2_HEADROOM), hi
        )
        new_cap = np.where(fin, np.minimum(new_cap, np.maximum(BBR_MIN_CWND, hi_eff)), new_cap)
        pacing = np.where(have_bw, np.maximum(RATE_FLOOR_PPS, gain * bw), np.nan)
        cap = np.where(have_bw, new_cap, cap)
        cwnd = np.where(have_bw, cwnd, np.minimum(cwnd * 2.0, BBR_RAMP_CWND_CAP))

        self.cwnd[i] = cwnd
        self.pacing[i] = pacing
        self.cap[i] = cap
        self.bb_state[i] = state
        self.bb_ring[i] = ring
        self.bb_pos[i] = pos
        self.bb_min_rtt[i] = min_rtt
        self.bb_min_rtt_stamp[i] = min_stamp
        self.bb_full_bw[i] = full_bw
        self.bb_full_bw_count[i] = full_cnt
        self.bb_probe_until[i] = probe_until
        self.b2_inflight_hi[i] = hi
        self.b2_phase[i] = phase
        self.b2_phase_stamp[i] = phase_stamp

    # -- driving / outputs -----------------------------------------------------

    def run(self, duration_s: float) -> None:
        """Step the whole shard forward by ``duration_s`` simulated seconds."""
        end = self.now + duration_s
        while self.now < end - 1e-12:
            self.step()

    def begin_measurement(self) -> None:
        """Snapshot delivery counters; :attr:`measured_delivered` counts
        only what arrives after this call (post-warmup window)."""
        self._measure_delivered = self.delivered_total.copy()

    @property
    def measured_delivered(self) -> np.ndarray:
        if self._measure_delivered is None:
            return self.delivered_total.copy()
        return self.delivered_total - self._measure_delivered


class PerFlowFluidSimulation(BatchedFluidSimulation):
    """The integrator with per-flow round rules (``engine="fluid"``).

    Rates, arrivals, queue laws and accumulators are the base class's;
    only the round update differs: each due lane's round goes to its own
    :class:`~repro.fluid.cca_rules.FluidCca` object, one plain state
    machine per flow — the reference the vector kernels must match.
    """

    def __init__(self, configs: Sequence[ExperimentConfig]):
        super().__init__(configs)
        self.flows: List[FluidCca] = [
            flow
            for c, config in enumerate(self.configs)
            for flow in make_fluid_flows(config, RngStreams(config.seed), self.widths[c])
        ]

    def _init_kernels(self, L: int) -> None:
        """No vector kernels: each flow's state lives in its rule object."""

    def _round_updates(self, due: np.ndarray, x: np.ndarray) -> None:
        now, base = self.now, self.base_rtt
        for i in due.nonzero()[0].tolist():
            flow = self.flows[i]
            rtt = base + float(self._delay[i])
            delivered = float(self.round_delivered[i])
            span = max(now - float(self.round_started_at[i]), self.dt)
            flow.round_update(RoundInfo(
                now, rtt, base, delivered, float(self.round_lost[i]), delivered / span,
                float(x[i]) * base + float(self.backlog[i]),
            ))
            self.cwnd[i] = flow.cwnd
            if flow.rate_based:  # a window rule never paces or caps
                self.pacing[i] = np.nan if flow.pacing_pps is None else flow.pacing_pps
                self.cap[i] = flow.inflight_cap
            self.round_delivered[i] = 0.0
            self.round_lost[i] = 0.0
            self.round_started_at[i] = now
            self.next_round[i] = now + rtt


# --- experiment-level entry points -------------------------------------------


def _run_shard(configs: Sequence[ExperimentConfig]) -> List[ExperimentResult]:
    """Warm up, measure, and assemble one result per config of a shard
    (on the per-flow rules when the shard's engine is ``fluid``)."""
    wall_start = time.perf_counter()
    config0 = configs[0]
    integrator = PerFlowFluidSimulation if config0.engine == "fluid" else BatchedFluidSimulation
    sim = integrator(configs)
    probes = None
    if config0.fairness_interval_s:
        # Shard members share the cadence (it is part of the shard key),
        # so one vectorized hook drives every config's probe.
        from repro.obs.fairness import attach_batched_fairness

        probes = attach_batched_fairness(sim)
    if config0.warmup_s > 0:
        sim.run(config0.warmup_s)
        sim.begin_measurement()
        sim.run(config0.duration_s - config0.warmup_s)
    else:
        sim.begin_measurement()
        sim.run(config0.duration_s)
    # Engine time is booked by lane share, so the members' values still sum
    # to the shard's wall time.
    wall_per_lane = (time.perf_counter() - wall_start) / sim.offsets[-1]

    results: List[ExperimentResult] = []
    window = sim.measured_delivered
    for c, config in enumerate(configs):
        lanes = slice(sim.offsets[c], sim.offsets[c + 1])
        results.append(
            build_fluid_result(
                config,
                sim.geoms[c],
                delivered_window=window[lanes],
                delivered_total=sim.delivered_total[lanes],
                dropped_total=sim.dropped_total[lanes],
                aqm_dropped=float(sim.aqm_dropped[c]),
                wallclock_s=wall_per_lane * sim.widths[c],
                fairness=probes[c].to_dict() if probes is not None else None,
            )
        )
    return results


def run_fluid_batch(configs: Sequence[ExperimentConfig]) -> List[ExperimentResult]:
    """Run many configs on the vector kernels; results in input order.

    Configs are grouped into lock-step shards automatically; per-config
    results are independent of the grouping and bit-identical to the
    per-flow rules.
    """
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    for shard in plan_shards(configs):
        shard_results = _run_shard([configs[i] for i in shard])
        for i, res in zip(shard, shard_results):
            results[i] = res
    if _malloc_trim is not None:
        _malloc_trim(0)  # the shards' buffers are freed by now
    return [r for r in results if r is not None]


def run_fluid_single(config: ExperimentConfig) -> ExperimentResult:
    """Run one config as a shard of one: ``engine="fluid"`` on the per-flow
    rules, ``"fluid_batched"`` on the vector kernels."""
    return _run_shard([config])[0]
