"""Experiment configuration (paper Tables 1 & 2).

An :class:`ExperimentConfig` pins one cell of the study: the CCA pair
(sender node 1's algorithm vs sender node 2's), the AQM, the buffer size
in BDP multiples, and the bottleneck bandwidth — plus run mechanics
(duration, seed, engine, scale).

:func:`flow_plan` reproduces Table 2's iperf3 scaling: the number of
iperf3 processes per node and parallel streams per process for each
bottleneck tier (flow counts are keyed to the *paper* bandwidth even when
the run itself is rate-scaled, so the flow-count/BW relationship the
paper studies is preserved).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.units import gbps, mbps

#: Paper Table 1 columns.
PAPER_BANDWIDTHS_BPS: Tuple[float, ...] = (mbps(100), mbps(500), gbps(1), gbps(10), gbps(25))
PAPER_BUFFER_BDPS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
PAPER_AQMS: Tuple[str, ...] = ("fifo", "fq_codel", "red")
PAPER_CCA_PAIRS: Tuple[Tuple[str, str], ...] = (
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
PAPER_DURATION_S = 200.0
PAPER_REPETITIONS = 5


@dataclass(frozen=True)
class FlowPlan:
    """Table 2 row: iperf3 processes per node x parallel streams each."""

    processes_per_node: int
    streams_per_process: int

    @property
    def flows_per_node(self) -> int:
        return self.processes_per_node * self.streams_per_process

    @property
    def total_flows(self) -> int:
        return 2 * self.flows_per_node


#: Table 2, keyed by bottleneck bandwidth.
PAPER_FLOW_PLANS: Dict[float, FlowPlan] = {
    mbps(100): FlowPlan(1, 1),
    mbps(500): FlowPlan(5, 1),
    gbps(1): FlowPlan(10, 1),
    gbps(10): FlowPlan(10, 10),
    gbps(25): FlowPlan(25, 10),
}


def flow_plan(bottleneck_bw_bps: float) -> FlowPlan:
    """The Table 2 plan for a tier (nearest tier for off-grid bandwidths)."""
    if bottleneck_bw_bps <= 0:
        raise ValueError("bandwidth must be positive")
    exact = PAPER_FLOW_PLANS.get(bottleneck_bw_bps)
    if exact is not None:
        return exact
    nearest = min(PAPER_FLOW_PLANS, key=lambda bw: abs(bw - bottleneck_bw_bps) / bw)
    return PAPER_FLOW_PLANS[nearest]


#: Every engine a config can run on, in canonical order.
ENGINES: Tuple[str, ...] = ("packet", "fluid", "fluid_batched")

#: Every queue discipline the engines implement (paper Table 1 plus PIE).
AQM_NAMES: Tuple[str, ...] = ("fifo", "red", "fq_codel", "codel", "pie")

#: Every congestion controller the engines implement, by canonical name.
CCA_NAMES: Tuple[str, ...] = ("reno", "cubic", "htcp", "bbrv1", "bbrv2")

#: The other spellings of a CCA the paper's tables use.
_CCA_ALIASES: Dict[str, str] = {"bbr": "bbrv1", "bbr1": "bbrv1", "bbr2": "bbrv2"}


#: Every number a config holds lies below this, floats included (no knob
#: comes near it).  The store's decoder (orjson) reads an integer of 2**64
#: or more back as a float, which would file the stored row under another
#: cache key.
NUMBER_LIMIT = 2 ** 63


def canonical_cca_name(name: str) -> str:
    """Map aliases to the canonical name used in results/reports."""
    key = name.lower()
    key = _CCA_ALIASES.get(key, key)
    if key in CCA_NAMES:
        return key
    raise ValueError(
        f"unknown CCA {name!r}; expected one of {sorted(CCA_NAMES + tuple(_CCA_ALIASES))}"
    )


def canonical_engine_name(name: str) -> str:
    """Map the CLI spelling ``fluid-batched`` to its :data:`ENGINES` name."""
    return name.replace("-", "_")


@dataclass
class ExperimentConfig:
    """One cell of the study grid (x one repetition via ``seed``).

    The engines' one input: a :class:`~repro.scenario.Scenario` lowers to
    it, stored results and cache entries re-materialize it via
    :meth:`from_dict`.
    """

    cca_pair: Tuple[str, str]
    aqm: str = "fifo"
    buffer_bdp: float = 2.0
    bottleneck_bw_bps: float = mbps(100)
    duration_s: float = PAPER_DURATION_S
    mss_bytes: int = 8900
    seed: int = 0
    engine: str = "packet"  # one of ENGINES
    scale: float = 1.0
    #: Override Table 2 (None = derive from the *unscaled* bandwidth).
    flows_per_node: Optional[int] = None
    warmup_s: float = 0.0
    ecn_mode: bool = False
    aqm_params: Dict[str, Any] = field(default_factory=dict)
    delay_multiplier: float = 1.0
    #: Per-sender access-delay stretch (packet engine only; RTT unfairness).
    client_delay_multipliers: Tuple[float, float] = (1.0, 1.0)
    trunk_loss_rate: float = 0.0
    sample_interval_s: Optional[float] = None
    #: Sample the bottleneck queue (backlog/drops/RED avg) at this cadence
    #: (packet engine only; the paper's "detailed router logs" future work).
    queue_monitor_interval_s: Optional[float] = None
    #: Record fairness dynamics (Jain/φ/queue series, convergence time,
    #: sync-loss instants) at this simulated-time cadence.  Works on all
    #: three engines and never perturbs outcomes (see repro.obs.fairness).
    fairness_interval_s: Optional[float] = None
    #: Deterministic fault-injection timeline: a list of FaultSpec dicts
    #: (see repro.faults and docs/FAULTS.md).  Packet engine only.
    faults: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cca_pair = (
            canonical_cca_name(self.cca_pair[0]),
            canonical_cca_name(self.cca_pair[1]),
        )
        if self.aqm not in AQM_NAMES:
            raise ValueError(f"unknown AQM {self.aqm!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < NUMBER_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**63): {seed!r}")
        for name in ("duration_s", "bottleneck_bw_bps", "scale", "buffer_bdp",
                     "mss_bytes", "delay_multiplier"):
            if not 0 < getattr(self, name) < NUMBER_LIMIT:  # NaN and inf fail too
                raise ValueError(
                    f"{name} must be positive and finite (below 2**63): {getattr(self, name)!r}"
                )
        cdm = self.client_delay_multipliers
        if len(cdm) != 2 or not (0 < cdm[0] < NUMBER_LIMIT and 0 < cdm[1] < NUMBER_LIMIT):
            raise ValueError(f"client_delay_multipliers must be two positive finite numbers: {cdm!r}")
        if not 0.0 <= self.trunk_loss_rate < 1.0:
            raise ValueError(f"trunk_loss_rate must be in [0, 1): {self.trunk_loss_rate!r}")
        if self.warmup_s < 0 or self.warmup_s >= self.duration_s:
            raise ValueError("warmup must be in [0, duration)")
        if self.flows_per_node is not None and not 1 <= self.flows_per_node < NUMBER_LIMIT:
            raise ValueError("flows_per_node must be in [1, 2**63)")
        for name in ("sample_interval_s", "queue_monitor_interval_s", "fairness_interval_s"):
            value = getattr(self, name)
            if value is not None and not 0 < value < NUMBER_LIMIT:  # NaN and inf fail too
                raise ValueError(f"{name} must be None or positive and finite: {value!r}")
        if self.engine != "packet":
            self._refuse_unmodelled_knobs()
        if self.faults:
            from repro.faults.spec import normalize_faults

            if self.engine != "packet":
                raise ValueError("faults require the packet engine")
            # Validate every spec up front and pin the stable full-dict
            # form (what label() hashes and workers unpickle).
            self.faults = normalize_faults(self.faults)

    def _refuse_unmodelled_knobs(self) -> None:
        """Refuse what the fluid engines would silently ignore.

        They model one base RTT for every flow, a lossless trunk and
        drop-only AQMs, and read RED's knobs only; an answer without the
        knob would be cached under the knob's key.
        """
        unmodelled = []
        if self.ecn_mode:
            unmodelled.append("ecn_mode")
        if self.aqm == "codel":
            unmodelled.append("aqm='codel'")
        if self.client_delay_multipliers[0] != 1.0 or self.client_delay_multipliers[1] != 1.0:
            unmodelled.append("client_delay_multipliers")
        if self.trunk_loss_rate > 0:
            unmodelled.append("trunk_loss_rate")
        if self.aqm_params:
            from repro.fluid.batched import RED_KNOBS

            read = RED_KNOBS if self.aqm == "red" else ()
            unmodelled += [f"aqm_params[{k!r}]" for k in self.aqm_params if k not in read]
        if unmodelled:
            raise ValueError(
                f"the {self.engine} engine does not model {', '.join(unmodelled)}; "
                "use the packet engine"
            )

    @property
    def is_intra_cca(self) -> bool:
        """Both sender nodes run the same algorithm (intra-CCA experiment)."""
        return self.cca_pair[0] == self.cca_pair[1]

    @property
    def plan(self) -> FlowPlan:
        if self.flows_per_node is not None:
            return FlowPlan(self.flows_per_node, 1)
        return flow_plan(self.bottleneck_bw_bps)

    def label(self) -> str:
        """Compact id used in result stores and reports."""
        from repro.units import format_rate

        pair = f"{self.cca_pair[0]}-vs-{self.cca_pair[1]}"
        rate = format_rate(self.bottleneck_bw_bps).replace(" ", "")
        label = f"{pair}_{self.aqm}_{self.buffer_bdp:g}bdp_{rate}_seed{self.seed}"
        if self.faults:
            # Configs differing only in their fault timeline must not
            # collide in result stores / resume bookkeeping.
            import json
            import zlib

            digest = zlib.crc32(
                json.dumps(self.faults, sort_keys=True).encode("utf-8")
            )
            label += f"_faults{digest:08x}"
        return label

    def canonical_dict(self) -> Dict[str, Any]:
        """The one canonical JSON-ready form of this configuration.

        Every identity consumer — the content-addressed cache key, stored
        results, golden fixtures, and the scenario IR's lowering — derives
        from this dict.  Tuples become lists, and ``fairness_interval_s``
        and ``faults`` are dropped while at their legacy defaults, so the
        form stays byte-identical to the era before each field existed.
        Spelled out instead of ``dataclasses.asdict`` (every cache key pays
        for it); ``tests/experiments/test_config.py`` pins it to both.
        """
        d: Dict[str, Any] = {
            "cca_pair": list(self.cca_pair),
            "aqm": self.aqm,
            "buffer_bdp": self.buffer_bdp,
            "bottleneck_bw_bps": self.bottleneck_bw_bps,
            "duration_s": self.duration_s,
            "mss_bytes": self.mss_bytes,
            "seed": self.seed,
            "engine": self.engine,
            "scale": self.scale,
            "flows_per_node": self.flows_per_node,
            "warmup_s": self.warmup_s,
            "ecn_mode": self.ecn_mode,
            "aqm_params": copy.deepcopy(self.aqm_params) if self.aqm_params else {},
            "delay_multiplier": self.delay_multiplier,
            "client_delay_multipliers": list(self.client_delay_multipliers),
            "trunk_loss_rate": self.trunk_loss_rate,
            "sample_interval_s": self.sample_interval_s,
            "queue_monitor_interval_s": self.queue_monitor_interval_s,
        }
        if self.fairness_interval_s is not None:
            d["fairness_interval_s"] = self.fairness_interval_s
        if self.faults:
            d["faults"] = copy.deepcopy(self.faults)
        return d

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (tuples become lists); inverse of from_dict."""
        return self.canonical_dict()

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExperimentConfig":
        d = dict(d)
        d["cca_pair"] = tuple(d["cca_pair"])
        if "client_delay_multipliers" in d:
            d["client_delay_multipliers"] = tuple(d["client_delay_multipliers"])
        return cls(**d)
