"""The declarative scenario IR (ROADMAP item 5).

A :class:`Scenario` is the single, engine-agnostic description of one
experiment: *what* is simulated (topology, flows, AQM, faults, duration,
sampling), never *how* (the backend is a runtime flag passed to
:func:`~repro.scenario.compile.compile_scenario`).  The IR is:

- **declarative** — plain frozen dataclasses of typed sub-specs
  (:class:`TopologySpec`, :class:`FlowSpec`, :class:`AqmSpec`,
  :class:`SamplingSpec`), JSON-round-trippable via :meth:`Scenario.to_dict`
  / :meth:`Scenario.from_dict` with path-qualified validation errors;
- **versioned** — documents carry ``"version"`` so future IR revisions
  can migrate old files;
- **canonical** — :meth:`Scenario.canonical_json` is byte-stable under
  field reordering, and :meth:`Scenario.cache_key` is *the same* content
  address the result cache computes for the equivalent
  :class:`~repro.experiments.config.ExperimentConfig`, so a scenario and
  a config dict of one experiment collide on one cache entry;
- **a strict superset hook** — ``FlowSpec.start_s`` / ``size_bytes`` and
  ``TopologySpec.kind`` are extension points (mice, finite transfers,
  parking-lot topologies).  Setting them beyond today's engine support
  fails *at compile time* with a clear :class:`ScenarioError`, not midway
  through a run.

Lowering: :meth:`Scenario.to_experiment_config` lowers the IR to the
engines' config and :meth:`Scenario.from_experiment_config` lifts one
back, losslessly in both directions — lowering reproduces a
byte-identical ``canonical_dict()``, which is what keeps every golden
fixture, cache key, and stored result unchanged.  See docs/SCENARIO.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import AQM_NAMES, NUMBER_LIMIT, ExperimentConfig, canonical_cca_name
from repro.units import mbps

#: Current IR document version.
SCENARIO_VERSION = 1

#: Topology kinds the engines can lower today.  "parking_lot" and
#: friends are reserved extension points: they parse as *names* nowhere —
#: an unknown kind is rejected at validation with a pointer here.
TOPOLOGY_KINDS: Tuple[str, ...] = ("dumbbell",)


class ScenarioError(ValueError):
    """An invalid scenario document, or an IR instance the target backend
    cannot express.  The message carries the dotted field path."""


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise _err(path, message)


def _number(value: Any, path: str) -> Any:
    # Validate without coercing: int-vs-float distinctions survive JSON
    # round trips, and canonical bytes (hence cache keys) depend on them.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    return value


def _check_fields(d: Mapping[str, Any], allowed: Sequence[str], path: str) -> None:
    _require(isinstance(d, Mapping), path, f"expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise _err(path, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class TopologySpec:
    """Where the flows meet: the paper's dumbbell, parametrized.

    ``kind`` is the extension point for future multi-bottleneck shapes
    (parking-lot); everything else maps one-to-one onto the dumbbell
    builder's geometry knobs.
    """

    kind: str = "dumbbell"
    bottleneck_bw_bps: float = mbps(100)
    buffer_bdp: float = 2.0
    mss_bytes: int = 8900
    scale: float = 1.0
    delay_multiplier: float = 1.0
    client_delay_multipliers: Tuple[float, float] = (1.0, 1.0)
    trunk_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        _require(
            self.kind in TOPOLOGY_KINDS,
            "topology.kind",
            f"unknown kind {self.kind!r}; supported: {list(TOPOLOGY_KINDS)} "
            "(parking-lot and asymmetric topologies are planned extension "
            "points — see docs/SCENARIO.md)",
        )
        for name in ("bottleneck_bw_bps", "buffer_bdp", "mss_bytes", "scale", "delay_multiplier"):
            _require(
                0 < getattr(self, name) < NUMBER_LIMIT,
                f"topology.{name}",
                "must be positive and finite (below 2**63)",
            )
        _require(
            0.0 <= self.trunk_loss_rate < 1.0,
            "topology.trunk_loss_rate",
            "must be in [0, 1)",
        )
        object.__setattr__(
            self, "client_delay_multipliers", tuple(self.client_delay_multipliers)
        )
        _require(
            len(self.client_delay_multipliers) == 2
            and all(0 < m < NUMBER_LIMIT for m in self.client_delay_multipliers),
            "topology.client_delay_multipliers",
            "must be two positive finite per-sender multipliers",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Document form of the topology (every field explicit)."""
        return {
            "kind": self.kind,
            "bottleneck_bw_bps": self.bottleneck_bw_bps,
            "buffer_bdp": self.buffer_bdp,
            "mss_bytes": self.mss_bytes,
            "scale": self.scale,
            "delay_multiplier": self.delay_multiplier,
            "client_delay_multipliers": list(self.client_delay_multipliers),
            "trunk_loss_rate": self.trunk_loss_rate,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], path: str = "topology") -> "TopologySpec":
        _check_fields(d, [f.name for f in fields(cls)], path)
        kwargs = dict(d)
        if "client_delay_multipliers" in kwargs:
            cdm = kwargs["client_delay_multipliers"]
            _require(
                isinstance(cdm, (list, tuple)),
                f"{path}.client_delay_multipliers",
                "expected a list of two numbers",
            )
            kwargs["client_delay_multipliers"] = tuple(
                _number(m, f"{path}.client_delay_multipliers[{i}]")
                for i, m in enumerate(cdm)
            )
        for key in ("bottleneck_bw_bps", "buffer_bdp", "scale", "delay_multiplier",
                    "trunk_loss_rate"):
            if key in kwargs:
                kwargs[key] = _number(kwargs[key], f"{path}.{key}")
        if "mss_bytes" in kwargs:
            _require(
                isinstance(kwargs["mss_bytes"], int) and not isinstance(kwargs["mss_bytes"], bool),
                f"{path}.mss_bytes",
                f"expected an integer, got {kwargs['mss_bytes']!r}",
            )
        if "kind" in kwargs:
            _require(
                isinstance(kwargs["kind"], str), f"{path}.kind", "expected a string"
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class FlowSpec:
    """One group of identical flows from a sender node.

    ``count=None`` means "derive from the paper's Table 2 plan for the
    (unscaled) bottleneck tier".  ``start_s`` and ``size_bytes`` are
    extension points for short-flow (mice) workloads: today the engines
    only run long-lived elephants starting at t=0, and lowering
    refuses anything else rather than silently ignoring it.
    """

    cca: str
    node: int = 0
    count: Optional[int] = None
    start_s: float = 0.0
    size_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "cca", canonical_cca_name(self.cca))
        except (ValueError, KeyError) as exc:
            raise _err("flows[].cca", str(exc)) from None
        _require(
            isinstance(self.node, int) and not isinstance(self.node, bool) and self.node >= 0,
            "flows[].node",
            f"expected a non-negative sender-node index, got {self.node!r}",
        )
        _require(
            self.count is None
            or (isinstance(self.count, int) and not isinstance(self.count, bool)
                and 1 <= self.count < NUMBER_LIMIT),
            "flows[].count",
            f"expected a positive flow count below 2**63 or null (Table 2 plan), got {self.count!r}",
        )
        _require(self.start_s >= 0, "flows[].start_s", "must be >= 0")
        _require(
            self.size_bytes is None or self.size_bytes > 0,
            "flows[].size_bytes",
            "must be positive or null (unbounded elephant)",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Document form of the flow group; extension-point defaults omitted."""
        d: Dict[str, Any] = {"cca": self.cca, "node": self.node}
        if self.count is not None:
            d["count"] = self.count
        if self.start_s:
            d["start_s"] = self.start_s
        if self.size_bytes is not None:
            d["size_bytes"] = self.size_bytes
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], path: str = "flows[]") -> "FlowSpec":
        _check_fields(d, [f.name for f in fields(cls)], path)
        _require("cca" in d, path, "missing required field 'cca'")
        kwargs = dict(d)
        if "start_s" in kwargs:
            kwargs["start_s"] = _number(kwargs["start_s"], f"{path}.start_s")
        try:
            return cls(**kwargs)
        except ScenarioError as exc:
            # Construction errors carry the generic "flows[]." prefix;
            # substitute the indexed document path.
            raise ScenarioError(str(exc).replace("flows[]", path, 1)) from None


@dataclass(frozen=True)
class AqmSpec:
    """The bottleneck queue discipline: name, ECN marking, tuning params."""

    name: str = "fifo"
    ecn: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            self.name in AQM_NAMES,
            "aqm.name",
            f"unknown AQM {self.name!r}",
        )
        _require(isinstance(self.ecn, bool), "aqm.ecn", "expected true/false")
        _require(isinstance(self.params, Mapping), "aqm.params", "expected an object")
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> Dict[str, Any]:
        """Document form of the AQM; ``ecn=False`` and empty params omitted."""
        d: Dict[str, Any] = {"name": self.name}
        if self.ecn:
            d["ecn"] = True
        if self.params:
            d["params"] = dict(self.params)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], path: str = "aqm") -> "AqmSpec":
        _check_fields(d, [f.name for f in fields(cls)], path)
        return cls(**dict(d))


@dataclass(frozen=True)
class SamplingSpec:
    """Time-series cadences, folding the per-engine ``*_interval_s`` knobs.

    All three are opt-in (``None`` = off) and outcome-neutral: sampling a
    run never changes what it computes (see docs/OBSERVABILITY.md).
    ``queue_interval_s`` is packet-engine-only today.
    """

    throughput_interval_s: Optional[float] = None
    queue_interval_s: Optional[float] = None
    fairness_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("throughput_interval_s", "queue_interval_s", "fairness_interval_s"):
            value = getattr(self, name)
            _require(
                value is None or (isinstance(value, (int, float)) and 0 < value < NUMBER_LIMIT),
                f"sampling.{name}",
                f"expected a positive finite cadence in seconds or null, got {value!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        """Document form of the sampling plan; unset cadences omitted."""
        return {
            name: getattr(self, name)
            for name in ("throughput_interval_s", "queue_interval_s", "fairness_interval_s")
            if getattr(self, name) is not None
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], path: str = "sampling") -> "SamplingSpec":
        _check_fields(d, [f.name for f in fields(cls)], path)
        return cls(**dict(d))


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: topology + flows + AQM + faults +
    duration + sampling.  Engine choice is *not* part of the scenario —
    it is the runtime flag ``compile_scenario`` takes."""

    topology: TopologySpec = field(default_factory=TopologySpec)
    flows: Tuple[FlowSpec, ...] = (
        FlowSpec(cca="bbrv1", node=0),
        FlowSpec(cca="cubic", node=1),
    )
    aqm: AqmSpec = field(default_factory=AqmSpec)
    faults: Tuple[Dict[str, Any], ...] = ()
    duration_s: float = 30.0
    warmup_s: float = 0.0
    seed: int = 0
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    version: int = SCENARIO_VERSION

    def __post_init__(self) -> None:
        _require(
            self.version == SCENARIO_VERSION,
            "version",
            f"unsupported scenario version {self.version!r} "
            f"(this release reads version {SCENARIO_VERSION})",
        )
        object.__setattr__(self, "flows", tuple(self.flows))
        _require(bool(self.flows), "flows", "need at least one flow spec")
        for i, flow in enumerate(self.flows):
            _require(
                isinstance(flow, FlowSpec),
                f"flows[{i}]",
                f"expected a FlowSpec, got {type(flow).__name__}",
            )
            if self.topology.kind == "dumbbell":
                _require(
                    flow.node in (0, 1),
                    f"flows[{i}].node",
                    "the dumbbell has two sender nodes (0 and 1)",
                )
        _require(
            0 < self.duration_s < NUMBER_LIMIT,
            "duration_s",
            "must be positive and finite (below 2**63)",
        )
        _require(
            0 <= self.warmup_s < self.duration_s,
            "warmup_s",
            "must be in [0, duration_s)",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool)
            and 0 <= self.seed < NUMBER_LIMIT,
            "seed",
            f"expected an integer in [0, 2**63), got {self.seed!r}",
        )
        try:
            from repro.faults.spec import normalize_faults

            object.__setattr__(self, "faults", tuple(normalize_faults(self.faults)))
        except (TypeError, ValueError) as exc:
            raise _err("faults", str(exc)) from None

    # -- JSON document form -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical nested-dict form (inverse of :meth:`from_dict`).

        Sub-spec fields at their defaults are kept only where they carry
        identity (topology geometry); opt-in fields (faults, sampling
        cadences, extension knobs) are omitted when off, so the dict — and
        thus :meth:`canonical_json` — is minimal and reorder-stable.
        """
        d: Dict[str, Any] = {
            "version": self.version,
            "topology": self.topology.to_dict(),
            "flows": [f.to_dict() for f in self.flows],
            "aqm": self.aqm.to_dict(),
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "seed": self.seed,
        }
        if self.faults:
            d["faults"] = [dict(f) for f in self.faults]
        sampling = self.sampling.to_dict()
        if sampling:
            d["sampling"] = sampling
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        """Parse and validate a scenario document.

        Raises :class:`ScenarioError` with a dotted field path on any
        schema violation — the error surface ``repro serve`` turns into
        clean HTTP 400s.
        """
        _check_fields(
            d,
            ["version", "topology", "flows", "aqm", "faults",
             "duration_s", "warmup_s", "seed", "sampling"],
            "scenario",
        )
        kwargs: Dict[str, Any] = {}
        if "version" in d:
            kwargs["version"] = d["version"]
        if "topology" in d:
            kwargs["topology"] = TopologySpec.from_dict(d["topology"])
        if "flows" in d:
            flows = d["flows"]
            _require(
                isinstance(flows, Sequence) and not isinstance(flows, (str, bytes)),
                "flows",
                "expected a list of flow specs",
            )
            kwargs["flows"] = tuple(
                FlowSpec.from_dict(f, f"flows[{i}]") for i, f in enumerate(flows)
            )
        if "aqm" in d:
            kwargs["aqm"] = AqmSpec.from_dict(d["aqm"])
        if "faults" in d:
            faults = d["faults"]
            _require(
                isinstance(faults, Sequence) and not isinstance(faults, (str, bytes)),
                "faults",
                "expected a list of fault specs",
            )
            kwargs["faults"] = tuple(faults)
        for key in ("duration_s", "warmup_s"):
            if key in d:
                kwargs[key] = _number(d[key], key)
        if "seed" in d:
            kwargs["seed"] = d["seed"]
        if "sampling" in d:
            kwargs["sampling"] = SamplingSpec.from_dict(d["sampling"])
        try:
            return cls(**kwargs)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(str(exc)) from None

    def canonical_json(self, *, indent: Optional[int] = None) -> str:
        """Deterministic serialized form: sorted keys, minimal fields.

        Two documents that parse to the same scenario — whatever their
        field order or explicit-default noise — render to the same bytes.
        """
        if indent is None:
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def cache_key(self, engine: str = "packet", salt: Optional[str] = None) -> str:
        """The content address a result cache uses for this scenario.

        Delegates to the engine config's key derivation, so an IR
        submission and a hand-built :class:`ExperimentConfig` of the same
        experiment are *the same* cache entry.  ``salt=None`` uses the
        release-default salt (see :func:`repro.experiments.cache.default_salt`).
        """
        from repro.experiments.cache import config_key, default_salt

        if salt is None:
            salt = default_salt()
        return config_key(self.to_experiment_config(engine=engine), salt)

    def label(self, engine: str = "packet") -> str:
        """Compact id (the engine config label) for stores and reports."""
        return self.to_experiment_config(engine=engine).label()

    # -- lowering -----------------------------------------------------------------

    @classmethod
    def from_experiment_config(cls, config: ExperimentConfig) -> "Scenario":
        """Lift an engine config into the IR (lossless; engine dropped).

        The engine is deliberately *not* captured — pass it back to
        :meth:`to_experiment_config` (or ``compile_scenario``) as the runtime
        backend flag.
        """
        return cls(
            topology=TopologySpec(
                kind="dumbbell",
                bottleneck_bw_bps=config.bottleneck_bw_bps,
                buffer_bdp=config.buffer_bdp,
                mss_bytes=config.mss_bytes,
                scale=config.scale,
                delay_multiplier=config.delay_multiplier,
                client_delay_multipliers=tuple(config.client_delay_multipliers),
                trunk_loss_rate=config.trunk_loss_rate,
            ),
            flows=(
                FlowSpec(cca=config.cca_pair[0], node=0, count=config.flows_per_node),
                FlowSpec(cca=config.cca_pair[1], node=1, count=config.flows_per_node),
            ),
            aqm=AqmSpec(
                name=config.aqm, ecn=config.ecn_mode, params=dict(config.aqm_params)
            ),
            faults=tuple(config.faults),
            duration_s=config.duration_s,
            warmup_s=config.warmup_s,
            seed=config.seed,
            sampling=SamplingSpec(
                throughput_interval_s=config.sample_interval_s,
                queue_interval_s=config.queue_monitor_interval_s,
                fairness_interval_s=config.fairness_interval_s,
            ),
        )

    def to_experiment_config(self, engine: str = "packet") -> ExperimentConfig:
        """Lower the IR to the engines' native config for ``engine``.

        Refuses (with a precise :class:`ScenarioError`) any scenario the
        engine config cannot express — extension-point fields in use, or
        flow layouts beyond one spec per dumbbell sender node.
        """
        _require(
            self.topology.kind == "dumbbell",
            "topology.kind",
            f"backend {engine!r} can only lower the dumbbell today",
        )
        by_node: Dict[int, FlowSpec] = {}
        for i, flow in enumerate(self.flows):
            _require(
                flow.node not in by_node,
                f"flows[{i}]",
                f"multiple flow specs for sender node {flow.node}; the "
                "engines take one CCA x count per node",
            )
            _require(
                flow.start_s == 0.0,
                f"flows[{i}].start_s",
                "staggered flow starts (mice workloads) are not supported "
                "by the engines yet",
            )
            _require(
                flow.size_bytes is None,
                f"flows[{i}].size_bytes",
                "finite transfer sizes are not supported by the engines yet",
            )
            by_node[flow.node] = flow
        _require(
            set(by_node) == {0, 1},
            "flows",
            f"the dumbbell needs exactly one flow spec per sender node "
            f"(0 and 1), got nodes {sorted(by_node)}",
        )
        counts = {by_node[0].count, by_node[1].count}
        _require(
            len(counts) == 1,
            "flows",
            "per-node flow counts must match (flows_per_node is one knob "
            f"on the engines), got {by_node[0].count} vs {by_node[1].count}",
        )
        try:
            return ExperimentConfig(
                cca_pair=(by_node[0].cca, by_node[1].cca),
                aqm=self.aqm.name,
                buffer_bdp=self.topology.buffer_bdp,
                bottleneck_bw_bps=self.topology.bottleneck_bw_bps,
                duration_s=self.duration_s,
                mss_bytes=self.topology.mss_bytes,
                seed=self.seed,
                engine=engine,
                scale=self.topology.scale,
                flows_per_node=by_node[0].count,
                warmup_s=self.warmup_s,
                ecn_mode=self.aqm.ecn,
                aqm_params=dict(self.aqm.params),
                delay_multiplier=self.topology.delay_multiplier,
                client_delay_multipliers=tuple(self.topology.client_delay_multipliers),
                trunk_loss_rate=self.topology.trunk_loss_rate,
                sample_interval_s=self.sampling.throughput_interval_s,
                queue_monitor_interval_s=self.sampling.queue_interval_s,
                fairness_interval_s=self.sampling.fairness_interval_s,
                faults=list(self.faults),
            )
        except ValueError as exc:
            raise ScenarioError(f"engine {engine!r} rejected the scenario: {exc}") from None
