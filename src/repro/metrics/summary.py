"""Result records produced by the experiment runner.

Everything is a plain dataclass with ``to_dict``/``from_dict`` so results
round-trip through the JSONL campaign store and the analysis layer never
touches simulator objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class FlowStats:
    """Per-flow (per iperf3 stream) outcome."""

    flow_id: int
    sender_node: str
    cca: str
    throughput_bps: float
    bytes_received: int
    segments_sent: int
    retransmits: int
    rto_count: int
    fast_recoveries: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        Spelled out field by field (``dataclasses.asdict`` recurses and
        deep-copies, ~10x slower over the hundreds of flows of a wide
        result); tests/metrics/test_summary.py pins it to the field list.
        """
        return {
            "flow_id": self.flow_id,
            "sender_node": self.sender_node,
            "cca": self.cca,
            "throughput_bps": self.throughput_bps,
            "bytes_received": self.bytes_received,
            "segments_sent": self.segments_sent,
            "retransmits": self.retransmits,
            "rto_count": self.rto_count,
            "fast_recoveries": self.fast_recoveries,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FlowStats":
        return cls(**d)


@dataclass
class SenderStats:
    """Aggregate over one sender node's flows (the paper's S_1 / S_2)."""

    node: str
    cca: str
    throughput_bps: float
    retransmits: int
    flows: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict` (see :class:`FlowStats`)."""
        return {
            "node": self.node,
            "cca": self.cca,
            "throughput_bps": self.throughput_bps,
            "retransmits": self.retransmits,
            "flows": self.flows,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SenderStats":
        return cls(**d)


@dataclass
class ExperimentResult:
    """One configuration x one repetition."""

    config: Dict[str, Any]
    senders: List[SenderStats]
    flows: List[FlowStats]
    jain_index: float
    link_utilization: float
    total_retransmits: int
    total_throughput_bps: float
    bottleneck_drops: int
    duration_s: float
    engine: str
    events_processed: int = 0
    wallclock_s: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def sender_throughputs(self) -> List[float]:
        return [s.throughput_bps for s in self.senders]

    def throughput_of(self, cca: str) -> float:
        """Total throughput of all sender nodes running ``cca``."""
        return sum(s.throughput_bps for s in self.senders if s.cca == cca)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        return {
            "config": self.config,
            "senders": [s.to_dict() for s in self.senders],
            "flows": [f.to_dict() for f in self.flows],
            "jain_index": self.jain_index,
            "link_utilization": self.link_utilization,
            "total_retransmits": self.total_retransmits,
            "total_throughput_bps": self.total_throughput_bps,
            "bottleneck_drops": self.bottleneck_drops,
            "duration_s": self.duration_s,
            "engine": self.engine,
            "events_processed": self.events_processed,
            "wallclock_s": self.wallclock_s,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            config=d["config"],
            senders=[SenderStats.from_dict(s) for s in d["senders"]],
            flows=[FlowStats.from_dict(f) for f in d["flows"]],
            jain_index=d["jain_index"],
            link_utilization=d["link_utilization"],
            total_retransmits=d["total_retransmits"],
            total_throughput_bps=d["total_throughput_bps"],
            bottleneck_drops=d["bottleneck_drops"],
            duration_s=d["duration_s"],
            engine=d["engine"],
            events_processed=d.get("events_processed", 0),
            wallclock_s=d.get("wallclock_s", 0.0),
            extra=d.get("extra", {}),
        )
