"""Result records produced by the experiment runner.

Everything has ``to_dict``/``from_dict`` so results round-trip through the
JSONL campaign store and the analysis layer never touches simulator
objects.  A result's per-flow stats are one :class:`FlowTable` of columns,
not a list of :class:`FlowStats` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class FlowStats:
    """Per-flow (per iperf3 stream) outcome: one row of a :class:`FlowTable`."""

    flow_id: int
    sender_node: str
    cca: str
    throughput_bps: float
    bytes_received: int
    segments_sent: int
    retransmits: int
    rto_count: int
    fast_recoveries: int


#: The columns of a :class:`FlowTable`, in :class:`FlowStats` field order.
FLOW_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(FlowStats))
_FLOW_FIELD_SET = frozenset(FLOW_FIELDS)


class FlowTable:
    """A result's per-flow stats as nine equal-length columns.

    The stored form (:meth:`to_dict`) is ``{"flow_id": [...],
    "throughput_bps": [...], ...}``: one list per :class:`FlowStats`
    field, so a 500-flow row names each field once instead of once per
    flow.  Reading a row keeps the decoded lists as they are; a
    :class:`FlowStats` is built only when a caller iterates or indexes.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Optional[Sequence[List[Any]]] = None):
        """``columns``: one list per name in :data:`FLOW_FIELDS`, in that
        order, all one length (not checked here; see :meth:`from_dict`)."""
        self._columns: List[List[Any]] = (
            [[] for _ in FLOW_FIELDS] if columns is None else list(columns)
        )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Any]]) -> "FlowTable":
        """The table of per-flow value tuples, each in :data:`FLOW_FIELDS` order."""
        columns = [list(column) for column in zip(*rows)]
        return cls(columns or None)

    @classmethod
    def from_records(cls, flows: Iterable[FlowStats]) -> "FlowTable":
        """The table of per-flow :class:`FlowStats` records, in their order."""
        return cls.from_rows(map(_flow_values, flows))

    @classmethod
    def from_dict(cls, d: Any) -> "FlowTable":
        """The table of a stored ``flows`` value, its lists kept as given.

        Exactly the :data:`FLOW_FIELDS` keys, each a list, all one length;
        anything else raises ``ValueError`` (``TypeError`` for a value
        that is not an object at all).
        """
        if not isinstance(d, dict):
            raise TypeError(f"flows: expected an object of columns, got {type(d).__name__}")
        if d.keys() != _FLOW_FIELD_SET:
            missing = sorted(_FLOW_FIELD_SET - d.keys())
            unknown = sorted(d.keys() - _FLOW_FIELD_SET)
            raise ValueError(f"flows: missing columns {missing}, unknown columns {unknown}")
        columns = [d[name] for name in FLOW_FIELDS]
        n = len(columns[0]) if isinstance(columns[0], list) else -1
        for name, column in zip(FLOW_FIELDS, columns):
            if not isinstance(column, list):
                raise ValueError(f"flows: column {name!r} is not a list")
            if len(column) != n:
                raise ValueError(
                    f"flows: column {name!r} has {len(column)} values, "
                    f"{FLOW_FIELDS[0]!r} has {n}"
                )
        return cls(columns)

    def to_dict(self) -> Dict[str, List[Any]]:
        """The stored form, sharing this table's lists; inverse of :meth:`from_dict`."""
        return dict(zip(FLOW_FIELDS, self._columns))

    def column(self, name: str) -> List[Any]:
        """One column (this table's own list: do not mutate it)."""
        return self._columns[FLOW_FIELDS.index(name)]

    def records(self) -> List[Dict[str, Any]]:
        """One ``{field: value}`` dict per flow: the rows the table transposes."""
        return [dict(zip(FLOW_FIELDS, values)) for values in zip(*self._columns)]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[FlowStats]:
        return map(FlowStats, *self._columns)

    def __getitem__(self, index: int) -> FlowStats:
        return FlowStats(*(column[index] for column in self._columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:
        return f"FlowTable({self.to_dict()!r})"


_flow_values = attrgetter(*FLOW_FIELDS)


@dataclass
class SenderStats:
    """Aggregate over one sender node's flows (the paper's S_1 / S_2)."""

    node: str
    cca: str
    throughput_bps: float
    retransmits: int
    flows: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict`.  Spelled out field by
        field: ``dataclasses.asdict`` recurses and deep-copies."""
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
    flows: FlowTable
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
            "flows": self.flows.to_dict(),
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
        """The result of a stored row; its ``flows`` columns are checked and
        kept, no :class:`FlowStats` is built (see :meth:`FlowTable.from_dict`)."""
        return cls(
            config=d["config"],
            senders=[SenderStats.from_dict(s) for s in d["senders"]],
            flows=FlowTable.from_dict(d["flows"]),
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
