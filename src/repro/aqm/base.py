"""Queue-discipline interface.

An interface's egress buffer is a :class:`QueueDiscipline`.  The contract:

- ``enqueue(pkt, now)`` returns True if the packet was accepted.  A False
  return means the discipline dropped it *at enqueue time* (tail drop,
  RED's probabilistic drop, FQ_CoDel's fat-flow eviction) and already
  accounted for it in :attr:`stats`.
- ``dequeue(now)`` returns the next packet to serialize, or ``None`` when
  the queue is empty.  Disciplines may drop packets internally here too
  (CoDel drops at dequeue time based on sojourn).
- ``ecn_mode`` — when True the discipline marks ECT packets (sets
  ``pkt.ecn_ce``) instead of dropping them where the algorithm allows.

Buffer limits are expressed in **bytes**, matching how the paper sizes
queues (k x BDP bytes via `tc`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class QueueStats:
    """Counters every discipline maintains.

    A plain slotted class (not a dataclass): these counters are bumped on
    every enqueue/dequeue of every hop, and slot access keeps that cheap.
    """

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped_enqueue",
        "dropped_dequeue",
        "ecn_marked",
        "bytes_enqueued",
        "bytes_dropped",
        "flushed",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped_enqueue = 0
        self.dropped_dequeue = 0
        self.ecn_marked = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0
        # Packets discarded by an administrative flush() (a fault-injection
        # action, not an AQM decision).  Also counted in dropped_dequeue so
        # dropped_total and the conservation identity stay truthful.
        self.flushed = 0

    @property
    def dropped_total(self) -> int:
        return self.dropped_enqueue + self.dropped_dequeue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"QueueStats({fields})"


class QueueDiscipline:
    """Abstract base.  Subclasses implement enqueue/dequeue."""

    __slots__ = ("limit_bytes", "ecn_mode", "bytes_queued", "packets_queued", "stats", "tracer")

    def __init__(self, limit_bytes: int, *, ecn_mode: bool = False):
        if limit_bytes <= 0:
            raise ValueError(f"queue limit must be positive, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self.ecn_mode = ecn_mode
        self.bytes_queued = 0
        self.packets_queued = 0
        self.stats = QueueStats()
        # Flight-recorder hook; consulted only on drop paths, so disabled
        # tracing costs nothing on the accept/dequeue fast path.
        self.tracer = NULL_TRACER

    # -- required API -----------------------------------------------------------

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """Accept or drop an arriving packet; True = accepted."""
        raise NotImplementedError

    def dequeue(self, now: int) -> Optional[Packet]:
        """Pop the next packet to serialize, or None when empty."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def _try_mark(self, pkt: Packet) -> bool:
        """ECN-mark instead of dropping, when enabled and the packet is ECT."""
        if self.ecn_mode and pkt.ecn_ect:
            pkt.ecn_ce = True
            self.stats.ecn_marked += 1
            return True
        return False

    def flush(self, now: int) -> int:
        """Discard every queued packet (the router queue-flush fault).

        Drains through :meth:`dequeue` so each discipline's internal state
        (CoDel intervals, FQ bucket backlogs, RED averages) is unwound by
        its own logic, then re-books each popped packet from "dequeued"
        to "dropped at dequeue" — the conservation identity
        ``enqueued == dequeued + dropped_dequeue + queued`` is preserved,
        with ``stats.flushed`` recording how many drops were administrative
        rather than algorithmic.  Returns the number of packets flushed.
        """
        stats = self.stats
        flushed = 0
        while True:
            pkt = self.dequeue(now)
            if pkt is None:
                break
            stats.dequeued -= 1
            stats.dropped_dequeue += 1
            stats.bytes_dropped += pkt.size
            stats.flushed += 1
            flushed += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "queue_drop", now, point="flush", flow=pkt.flow_id, seq=pkt.seq
                )
        return flushed

    @property
    def is_empty(self) -> bool:
        return self.packets_queued == 0

    def __len__(self) -> int:
        return self.packets_queued
