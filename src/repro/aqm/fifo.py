"""FIFO / drop-tail: the paper's baseline AQM.

Packets are accepted until the byte limit is reached, then arriving packets
are dropped.  No dequeue-time logic, no per-flow state — exactly the
``pfifo``/``bfifo`` behaviour the paper configures with `tc`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.aqm.base import QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class FifoQueue(QueueDiscipline):
    """Byte-limited drop-tail queue."""

    __slots__ = ("_queue",)

    def __init__(self, limit_bytes: int, *, ecn_mode: bool = False):
        super().__init__(limit_bytes, ecn_mode=ecn_mode)
        self._queue: deque[Packet] = deque()

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """Accept unless the byte limit would be exceeded."""
        # Accounting inlined (vs the base-class helpers): FIFO guards every
        # edge interface, so this runs for every packet on every hop.
        size = pkt.size
        stats = self.stats
        if self.bytes_queued + size > self.limit_bytes:
            stats.dropped_enqueue += 1
            stats.bytes_dropped += size
            if self.tracer.enabled:
                self.tracer.record(
                    "queue_drop", now, point="tail", flow=pkt.flow_id, seq=pkt.seq
                )
            return False
        pkt.enqueue_time = now
        self.bytes_queued += size
        self.packets_queued += 1
        stats.enqueued += 1
        stats.bytes_enqueued += size
        self._queue.append(pkt)
        return True

    def dequeue(self, now: int) -> Optional[Packet]:
        """Pop in arrival order."""
        queue = self._queue
        if not queue:
            return None
        pkt = queue.popleft()
        self.bytes_queued -= pkt.size
        self.packets_queued -= 1
        self.stats.dequeued += 1
        return pkt
