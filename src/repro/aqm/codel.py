"""CoDel — Controlled Delay AQM (RFC 8289).

CoDel makes its drop decisions at *dequeue* time based on packet sojourn:
once the minimum sojourn over an ``interval`` (100 ms) exceeds ``target``
(5 ms), it enters the dropping state and drops at a rate that increases as
the square root of the drop count (the control law), until sojourn falls
back under target.

:class:`CoDelController` holds the state machine over an abstract packet
source so the same logic drives both the standalone :class:`CoDelQueue`
and each sub-queue of :class:`repro.aqm.fq_codel.FqCoDelQueue`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.aqm.base import QueueDiscipline
from repro.calibration import CODEL_INTERVAL_NS, CODEL_TARGET_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class CoDelController:
    """RFC 8289 state machine, parameterized over a packet source.

    ``pop`` returns the next queued packet or None; ``on_drop`` is called
    for every packet CoDel discards (the owner updates its accounting);
    ``backlog_bytes`` lets CoDel skip dropping when fewer than one MTU is
    queued.
    """

    __slots__ = (
        "target_ns",
        "interval_ns",
        "mtu_bytes",
        "first_above_time",
        "drop_next",
        "count",
        "lastcount",
        "dropping",
    )

    def __init__(self, *, target_ns: int = CODEL_TARGET_NS, interval_ns: int = CODEL_INTERVAL_NS, mtu_bytes: int = 1500):
        if target_ns <= 0 or interval_ns <= 0:
            raise ValueError("CoDel target and interval must be positive")
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self.mtu_bytes = mtu_bytes
        self.first_above_time = 0
        self.drop_next = 0
        self.count = 0
        self.lastcount = 0
        self.dropping = False

    def control_law(self, t: int, count: int) -> int:
        """Next drop time: interval/sqrt(count) after ``t``."""
        return t + int(self.interval_ns / math.sqrt(max(1, count)))

    def _should_drop(self, pkt: Optional[Packet], now: int, backlog_bytes: int) -> bool:
        if pkt is None:
            self.first_above_time = 0
            return False
        sojourn = now - pkt.enqueue_time
        if sojourn < self.target_ns or backlog_bytes <= self.mtu_bytes:
            self.first_above_time = 0
            return False
        if self.first_above_time == 0:
            self.first_above_time = now + self.interval_ns
            return False
        return now >= self.first_above_time

    def dequeue(
        self,
        now: int,
        pop: Callable[[], Optional[Packet]],
        on_drop: Callable[[Packet], None],
        backlog_bytes: Callable[[], int],
        try_mark: Callable[[Packet], bool],
    ) -> Optional[Packet]:
        """Pop the next deliverable packet, applying CoDel's drop law."""
        pkt = pop()
        ok_to_drop = self._should_drop(pkt, now, backlog_bytes())
        if self.dropping:
            if not ok_to_drop:
                self.dropping = False
            else:
                while self.dropping and now >= self.drop_next:
                    self.count += 1
                    if try_mark(pkt):
                        self.drop_next = self.control_law(self.drop_next, self.count)
                        break
                    on_drop(pkt)
                    pkt = pop()
                    if not self._should_drop(pkt, now, backlog_bytes()):
                        self.dropping = False
                    else:
                        self.drop_next = self.control_law(self.drop_next, self.count)
        elif ok_to_drop:
            delta = self.count - self.lastcount
            self.count = 1
            # Resume at a higher rate if we were dropping recently.
            if delta > 1 and now - self.drop_next < 16 * self.interval_ns:
                self.count = delta
            if not try_mark(pkt):
                on_drop(pkt)
                pkt = pop()
            self.dropping = True
            self.lastcount = self.count
            self.drop_next = self.control_law(now, self.count)
        return pkt


class CoDelQueue(QueueDiscipline):
    """A single byte-limited queue managed by CoDel."""

    __slots__ = ("_queue", "controller")

    def __init__(
        self,
        limit_bytes: int,
        *,
        target_ns: int = CODEL_TARGET_NS,
        interval_ns: int = CODEL_INTERVAL_NS,
        mtu_bytes: int = 1500,
        ecn_mode: bool = False,
    ):
        super().__init__(limit_bytes, ecn_mode=ecn_mode)
        self._queue: deque[Packet] = deque()
        self.controller = CoDelController(
            target_ns=target_ns, interval_ns=interval_ns, mtu_bytes=mtu_bytes
        )

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """Tail-drop at the byte limit; CoDel itself drops at dequeue."""
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

    def _pop(self) -> Optional[Packet]:
        if not self._queue:
            return None
        pkt = self._queue.popleft()
        self.bytes_queued -= pkt.size
        self.packets_queued -= 1
        return pkt

    def _backlog(self) -> int:
        return self.bytes_queued

    def _on_codel_drop(self, pkt: Packet) -> None:
        # _pop already removed the packet from backlog accounting.
        self.stats.dropped_dequeue += 1
        self.stats.bytes_dropped += pkt.size
        if self.tracer.enabled:
            # No clock in scope here: stamp with the victim's enqueue time
            # (the sojourn start), which is what CoDel judged it by.
            self.tracer.record(
                "queue_drop", pkt.enqueue_time, point="codel",
                flow=pkt.flow_id, seq=pkt.seq,
            )

    def dequeue(self, now: int) -> Optional[Packet]:
        """Pop through the CoDel sojourn-based drop law."""
        pkt = self.controller.dequeue(
            now,
            self._pop,
            self._on_codel_drop,
            self._backlog,
            self._try_mark,
        )
        if pkt is not None:
            self.stats.dequeued += 1
        return pkt
