"""PIE — Proportional Integral controller Enhanced (RFC 8033).

An extension beyond the paper's three AQMs: the paper closes by calling
for queue-management research that works "in a wide range of BW
scenarios, especially considering future Internet"; PIE is the IETF's
other standardized answer to bufferbloat and slots straight into the
same experiment grid (``aqm="pie"``).

The controller updates a drop probability every ``t_update`` (15 ms):

    p += alpha * (qdelay - target) + beta * (qdelay - qdelay_old)

with the RFC's auto-scaling of (alpha, beta) by the magnitude of ``p``,
departure-rate-based delay estimation, and the burst-allowance grace
period after idle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.aqm.base import QueueDiscipline
from repro.calibration import (
    PIE_ALPHA, PIE_BETA, PIE_GAIN_SCALE, PIE_IDLE_DECAY, PIE_T_UPDATE_NS, PIE_TARGET_NS,
)
from repro.units import milliseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.rng import Stream

DEFAULT_BURST_ALLOWANCE_NS = milliseconds(150)
MAX_PROB = 1.0


class PieQueue(QueueDiscipline):
    """A byte-limited queue managed by the PIE controller."""

    __slots__ = (
        "rng",
        "target_ns",
        "t_update_ns",
        "burst_allowance_ns",
        "_queue",
        "drop_prob",
        "qdelay_ns",
        "qdelay_old_ns",
        "_burst_left_ns",
        "_last_update_ns",
        "_depart_rate",
        "_measure_start_ns",
        "_measure_bytes",
    )

    def __init__(
        self,
        limit_bytes: int,
        rng: Stream,
        *,
        target_ns: int = PIE_TARGET_NS,
        t_update_ns: int = PIE_T_UPDATE_NS,
        burst_allowance_ns: int = DEFAULT_BURST_ALLOWANCE_NS,
        ecn_mode: bool = False,
    ):
        super().__init__(limit_bytes, ecn_mode=ecn_mode)
        if rng is None:
            raise ValueError("PIE requires a random generator")
        if target_ns <= 0 or t_update_ns <= 0:
            raise ValueError("target and t_update must be positive")
        self.rng = rng
        self.target_ns = target_ns
        self.t_update_ns = t_update_ns
        self.burst_allowance_ns = burst_allowance_ns

        self._queue: deque[Packet] = deque()
        self.drop_prob = 0.0
        self.qdelay_ns = 0
        self.qdelay_old_ns = 0
        self._burst_left_ns = burst_allowance_ns
        self._last_update_ns: Optional[int] = None
        # Departure-rate estimation (bytes/ns), seeded on first dequeues.
        self._depart_rate: Optional[float] = None
        self._measure_start_ns = 0
        self._measure_bytes = 0

    # -- controller ------------------------------------------------------------------

    def _maybe_update(self, now: int) -> None:
        if self._last_update_ns is None:
            self._last_update_ns = now
            return
        while now - self._last_update_ns >= self.t_update_ns:
            self._last_update_ns += self.t_update_ns
            self._update_probability()

    def _current_qdelay_ns(self) -> int:
        if self._depart_rate and self._depart_rate > 0:
            return int(self.bytes_queued / self._depart_rate)
        # No departures measured yet: fall back to the oldest packet's age.
        return 0

    def _update_probability(self) -> None:
        qdelay = self._current_qdelay_ns()
        # RFC 8033 auto-tuning: scale gains down when p is small.
        scale = next((s for bound, s in PIE_GAIN_SCALE if self.drop_prob < bound), 1.0)
        delta = scale * (
            PIE_ALPHA * (qdelay - self.target_ns) / 1e9
            + PIE_BETA * (qdelay - self.qdelay_old_ns) / 1e9
        )
        self.drop_prob = min(MAX_PROB, max(0.0, self.drop_prob + delta))
        # Exponential decay when the queue is idle (RFC §4.2 last rule).
        if qdelay == 0 and self.qdelay_old_ns == 0:
            self.drop_prob *= PIE_IDLE_DECAY
        self.qdelay_old_ns = qdelay
        if self._burst_left_ns > 0:
            self._burst_left_ns = max(0, self._burst_left_ns - self.t_update_ns)

    def _should_drop(self, pkt: Packet) -> bool:
        if self._burst_left_ns > 0:
            return False
        # Safeguards from RFC 8033 §4.1: never drop when nearly empty.
        if self.qdelay_old_ns < self.target_ns // 2 and self.drop_prob < 0.2:
            return False
        if self.bytes_queued <= 2 * pkt.size:
            return False
        return self.rng.random() < self.drop_prob

    # -- discipline API -----------------------------------------------------------------

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """Drop with the controller probability (after the burst allowance)."""
        # Inline _maybe_update's no-op fast path (controller not yet due).
        last = self._last_update_ns
        if last is None:
            self._last_update_ns = now
        elif now - last >= self.t_update_ns:
            self._maybe_update(now)
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
        if self._should_drop(pkt):
            if not self._try_mark(pkt):
                stats.dropped_enqueue += 1
                stats.bytes_dropped += size
                if self.tracer.enabled:
                    self.tracer.record(
                        "queue_drop", now, point="early", flow=pkt.flow_id, seq=pkt.seq
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
        """Pop FIFO-order; feeds the departure-rate estimator."""
        last = self._last_update_ns
        if last is None:
            self._last_update_ns = now
        elif now - last >= self.t_update_ns:
            self._maybe_update(now)
        if not self._queue:
            # Queue drained: re-arm the burst allowance.
            if self.drop_prob == 0.0:
                self._burst_left_ns = self.burst_allowance_ns
            return None
        pkt = self._queue.popleft()
        self.bytes_queued -= pkt.size
        self.packets_queued -= 1
        self.stats.dequeued += 1
        # Departure-rate measurement over ~100 ms windows.
        if self._measure_start_ns == 0:
            self._measure_start_ns = now
        self._measure_bytes += pkt.size
        elapsed = now - self._measure_start_ns
        if elapsed >= milliseconds(100):
            self._depart_rate = self._measure_bytes / elapsed
            self._measure_start_ns = now
            self._measure_bytes = 0
        return pkt
