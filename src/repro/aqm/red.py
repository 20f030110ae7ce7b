"""Random Early Detection (Floyd & Jacobson 1993), with `tc red`-style knobs.

The average queue length is an EWMA of the instantaneous byte backlog,
updated at every enqueue.  Between ``min_th`` and ``max_th`` the drop
probability ramps from 0 to ``max_p``; the inter-drop ``count`` spreads
drops out (uniformization); above ``max_th`` the *gentle* variant ramps
from ``max_p`` to 1 between ``max_th`` and ``2*max_th`` instead of
force-dropping immediately.

When the queue goes idle, the average decays as if ``avpkt``-sized packets
had been draining at line rate — the standard idle-time correction, which
needs the link ``bandwidth_bps`` hint (`tc red` requires the same).

Default thresholds mirror common `tc red` guidance and are intentionally
*not* retuned per bandwidth tier: the paper attributes RED's poor
high-bandwidth behaviour to exactly these untouched internal parameters
(see §5.3), and the ablation bench re-runs the sweep with scaled ones.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.aqm.base import QueueDiscipline
from repro.calibration import (
    RED_GENTLE, RED_MAX_P, RED_MAX_TH_OF_BUFFER, RED_MAX_TH_PACKETS, RED_MIN_TH_OF_BUFFER,
    RED_MIN_TH_PACKETS, RED_WEIGHT,
)
from repro.units import NS_PER_SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.rng import Stream


class RedQueue(QueueDiscipline):
    """Gentle RED with EWMA average queue and idle decay."""

    __slots__ = (
        "min_th",
        "max_th",
        "max_p",
        "weight",
        "avpkt",
        "bandwidth_bps",
        "gentle",
        "rng",
        "_queue",
        "avg",
        "_count",
        "_idle_since",
    )

    def __init__(
        self,
        limit_bytes: int,
        rng: Stream,
        *,
        min_th: Optional[int] = None,
        max_th: Optional[int] = None,
        max_p: float = RED_MAX_P,
        weight: float = RED_WEIGHT,
        avpkt: int = 1000,
        bandwidth_bps: Optional[float] = None,
        gentle: bool = RED_GENTLE,
        ecn_mode: bool = False,
    ):
        super().__init__(limit_bytes, ecn_mode=ecn_mode)
        if rng is None:
            raise ValueError("RED requires a random generator")
        # Classic `tc red` guidance: min ~ 30 avpkt, max ~ 90 avpkt — fixed
        # thresholds that are *not* retuned per bandwidth tier, which is the
        # paper's explanation for RED's poor high-bandwidth utilization
        # (§5.3).  Clamped when the configured buffer is smaller than that.
        if min_th is not None:
            self.min_th = int(min_th)
        else:
            num, den = RED_MIN_TH_OF_BUFFER
            self.min_th = max(avpkt, min(RED_MIN_TH_PACKETS * avpkt, limit_bytes * num // den))
        if max_th is not None:
            self.max_th = int(max_th)
        else:
            num, den = RED_MAX_TH_OF_BUFFER
            self.max_th = max(
                self.min_th + avpkt, min(RED_MAX_TH_PACKETS * avpkt, limit_bytes * num // den)
            )
            # Degenerate buffers (~1 packet): squeeze both under the limit.
            self.max_th = min(self.max_th, limit_bytes)
            self.min_th = min(self.min_th, max(1, self.max_th - 1))
        if not self.min_th < self.max_th <= self.limit_bytes:
            raise ValueError(
                f"need min_th < max_th <= limit, got {self.min_th}/{self.max_th}/{self.limit_bytes}"
            )
        if not 0.0 < max_p <= 1.0:
            raise ValueError(f"max_p must be in (0, 1], got {max_p}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {weight}")
        self.max_p = max_p
        self.weight = weight
        self.avpkt = avpkt
        self.bandwidth_bps = bandwidth_bps
        self.gentle = gentle
        self.rng = rng

        self._queue: deque[Packet] = deque()
        self.avg = 0.0
        self._count = -1  # packets since last drop/mark while avg in ramp
        self._idle_since: Optional[int] = 0  # queue empty since (ns); None = busy

    # -- EWMA maintenance --------------------------------------------------------

    def _update_avg(self, now: int) -> None:
        if self._idle_since is not None and self.bandwidth_bps:
            # Idle decay: pretend `m` avpkt-sized packets drained while idle.
            idle_ns = max(0, now - self._idle_since)
            m = int(idle_ns * self.bandwidth_bps / (8 * self.avpkt * NS_PER_SEC))
            if m > 0:
                self.avg *= (1.0 - self.weight) ** m
            self._idle_since = None
        self.avg += self.weight * (self.bytes_queued - self.avg)

    # -- drop lottery -------------------------------------------------------------

    def _drop_probability(self) -> float:
        """Instantaneous drop probability ``p_b`` for the current average."""
        if self.avg < self.min_th:
            return 0.0
        if self.avg < self.max_th:
            return self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        if self.gentle and self.avg < 2 * self.max_th:
            return self.max_p + (1.0 - self.max_p) * (self.avg - self.max_th) / self.max_th
        return 1.0

    def _should_drop(self) -> bool:
        p_b = self._drop_probability()
        if p_b <= 0.0:
            self._count = -1
            return False
        if p_b >= 1.0:
            self._count = 0
            return True
        self._count += 1
        # Uniformized inter-drop gap (Floyd/Jacobson eq. for p_a).
        denom = 1.0 - self._count * p_b
        p_a = 1.0 if denom <= 0.0 else min(1.0, p_b / denom)
        if self.rng.random() < p_a:
            self._count = 0
            return True
        return False

    # -- discipline API -------------------------------------------------------------

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """EWMA update, probabilistic early drop/mark, then tail drop."""
        # Busy-queue fast path inlines the EWMA step; the idle-decay branch
        # of _update_avg only matters right after a drain.
        if self._idle_since is not None:
            self._update_avg(now)
        else:
            self.avg += self.weight * (self.bytes_queued - self.avg)
        size = pkt.size
        stats = self.stats
        if self.bytes_queued + size > self.limit_bytes:
            stats.dropped_enqueue += 1
            stats.bytes_dropped += size
            self._count = 0
            if self.tracer.enabled:
                self.tracer.record(
                    "queue_drop", now, point="tail", flow=pkt.flow_id, seq=pkt.seq
                )
            return False
        # No-drop regime (avg below min_th) short-circuits the lottery.
        if self.avg < self.min_th:
            self._count = -1
        elif self._should_drop():
            if self._try_mark(pkt):
                pass  # marked instead of dropped; fall through to accept
            else:
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
        """Pop in arrival order; tracks queue-idle onset for EWMA decay."""
        queue = self._queue
        if not queue:
            return None
        pkt = queue.popleft()
        self.bytes_queued -= pkt.size
        self.packets_queued -= 1
        self.stats.dequeued += 1
        if not queue:
            self._idle_since = now
        return pkt
