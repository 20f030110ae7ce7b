"""FQ_CoDel — flow queueing with CoDel (RFC 8290).

Flows are hashed (with a seeded perturbation) into 1024 buckets, each with
its own FIFO and CoDel state.  A deficit-round-robin scheduler with a
one-MTU quantum serves the buckets; freshly active buckets sit on the
*new* list and are served before *old* ones (the "sparse flow" boost).
When the shared byte limit is exceeded, packets are dropped from the head
of the currently fattest bucket, which is what keeps any single flow from
monopolizing the buffer — the property behind the paper's near-perfect
FQ_CODEL fairness results.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.aqm.base import QueueDiscipline
from repro.aqm.codel import CoDelController
from repro.calibration import CODEL_INTERVAL_NS, CODEL_TARGET_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.rng import Stream

DEFAULT_FLOW_BUCKETS = 1024


class _FlowQueue:
    """One hash bucket: FIFO + CoDel state + DRR deficit."""

    __slots__ = ("packets", "bytes", "deficit", "codel", "active", "pop", "backlog")

    def __init__(self, codel: CoDelController):
        self.packets: Deque[Packet] = deque()
        self.bytes = 0
        self.deficit = 0
        self.codel = codel
        self.active = False  # on the new or old list
        # Bound at bucket creation by the owning FqCoDelQueue so the DRR
        # loop hands CoDel ready-made callables instead of fresh lambdas.
        self.pop = None
        self.backlog = None


class FqCoDelQueue(QueueDiscipline):
    """DRR over per-flow sub-queues, each policed by CoDel."""

    __slots__ = (
        "flows",
        "quantum",
        "target_ns",
        "interval_ns",
        "mtu_bytes",
        "_perturbation",
        "_buckets",
        "_new_list",
        "_old_list",
    )

    def __init__(
        self,
        limit_bytes: int,
        rng: Optional[Stream] = None,
        *,
        flows: int = DEFAULT_FLOW_BUCKETS,
        quantum_bytes: int = 1514,
        target_ns: int = CODEL_TARGET_NS,
        interval_ns: int = CODEL_INTERVAL_NS,
        mtu_bytes: int = 1500,
        ecn_mode: bool = False,
    ):
        super().__init__(limit_bytes, ecn_mode=ecn_mode)
        if flows <= 0:
            raise ValueError(f"flow bucket count must be positive, got {flows}")
        if quantum_bytes <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_bytes}")
        self.flows = flows
        self.quantum = quantum_bytes
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self.mtu_bytes = mtu_bytes
        # Hash perturbation, as in the Linux implementation, so bucket
        # collisions differ between runs with different seeds.
        self._perturbation = int(rng.integers(0, 2**31)) if rng is not None else 0
        self._buckets: Dict[int, _FlowQueue] = {}
        self._new_list: Deque[int] = deque()
        self._old_list: Deque[int] = deque()

    # -- bucket helpers --------------------------------------------------------

    def _bucket_id(self, pkt: Packet) -> int:
        return (pkt.flow_id * 2654435761 + self._perturbation) % self.flows

    def _bucket(self, bid: int) -> _FlowQueue:
        fq = self._buckets.get(bid)
        if fq is None:
            fq = _FlowQueue(
                CoDelController(
                    target_ns=self.target_ns,
                    interval_ns=self.interval_ns,
                    mtu_bytes=self.mtu_bytes,
                )
            )
            packets = fq.packets

            def pop(packets=packets, fq=fq, self=self) -> Optional[Packet]:
                if not packets:
                    return None
                pkt = packets.popleft()
                size = pkt.size
                fq.bytes -= size
                self.bytes_queued -= size
                self.packets_queued -= 1
                return pkt

            fq.pop = pop
            fq.backlog = lambda fq=fq: fq.bytes
            self._buckets[bid] = fq
        return fq

    def _fattest_bucket(self) -> Optional[int]:
        best_id, best_bytes = None, -1
        for bid, fq in self._buckets.items():
            if fq.bytes > best_bytes:
                best_id, best_bytes = bid, fq.bytes
        return best_id

    def _drop_from_fattest(self) -> None:
        bid = self._fattest_bucket()
        if bid is None:
            return
        fq = self._buckets[bid]
        victim = fq.packets.popleft()
        fq.bytes -= victim.size
        self.bytes_queued -= victim.size
        self.packets_queued -= 1
        self.stats.dropped_enqueue += 1
        self.stats.bytes_dropped += victim.size
        if self.tracer.enabled:
            self.tracer.record(
                "queue_drop", victim.enqueue_time, point="evict",
                flow=victim.flow_id, seq=victim.seq, bucket=bid,
            )

    # -- discipline API -----------------------------------------------------------

    def enqueue(self, pkt: Packet, now: int) -> bool:
        """Hash into a bucket; evict from the fattest flow when over limit."""
        bid = (pkt.flow_id * 2654435761 + self._perturbation) % self.flows
        fq = self._buckets.get(bid)
        if fq is None:
            fq = self._bucket(bid)
        size = pkt.size
        stats = self.stats
        pkt.enqueue_time = now
        self.bytes_queued += size
        self.packets_queued += 1
        stats.enqueued += 1
        stats.bytes_enqueued += size
        fq.packets.append(pkt)
        fq.bytes += size
        if not fq.active:
            fq.active = True
            fq.deficit = self.quantum
            self._new_list.append(bid)
        # Over the shared limit: evict from the head of the fattest flow.
        # (The just-enqueued packet may itself be the victim if its flow is
        # the fattest — matching fq_codel_drop() in Linux.)
        while self.bytes_queued > self.limit_bytes:
            self._drop_from_fattest()
        return True

    def dequeue(self, now: int) -> Optional[Packet]:
        """DRR over new-then-old buckets, each policed by its CoDel."""
        while True:
            if self._new_list:
                from_new = True
                bid = self._new_list[0]
            elif self._old_list:
                from_new = False
                bid = self._old_list[0]
            else:
                return None
            fq = self._buckets[bid]

            if fq.deficit <= 0:
                fq.deficit += self.quantum
                # Exhausted quantum: rotate to the end of the old list.
                if from_new:
                    self._new_list.popleft()
                else:
                    self._old_list.popleft()
                self._old_list.append(bid)
                continue

            pkt = fq.codel.dequeue(
                now,
                fq.pop,
                self._on_codel_drop,
                fq.backlog,
                self._try_mark,
            )
            if pkt is None:
                # Bucket drained.  A new-list bucket gets one pass on the old
                # list (RFC 8290 §4.2); an old-list bucket goes inactive.
                if from_new:
                    self._new_list.popleft()
                    self._old_list.append(bid)
                else:
                    self._old_list.popleft()
                    fq.active = False
                continue

            fq.deficit -= pkt.size
            self.stats.dequeued += 1
            return pkt

    def _on_codel_drop(self, pkt: Packet) -> None:
        self.stats.dropped_dequeue += 1
        self.stats.bytes_dropped += pkt.size
        if self.tracer.enabled:
            # Stamped with the sojourn start (see CoDelQueue._on_codel_drop).
            self.tracer.record(
                "queue_drop", pkt.enqueue_time, point="codel",
                flow=pkt.flow_id, seq=pkt.seq,
            )
