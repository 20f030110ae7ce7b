"""The wire unit of the simulator.

One :class:`Packet` models one TCP segment (data or pure ACK).  Sequence
numbers count *segments*, not bytes: every data segment of a flow is
``mss`` bytes on the wire (the paper uses fixed jumbo 8900-byte packets),
so byte-level sequence arithmetic would add cost without changing any of
the dynamics under study.

Data segments carry the delivery-rate sampling fields BBR needs
(``delivered``/``delivered_time`` snapshots taken at transmission); ACKs
carry the cumulative ack, up to :data:`MAX_SACK_BLOCKS` SACK ranges, a
timestamp echo for RTT sampling, and the ECN-echo flag.

Hot-path notes: the factory functions (:func:`make_data_packet`,
:func:`make_ack_packet`) draw from a bounded freelist instead of
allocating, and assign every slot directly rather than going through
``Packet.__init__``'s keyword machinery.  :class:`~repro.net.node.Host`
returns consumed packets to the pool via :func:`free_packet` — a released
packet must never be retained, since the next factory call may recycle
and overwrite it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

ACK_SIZE_BYTES = 60
MAX_SACK_BLOCKS = 3


class Packet:
    """A single simulated segment."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "is_ack",
        "seq",
        "ack",
        "sacks",
        "send_time",
        "ts_echo",
        "is_retx",
        "delivered",
        "delivered_time",
        "first_sent_time",
        "app_limited",
        "ecn_ect",
        "ecn_ce",
        "ecn_echo",
        "enqueue_time",
    )

    def __init__(
        self,
        flow_id: int,
        src,
        dst,
        size: int,
        *,
        is_ack: bool = False,
        seq: int = -1,
        ack: int = -1,
        sacks: Tuple[Tuple[int, int], ...] = (),
        send_time: int = 0,
        ts_echo: int = -1,
        is_retx: bool = False,
        ecn_ect: bool = False,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.is_ack = is_ack
        self.seq = seq
        self.ack = ack
        self.sacks = sacks
        self.send_time = send_time
        self.ts_echo = ts_echo
        self.is_retx = is_retx
        # BBR delivery-rate sampling snapshots (filled by the rate sampler).
        self.delivered = 0
        self.delivered_time = 0
        self.first_sent_time = 0
        self.app_limited = False
        # ECN code point: ECT(0) capable / CE marked / ECE echoed on ACKs.
        self.ecn_ect = ecn_ect
        self.ecn_ce = False
        self.ecn_echo = False
        # Set by queues at enqueue time; consumed by CoDel at dequeue time.
        self.enqueue_time = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return f"<ACK flow={self.flow_id} ack={self.ack} sacks={self.sacks}>"
        kind = "RETX" if self.is_retx else "DATA"
        return f"<{kind} flow={self.flow_id} seq={self.seq} size={self.size}>"


# --- freelist ----------------------------------------------------------------

#: Upper bound on pooled packets: enough for every packet in flight plus
#: every queued packet in any realistic run, while bounding memory held
#: by an idle pool.
_POOL_CAP = 8192
_pool: List[Packet] = []
_pool_pop = _pool.pop
_pool_append = _pool.append
_new_packet = Packet.__new__


def free_packet(pkt: Packet) -> None:
    """Return a fully consumed packet to the freelist.

    Callers guarantee no reference to ``pkt`` survives the call; the next
    :func:`make_data_packet` / :func:`make_ack_packet` may recycle it.
    """
    if len(_pool) < _POOL_CAP:
        _pool_append(pkt)


def make_data_packet(
    flow_id: int, src, dst, seq: int, mss: int, now: int, *, is_retx: bool = False, ecn_ect: bool = False
) -> Packet:
    """Build a data segment of ``mss`` wire bytes."""
    pkt = _pool_pop() if _pool else _new_packet(Packet)
    pkt.flow_id = flow_id
    pkt.src = src
    pkt.dst = dst
    pkt.size = mss
    pkt.is_ack = False
    pkt.seq = seq
    pkt.ack = -1
    pkt.sacks = ()
    pkt.send_time = now
    pkt.ts_echo = -1
    pkt.is_retx = is_retx
    pkt.delivered = 0
    pkt.delivered_time = 0
    pkt.first_sent_time = 0
    pkt.app_limited = False
    pkt.ecn_ect = ecn_ect
    pkt.ecn_ce = False
    pkt.ecn_echo = False
    pkt.enqueue_time = 0
    return pkt


def make_ack_packet(
    flow_id: int,
    src,
    dst,
    ack: int,
    now: int,
    *,
    sacks: Tuple[Tuple[int, int], ...] = (),
    ts_echo: int = -1,
    ecn_echo: bool = False,
) -> Packet:
    """Build a pure ACK."""
    pkt = _pool_pop() if _pool else _new_packet(Packet)
    pkt.flow_id = flow_id
    pkt.src = src
    pkt.dst = dst
    pkt.size = ACK_SIZE_BYTES
    pkt.is_ack = True
    pkt.seq = -1
    pkt.ack = ack
    pkt.sacks = sacks[:MAX_SACK_BLOCKS]
    pkt.send_time = now
    pkt.ts_echo = ts_echo
    pkt.is_retx = False
    pkt.delivered = 0
    pkt.delivered_time = 0
    pkt.first_sent_time = 0
    pkt.app_limited = False
    pkt.ecn_ect = False
    pkt.ecn_ce = False
    pkt.ecn_echo = ecn_echo
    pkt.enqueue_time = 0
    return pkt
