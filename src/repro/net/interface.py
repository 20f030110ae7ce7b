"""Network interfaces: the glue between nodes, queues, and links.

An :class:`Interface` owns one egress :class:`~repro.aqm.base.QueueDiscipline`
and one outbound :class:`~repro.net.link.Link`.  Arriving packets always go
through the discipline (so CoDel sees a truthful enqueue timestamp even
when the link is idle) and a dequeue loop keeps the link busy whenever the
queue is non-empty — the standard qdisc/driver split in Linux.

Hot-path notes: the enqueue/dequeue/transmit callables are prebound at
:meth:`Interface.attach` / :meth:`Interface.set_qdisc` time so the
per-packet path does two dict-free calls instead of chasing
``self.qdisc.enqueue`` attribute chains on every packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.aqm.base import QueueDiscipline
from repro.net.address import IPv4Address
from repro.net.link import Link
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Interface:
    """One attachment point of a node."""

    __slots__ = (
        "node",
        "name",
        "address",
        "link",
        "qdisc",
        "peer",
        "_busy",
        "_sim",
        "_enqueue",
        "_dequeue",
        "_transmit",
        "_pump_cb",
    )

    def __init__(self, node: "Node", name: str, address: Optional[IPv4Address] = None):
        self.node = node
        self.name = name
        self.address = address
        self.link: Optional[Link] = None
        self.qdisc: Optional[QueueDiscipline] = None
        self.peer: Optional["Interface"] = None
        self._busy = False
        self._sim = node.sim
        self._enqueue = None
        self._dequeue = None
        self._transmit = None
        self._pump_cb = self._pump

    def attach(self, link: Link, peer: "Interface", qdisc: QueueDiscipline) -> None:
        """Wire this interface to its outbound link / far-end interface."""
        self.link = link
        self.peer = peer
        self.qdisc = qdisc
        self._transmit = link.transmit
        self._enqueue = qdisc.enqueue
        self._dequeue = qdisc.dequeue

    def set_qdisc(self, qdisc: QueueDiscipline) -> None:
        """Replace the egress discipline (the `tc qdisc replace` analogue).

        Only allowed while the queue is idle — experiments reconfigure
        between runs, never mid-transfer.
        """
        if self.qdisc is not None and not self.qdisc.is_empty:
            raise RuntimeError(f"cannot replace a non-empty qdisc on {self}")
        self.qdisc = qdisc
        self._enqueue = qdisc.enqueue
        self._dequeue = qdisc.dequeue

    # -- fault hooks --------------------------------------------------------------

    def set_down(self, *, flush_queue: bool = False) -> None:
        """Down the egress link; optionally flush queued packets too.

        With ``flush_queue`` False (the default, matching an unplugged
        cable) the qdisc keeps queueing and the transmit loop keeps
        draining it into the dead link, where packets are dropped
        deterministically; with True, the backlog is discarded on the
        spot (a line-card reset rather than a cable pull).
        """
        if self.link is None:
            raise RuntimeError(f"interface {self} is not attached")
        self.link.set_down()
        if flush_queue and self.qdisc is not None:
            self.qdisc.flush(self._sim.now)

    def set_up(self) -> None:
        """Bring the egress link back up."""
        if self.link is None:
            raise RuntimeError(f"interface {self} is not attached")
        self.link.set_up()

    # -- datapath -----------------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        """Egress entry point: enqueue, then kick the transmit loop."""
        if self.link is None or self.qdisc is None:
            raise RuntimeError(f"interface {self} is not attached")
        if self._enqueue(pkt, self._sim.now) and not self._busy:
            self._pump()

    def _pump(self) -> None:
        pkt = self._dequeue(self._sim.now)
        if pkt is None:
            self._busy = False
            return
        self._busy = True
        self._transmit(pkt, self._pump_cb)

    @property
    def is_busy(self) -> bool:
        return self._busy

    def telemetry(self) -> dict:
        """Egress-point snapshot: qdisc counters + link counters + state.

        Pull-based aggregation over counters the datapath already keeps —
        reading it costs nothing on the per-packet path.
        """
        out: dict = {"interface": f"{self.node.name}:{self.name}", "busy": self._busy}
        if self.qdisc is not None:
            stats = self.qdisc.stats
            out["queue"] = {
                "backlog_bytes": self.qdisc.bytes_queued,
                "backlog_packets": self.qdisc.packets_queued,
                "enqueued": stats.enqueued,
                "dequeued": stats.dequeued,
                "dropped_enqueue": stats.dropped_enqueue,
                "dropped_dequeue": stats.dropped_dequeue,
                "ecn_marked": stats.ecn_marked,
            }
        if self.link is not None:
            out["link"] = self.link.telemetry()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        addr = f" {self.address}" if self.address is not None else ""
        return f"<Interface {self.node.name}:{self.name}{addr}>"
