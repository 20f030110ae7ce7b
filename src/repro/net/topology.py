"""Topology construction helpers.

:class:`Network` owns the simulator plus every node and link, and provides
``connect`` to wire two interfaces with a duplex link (two independent
unidirectional :class:`~repro.net.link.Link` objects, each with its own
queue discipline — exactly how `tc` configures each direction separately).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.aqm.base import QueueDiscipline
from repro.aqm.fifo import FifoQueue
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.node import Host, Node, Router
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

# A deep default so un-shaped links (host NICs, the non-bottleneck hops)
# never drop: 256 MiB, far above any BDP used in the experiments.
DEFAULT_IFACE_BUFFER_BYTES = 256 * 1024 * 1024


class Network:
    """A simulator plus its nodes and links."""

    def __init__(self, sim: Optional[Simulator] = None, *, seed: int = 0):
        self.sim = sim if sim is not None else Simulator()
        self.rng = RngStreams(seed)
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}

    # -- node management ----------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        return self._add_node(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        """Create and register a router."""
        return self._add_node(Router(self.sim, name))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self.nodes[name]

    # -- wiring ------------------------------------------------------------------

    def connect(
        self,
        a: Interface,
        b: Interface,
        *,
        rate_bps: float,
        delay_ns: int,
        rate_ba_bps: Optional[float] = None,
        qdisc_a: Optional[QueueDiscipline] = None,
        qdisc_b: Optional[QueueDiscipline] = None,
        loss_rate: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Create the duplex link a<->b.  Returns (link a->b, link b->a).

        ``rate_ba_bps`` lets the return direction run at a different speed
        (the bottleneck shaping in the paper applies to one direction only).
        """
        loss_rng = self.rng.stream(f"linkloss:{a.node.name}-{b.node.name}") if loss_rate else None
        link_ab = Link(
            self.sim,
            rate_bps,
            delay_ns,
            b.node.receive,
            name=f"{a.node.name}->{b.node.name}",
            loss_rate=loss_rate,
            loss_rng=loss_rng,
        )
        link_ba = Link(
            self.sim,
            rate_ba_bps if rate_ba_bps is not None else rate_bps,
            delay_ns,
            a.node.receive,
            name=f"{b.node.name}->{a.node.name}",
            loss_rate=loss_rate,
            loss_rng=loss_rng,
        )
        a.attach(link_ab, b, qdisc_a if qdisc_a is not None else FifoQueue(DEFAULT_IFACE_BUFFER_BYTES))
        b.attach(link_ba, a, qdisc_b if qdisc_b is not None else FifoQueue(DEFAULT_IFACE_BUFFER_BYTES))
        self.links[link_ab.name] = link_ab
        self.links[link_ba.name] = link_ba
        return link_ab, link_ba

    def run(self, until_ns: Optional[int] = None) -> None:
        """Run the simulation (delegates to the engine)."""
        self.sim.run(until_ns)
