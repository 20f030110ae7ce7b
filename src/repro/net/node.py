"""Nodes: hosts terminate TCP flows, routers forward packets.

A :class:`Host` keeps a flow-id dispatch table — arriving segments are
handed to the registered endpoint (a TCP sender for ACKs, a TCP receiver
for data).  A :class:`Router` enables packet forwarding via its static
:class:`~repro.net.routing.RoutingTable`, mirroring the paper's setup
("we enabled packet forwarding on the routing nodes and introduced static
routing rules from and to all subnets").
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.net.address import IPv4Address, Subnet
from repro.net.interface import Interface
from repro.net.packet import Packet, free_packet
from repro.net.routing import RoutingTable
from repro.sim.engine import Simulator


class FlowEndpoint(Protocol):
    """Anything that can consume packets addressed to it (TCP sender/receiver)."""

    def handle_packet(self, pkt: Packet) -> None:
        """Consume one packet addressed to this endpoint."""
        ...


class Node:
    """Common behaviour: named, owns interfaces."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}

    def add_interface(self, name: str, address: Optional[IPv4Address] = None) -> Interface:
        """Create and register a named interface on this node."""
        if name in self.interfaces:
            raise ValueError(f"{self.name} already has an interface {name!r}")
        iface = Interface(self, name, address)
        self.interfaces[name] = iface
        return iface

    def receive(self, pkt: Packet, iface: Optional[Interface] = None) -> None:
        """Handle a packet delivered by ``iface`` (optional; both node
        kinds dispatch on the packet alone)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end system: packets terminate here, dispatched per flow id."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._endpoints: Dict[int, FlowEndpoint] = {}
        # Prebound dict.get: stays valid because _endpoints is only ever
        # mutated in place.
        self._endpoint_for = self._endpoints.get
        self.packets_received = 0
        self.packets_unroutable = 0

    def register_endpoint(self, flow_id: int, endpoint: FlowEndpoint) -> None:
        """Bind a TCP endpoint to ``flow_id`` on this host."""
        if flow_id in self._endpoints:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._endpoints[flow_id] = endpoint

    def unregister_endpoint(self, flow_id: int) -> None:
        """Remove a flow binding (idempotent)."""
        self._endpoints.pop(flow_id, None)

    def receive(self, pkt: Packet, iface: Optional[Interface] = None) -> None:
        self.packets_received += 1
        endpoint = self._endpoint_for(pkt.flow_id)
        if endpoint is None:
            self.packets_unroutable += 1
            return
        endpoint.handle_packet(pkt)
        # Every packet terminates here; endpoints never retain the object,
        # so it can be recycled for the next factory allocation.
        free_packet(pkt)

    def primary_interface(self) -> Interface:
        """The single data interface of a paper-style host (one NIC per node)."""
        if len(self.interfaces) != 1:
            raise RuntimeError(
                f"{self.name} has {len(self.interfaces)} interfaces; "
                "primary_interface() needs exactly one"
            )
        return next(iter(self.interfaces.values()))


class Router(Node):
    """A store-and-forward router with static routes."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.routing_table = RoutingTable()
        # The table's exact-address result cache, shared by reference so the
        # per-packet fast path below skips a method call.  add_route()
        # clears it in place, which keeps this alias valid.
        self._route_cache = self.routing_table._cache
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    def add_route(self, subnet: Subnet, via: Interface) -> None:
        """Install a static route out a local interface."""
        if via.node is not self:
            raise ValueError(f"route must egress a local interface, got {via}")
        self.routing_table.add_route(subnet, via)

    def receive(self, pkt: Packet, iface: Optional[Interface] = None) -> None:
        dst = pkt.dst
        egress = self._route_cache.get(dst.value)
        if egress is None:
            egress = self.routing_table.lookup(dst)
            if egress is None:
                self.packets_unroutable += 1
                return
        self.packets_forwarded += 1
        egress.send(pkt)
