"""A FABlib-style slice builder.

The paper provisions its topology with FABRIC's FABlib Python API
("everywhere programmability": nodes, NICs and L2 networks as Python
objects, then ``slice.submit()``).  This module mirrors that workflow on
top of the simulator, so the orchestration notebook's structure carries
over almost line for line — see ``examples/fabric_notebook.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.address import Subnet
from repro.net.topology import Network
from repro.testbed.sites import SITES, hop_one_way_delay_ns
from repro.units import gbps


@dataclass
class NicSpec:
    """A requested NIC component (e.g. ConnectX-5 at 25 Gbps)."""

    name: str
    model: str = "NIC_ConnectX_5"
    rate_bps: float = gbps(25)


@dataclass
class NodeSpec:
    """A requested VM."""

    name: str
    site: str
    cores: int = 26
    ram_gb: int = 32
    disk_gb: int = 100
    routing: bool = False
    nics: List[NicSpec] = field(default_factory=list)

    def add_component(self, model: str, name: str, rate_bps: float = gbps(25)) -> NicSpec:
        """Attach a NIC component (FABlib naming)."""
        nic = NicSpec(name=name, model=model, rate_bps=rate_bps)
        self.nics.append(nic)
        return nic


@dataclass
class NetworkServiceSpec:
    """An L2 point-to-point service between two node NICs."""

    name: str
    endpoints: Tuple[Tuple[str, str], Tuple[str, str]]  # ((node, nic), (node, nic))
    subnet: Optional[Subnet] = None


class Slice:
    """A FABRIC slice under construction."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: Dict[str, NodeSpec] = {}
        self.services: List[NetworkServiceSpec] = []
        self._submitted: Optional[Network] = None

    # -- FABlib-style builder API ---------------------------------------------------

    def add_node(self, name: str, site: str, *, cores: int = 26, ram: int = 32, disk: int = 100, routing: bool = False) -> NodeSpec:
        """Request a VM at a FABRIC site."""
        if site not in SITES:
            raise ValueError(f"unknown FABRIC site {site!r}; have {sorted(SITES)}")
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        spec = NodeSpec(name=name, site=site, cores=cores, ram_gb=ram, disk_gb=disk, routing=routing)
        self.nodes[name] = spec
        return spec

    def add_l2network(self, name: str, endpoints: Tuple[Tuple[str, str], Tuple[str, str]], subnet: str) -> NetworkServiceSpec:
        """Request an L2 point-to-point service between two NICs."""
        for node_name, nic_name in endpoints:
            spec = self.nodes.get(node_name)
            if spec is None:
                raise ValueError(f"service {name!r} references unknown node {node_name!r}")
            if not any(nic.name == nic_name for nic in spec.nics):
                raise ValueError(f"node {node_name!r} has no NIC {nic_name!r}")
        service = NetworkServiceSpec(name=name, endpoints=endpoints, subnet=Subnet(subnet))
        self.services.append(service)
        return service

    # -- materialization --------------------------------------------------------------

    def submit(self, *, seed: int = 0) -> Network:
        """Instantiate the slice as a simulated network.

        Each L2 service becomes a duplex link whose propagation delay is
        the inter-site distance of its endpoints; endpoint addresses are
        assigned from the service subnet in declaration order.
        """
        if self._submitted is not None:
            raise RuntimeError(f"slice {self.name!r} was already submitted")
        net = Network(seed=seed)
        built: Dict[str, object] = {}
        for spec in self.nodes.values():
            node = net.add_router(spec.name) if spec.routing else net.add_host(spec.name)
            built[spec.name] = node
        for service in self.services:
            (n1, nic1), (n2, nic2) = service.endpoints
            spec1, spec2 = self.nodes[n1], self.nodes[n2]
            rate = min(
                next(n.rate_bps for n in spec1.nics if n.name == nic1),
                next(n.rate_bps for n in spec2.nics if n.name == nic2),
            )
            if spec1.site == spec2.site:
                delay = 0
            else:
                delay = hop_one_way_delay_ns(spec1.site, spec2.site)
            iface1 = built[n1].add_interface(nic1, service.subnet.address(1))
            iface2 = built[n2].add_interface(nic2, service.subnet.address(2))
            net.connect(iface1, iface2, rate_bps=rate, delay_ns=delay)
        self._submitted = net
        return net

    def get_network(self) -> Network:
        """The materialized network (submit() must have run)."""
        if self._submitted is None:
            raise RuntimeError("slice has not been submitted yet")
        return self._submitted


class FablibManager:
    """Entry point, as in `fablib = FablibManager()`."""

    def __init__(self) -> None:
        self.slices: Dict[str, Slice] = {}

    def new_slice(self, name: str) -> Slice:
        """Create a slice under construction."""
        if name in self.slices:
            raise ValueError(f"slice {name!r} already exists")
        sl = Slice(name)
        self.slices[name] = sl
        return sl

    def get_slice(self, name: str) -> Slice:
        """Look up a previously created slice."""
        try:
            return self.slices[name]
        except KeyError:
            raise KeyError(f"no slice named {name!r}") from None
