"""`tc`-style traffic-control facade.

The paper configures the bottleneck with the Linux Traffic Control tool:
AQM type, queue length, and transmission rate on router1's interface
toward router2.  :class:`TrafficControl` mirrors that workflow against a
simulated interface: ``qdisc_replace`` swaps the queue discipline and
records the textual command an operator would have run (handy in logs and
tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.aqm.registry import make_aqm
from repro.net.interface import Interface
from repro.units import format_rate

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream


class TrafficControl:
    """Apply qdisc configurations to simulated interfaces, tc-style."""

    def __init__(self, rng: Optional[Stream] = None):
        self.rng = rng
        self.history: List[str] = []

    def qdisc_replace(
        self,
        iface: Interface,
        aqm: str,
        *,
        limit_bytes: int,
        mtu_bytes: int = 1500,
        ecn_mode: bool = False,
        **aqm_params,
    ) -> None:
        """The `tc qdisc replace dev <iface> root <aqm> ...` analogue."""
        bandwidth = iface.link.rate_bps if iface.link is not None else None
        qdisc = make_aqm(
            aqm,
            limit_bytes,
            rng=self.rng,
            mtu_bytes=mtu_bytes,
            bandwidth_bps=bandwidth,
            ecn_mode=ecn_mode,
            **aqm_params,
        )
        iface.set_qdisc(qdisc)
        rate = format_rate(bandwidth) if bandwidth else "?"
        self.history.append(
            f"tc qdisc replace dev {iface.node.name}:{iface.name} root "
            f"{aqm} limit {limit_bytes}b  # link rate {rate}"
        )
