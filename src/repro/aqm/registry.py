"""Factory mapping the paper's AQM names to queue disciplines."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.aqm.base import QueueDiscipline
from repro.aqm.codel import CoDelQueue
from repro.aqm.fifo import FifoQueue
from repro.aqm.fq_codel import FqCoDelQueue
from repro.aqm.pie import PieQueue
from repro.aqm.red import RedQueue
from repro.experiments.config import AQM_NAMES

if TYPE_CHECKING:
    from repro.sim.rng import Stream


def make_aqm(
    name: str,
    limit_bytes: int,
    *,
    rng: Optional[Stream] = None,
    mtu_bytes: int = 1500,
    bandwidth_bps: Optional[float] = None,
    ecn_mode: bool = False,
    **kwargs,
) -> QueueDiscipline:
    """Build the AQM called ``name`` (one of :data:`AQM_NAMES`).

    ``kwargs`` are forwarded to the discipline constructor, so callers can
    override thresholds (used by the RED-tuning ablation).
    """
    key = name.lower()
    if key == "fifo":
        return FifoQueue(limit_bytes, ecn_mode=ecn_mode, **kwargs)
    if key == "red":
        if rng is None:
            raise ValueError("RED needs an rng (pass rng=...)")
        return RedQueue(
            limit_bytes,
            rng,
            avpkt=kwargs.pop("avpkt", mtu_bytes),
            bandwidth_bps=bandwidth_bps,
            ecn_mode=ecn_mode,
            **kwargs,
        )
    if key == "fq_codel":
        return FqCoDelQueue(
            limit_bytes,
            rng,
            quantum_bytes=kwargs.pop("quantum_bytes", mtu_bytes),
            mtu_bytes=mtu_bytes,
            ecn_mode=ecn_mode,
            **kwargs,
        )
    if key == "codel":
        return CoDelQueue(limit_bytes, mtu_bytes=mtu_bytes, ecn_mode=ecn_mode, **kwargs)
    if key == "pie":
        if rng is None:
            raise ValueError("PIE needs an rng (pass rng=...)")
        return PieQueue(limit_bytes, rng, ecn_mode=ecn_mode, **kwargs)
    raise ValueError(f"unknown AQM {name!r}; expected one of {AQM_NAMES}")
