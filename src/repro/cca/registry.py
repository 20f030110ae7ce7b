"""CCA factory keyed by the paper's algorithm names."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.cca.base import CongestionControl
from repro.cca.bbrv1 import BbrV1
from repro.cca.bbrv2 import BbrV2
from repro.cca.cubic import Cubic
from repro.cca.htcp import HTcp
from repro.cca.reno import Reno
from repro.experiments.config import CCA_NAMES, canonical_cca_name

if TYPE_CHECKING:
    from repro.sim.rng import Stream

#: One factory per canonical name (:data:`CCA_NAMES`).
_FACTORIES: Dict[str, Callable[[Optional[Stream]], CongestionControl]] = {
    "reno": lambda rng: Reno(),
    "cubic": lambda rng: Cubic(),
    "htcp": lambda rng: HTcp(),
    "bbrv1": lambda rng: BbrV1(rng),
    "bbrv2": lambda rng: BbrV2(rng),
}


def make_cca(name: str, rng: Optional[Stream] = None) -> CongestionControl:
    """Instantiate the congestion controller called ``name`` (or an alias)."""
    return _FACTORIES[canonical_cca_name(name)](rng)
