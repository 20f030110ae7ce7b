"""Mice: short commercial-style flows mixed in with the elephants.

The paper's motivation contrasts science networks ("elephant flows are
very common ... which is not as common in commercial networks") with
commercial traffic.  :class:`PoissonMice` generates that commercial
background: short fixed-size transfers arriving as a Poisson process,
each a complete TCP connection.  Mixing them with elephant flows
exercises exactly the property FQ_CoDel's new-queue priority exists for
— sparse flows finishing fast regardless of the elephants' buffer
occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.cca.registry import make_cca
from repro.net.node import Host
from repro.sim.engine import Simulator
from repro.tcp.connection import Connection, open_connection
from repro.units import NS_PER_SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream


@dataclass
class MouseRecord:
    """Outcome of one short transfer."""

    flow_id: int
    start_ns: int
    size_segments: int
    #: Completion time (ns since start), or None if unfinished at stop.
    fct_ns: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.fct_ns is not None


class PoissonMice:
    """Spawn ``size_segments``-long flows at ``rate_per_s`` (Poisson)."""

    def __init__(
        self,
        src: Host,
        dst: Host,
        *,
        rate_per_s: float,
        size_segments: int,
        mss: int,
        rng: Stream,
        cca: str = "cubic",
        max_flows: Optional[int] = None,
    ):
        if rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
        if size_segments <= 0:
            raise ValueError(f"flow size must be positive, got {size_segments}")
        self.src = src
        self.dst = dst
        self.sim: Simulator = src.sim
        self.rate_per_s = rate_per_s
        self.size_segments = size_segments
        self.mss = mss
        self.rng = rng
        self.cca = cca
        self.max_flows = max_flows
        self.records: List[MouseRecord] = []
        self._live: List[Connection] = []
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Arm the Poisson arrival process."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop spawning and halt unfinished mice."""
        self._stopped = True
        for conn in self._live:
            conn.stop()

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        if self.max_flows is not None and len(self.records) >= self.max_flows:
            return
        gap_ns = int(self.rng.exponential(1.0 / self.rate_per_s) * NS_PER_SEC)
        self.sim.schedule(max(1, gap_ns), self._spawn)

    def _spawn(self) -> None:
        if self._stopped:
            return
        conn = open_connection(
            self.src, self.dst, make_cca(self.cca, self.rng),
            mss=self.mss, total_segments=self.size_segments,
        )
        record = MouseRecord(
            flow_id=conn.flow_id, start_ns=self.sim.now, size_segments=self.size_segments
        )
        self.records.append(record)
        self._live.append(conn)
        self._watch(conn, record)
        conn.start()
        self._schedule_next()

    def _watch(self, conn: Connection, record: MouseRecord) -> None:
        """Poll for completion (cheap: one event per 10 ms per live mouse)."""
        if conn.sender.done:
            record.fct_ns = self.sim.now - record.start_ns
            self._live.remove(conn)
            conn.stop()
            return
        if not self._stopped:
            self.sim.schedule(10_000_000, self._watch, conn, record)

    # -- results -----------------------------------------------------------------

    @property
    def completed(self) -> List[MouseRecord]:
        return [r for r in self.records if r.completed]

    def fct_stats_ns(self) -> dict:
        """Flow-completion-time summary over completed mice."""
        fcts = sorted(r.fct_ns for r in self.completed)
        if not fcts:
            return {"count": 0}
        return {
            "count": len(fcts),
            "mean": sum(fcts) / len(fcts),
            "p50": fcts[len(fcts) // 2],
            "p95": fcts[min(len(fcts) - 1, int(len(fcts) * 0.95))],
            "max": fcts[-1],
        }
