"""Flight recorder: a bounded ring-buffer tracer.

Long campaign runs cannot afford an unbounded in-memory event list (a
200-second 25G cell generates tens of millions of events).  The
:class:`FlightRecorder` keeps only the last
``capacity`` events — like an aircraft flight recorder, it answers "what
happened just before the failure" — while still counting every event by
kind, and can dump its window as JSONL for post-mortem analysis.

It implements the same ``record(kind, time_ns, **fields)`` protocol as
:class:`~repro.sim.trace.NullTracer`, so any tracer-accepting hook can
take one.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, IO, List, Optional, Tuple, Union

TraceEvent = Tuple[str, int, Dict[str, Any]]


class FlightRecorder:
    """Bounded tracer keeping the most recent ``capacity`` events."""

    __slots__ = ("capacity", "counts", "_ring", "_seq")

    enabled = True

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counts: Counter = Counter()
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._seq = 0  # total events ever recorded

    # -- recording ----------------------------------------------------------------

    def record(self, kind: str, time_ns: int, **fields: Any) -> None:
        """Append one event, evicting the oldest once the ring is full."""
        seq = self._seq
        self._ring[seq % self.capacity] = (kind, time_ns, fields)
        self._seq = seq + 1
        self.counts[kind] += 1

    # -- introspection ------------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including those already evicted."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (oldest-first overwrite)."""
        return max(0, self._seq - self.capacity)

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained window, oldest to newest."""
        seq, cap = self._seq, self.capacity
        if seq <= cap:
            return [ev for ev in self._ring[:seq]]
        head = seq % cap
        return self._ring[head:] + self._ring[:head]  # type: ignore[operator]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Retained events of one kind, in time order."""
        return [ev for ev in self.events if ev[0] == kind]

    def clear(self) -> None:
        """Forget everything (capacity unchanged)."""
        self._ring = [None] * self.capacity
        self._seq = 0
        self.counts.clear()

    # -- export -------------------------------------------------------------------

    def dump_jsonl(self, target: Union[str, IO[str]], *, last: Optional[int] = None) -> int:
        """Write the retained window (optionally only the ``last`` N events)
        as JSONL, one ``{"kind", "time_ns", ...fields}`` object per line in
        time order.  Returns the number of events written."""
        events = self.events
        if last is not None:
            if last < 0:
                raise ValueError(f"last must be >= 0, got {last}")
            events = events[-last:] if last else []
        lines = [
            json.dumps({"kind": kind, "time_ns": time_ns, **fields}, sort_keys=True)
            for kind, time_ns, fields in events
        ]
        payload = "\n".join(lines) + ("\n" if lines else "")
        if hasattr(target, "write"):
            target.write(payload)  # type: ignore[union-attr]
        else:
            with open(target, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
                fh.write(payload)
        return len(lines)
