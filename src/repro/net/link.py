"""Unidirectional point-to-point links.

A :class:`Link` models serialization (``size * 8 / rate``) followed by
propagation delay.  The owning :class:`~repro.net.interface.Interface`
drives it: the link itself is just the timing + delivery piece, plus an
optional random-loss process used by the anomaly-injection experiments the
paper lists as future work.

Links are *mutable at run time* through the ``set_*`` hooks (the
substrate of :mod:`repro.faults`): the rate, propagation delay, and loss
rate may change mid-run, and the link may be administratively downed.
Down semantics are explicit and deterministic: a packet is dropped at
whichever timer hop (serialization completion or propagation arrival)
fires while the link is down, and counted in ``packets_dropped_down``.
A flap shorter than the propagation delay therefore does *not* claw back
packets that already left the wire before the flap ended — the same
behaviour as pulling and re-seating a cable.

Hot-path notes: serialization delays are memoized per packet size (real
traffic has a handful of distinct sizes — MSS-sized data and 60-byte
ACKs), and both timer hops push fire-and-forget heap entries directly
(the inline expansion of :meth:`~repro.sim.engine.Simulator.call_later`),
since link events are never cancelled.  The fault hooks cost the fast
path one slot load (``up``) per timer hop and a single integer bump
(``packets_tx``) per packet — the in-flight count is derived, not
maintained — and everything else happens inside the setters.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER
from repro.units import tx_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream


class Link:
    """One direction of a cable: fixed rate, fixed propagation delay."""

    __slots__ = (
        "sim",
        "rate_bps",
        "delay_ns",
        "deliver",
        "name",
        "up",
        "loss_rate",
        "_loss_rng",
        "_tx_cache",
        "bytes_delivered",
        "packets_delivered",
        "packets_lost",
        "packets_tx",
        "packets_dropped_down",
        "tracer",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay_ns: int,
        deliver: Callable[[Packet], None],
        *,
        name: str = "",
        loss_rate: float = 0.0,
        loss_rng: Optional[Stream] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay_ns}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("a loss_rng is required when loss_rate > 0")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.deliver = deliver
        self.name = name
        self.up = True
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._tx_cache: dict = {}
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        # Conservation counters: every packet handed to transmit() ends up
        # delivered, randomly lost, dropped-while-down, or still in flight.
        # in-flight is derived (tx - terminal outcomes) rather than
        # maintained, so the fast path pays one increment, not three.
        self.packets_tx = 0
        self.packets_dropped_down = 0
        # Flight-recorder hook; only consulted on the (rare) loss path.
        self.tracer = NULL_TRACER

    def tx_time(self, pkt: Packet) -> int:
        """Serialization delay for ``pkt`` in nanoseconds (memoized by size)."""
        size = pkt.size
        tx = self._tx_cache.get(size)
        if tx is None:
            tx = self._tx_cache[size] = tx_time_ns(size, self.rate_bps)
        return tx

    # -- run-time mutation hooks (the repro.faults substrate) ---------------------

    def set_down(self) -> None:
        """Administratively down the link.  Idempotent.

        Packets currently being serialized or propagating are *not*
        removed from the event heap; each is dropped deterministically at
        its next timer hop while the link remains down (see module
        docstring for the exact drain semantics).
        """
        self.up = False

    def set_up(self) -> None:
        """Bring the link back.  Idempotent; forwarding resumes immediately."""
        self.up = True

    def set_rate(self, rate_bps: float) -> None:
        """Change the serialization rate (e.g. a capacity-degradation step).

        Invalidates the memoized per-size serialization delays — without
        this, packets would keep serializing at the old rate.
        """
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._tx_cache.clear()

    def set_delay(self, delay_ns: int) -> None:
        """Change the propagation delay (e.g. a reroute / delay spike).

        Applies to packets entering propagation after the change; packets
        already on the wire keep their original arrival time.
        """
        if delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay_ns}")
        self.delay_ns = int(delay_ns)

    def set_loss_rate(
        self, loss_rate: float, rng: Optional[Stream] = None
    ) -> None:
        """Change the random-loss probability, validating the [0, 1) bound.

        The single sanctioned way to vary loss mid-run: direct attribute
        assignment would bypass both the upper-bound check and the
        RNG-presence check that :meth:`__init__` enforces.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if rng is not None:
            self._loss_rng = rng
        if loss_rate > 0.0 and self._loss_rng is None:
            raise ValueError("a loss rng is required when loss_rate > 0; pass rng=")
        self.loss_rate = loss_rate

    # -- datapath -----------------------------------------------------------------

    def transmit(self, pkt: Packet, on_tx_done: Callable[[], None]) -> None:
        """Serialize ``pkt``, then propagate it to the far end.

        ``on_tx_done`` fires when the last bit leaves the local interface
        (i.e. when the interface may start the next packet); delivery at the
        peer happens ``delay_ns`` later.

        Both timer hops push heap entries directly (the expansion of
        ``sim.call_later``): links schedule two events per packet per hop,
        making this the single busiest scheduling site in the simulator.
        """
        size = pkt.size
        tx = self._tx_cache.get(size)
        if tx is None:
            tx = self._tx_cache[size] = tx_time_ns(size, self.rate_bps)
        self.packets_tx += 1
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim.now + tx, seq, None, self._tx_done, (pkt, on_tx_done)))

    def _tx_done(self, pkt: Packet, on_tx_done: Callable[[], None]) -> None:
        if not self.up:
            self.packets_dropped_down += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "link_down_drop", self.sim.now,
                    link=self.name, point="serialize", flow=pkt.flow_id, seq=pkt.seq,
                )
        elif self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.packets_lost += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "link_loss", self.sim.now,
                    link=self.name, flow=pkt.flow_id, seq=pkt.seq,
                )
        else:
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, (sim.now + self.delay_ns, seq, None, self._deliver, (pkt,)))
        on_tx_done()

    def _deliver(self, pkt: Packet) -> None:
        if not self.up:
            self.packets_dropped_down += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "link_down_drop", self.sim.now,
                    link=self.name, point="propagate", flow=pkt.flow_id, seq=pkt.seq,
                )
            return
        self.bytes_delivered += pkt.size
        self.packets_delivered += 1
        self.deliver(pkt)

    @property
    def packets_in_flight(self) -> int:
        """Packets handed to :meth:`transmit` that have not yet reached a
        terminal outcome (delivered, randomly lost, or dropped-while-down).
        ``packets_tx == delivered + lost + dropped_down + in_flight`` holds
        by construction; the chaos property tests assert the stronger
        quiescence form (``in_flight == 0`` once the event heap drains)."""
        return (
            self.packets_tx
            - self.packets_delivered
            - self.packets_lost
            - self.packets_dropped_down
        )

    def telemetry(self) -> dict:
        """Delivery/loss counters for the observability layer (pull-based)."""
        return {
            "name": self.name,
            "rate_bps": self.rate_bps,
            "up": self.up,
            "bytes_delivered": self.bytes_delivered,
            "packets_delivered": self.packets_delivered,
            "packets_lost": self.packets_lost,
            "packets_tx": self.packets_tx,
            "packets_in_flight": self.packets_in_flight,
            "packets_dropped_down": self.packets_dropped_down,
        }
