"""The SACK scoreboard (RFC 6675-style).

Tracks, per outstanding segment: the rate-sampling snapshot taken at send
time, whether it has been SACKed, whether it is deemed lost, and how many
copies are in flight.  ``pipe`` (the estimate of data outstanding in the
network) is maintained incrementally as the sum of in-flight copies — the
invariant the property-based tests in ``tests/tcp/test_sack.py`` hammer.

Loss marking uses the classic duplicate threshold: a segment is lost once
``dupthresh`` (3) segments above it have been SACKed.  A scan pointer
guarantees each sequence number is classified at most once per epoch, so
per-ACK work stays proportional to what the ACK actually acknowledged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.tcp.rate_sample import SegmentSendState

DUPTHRESH = 3


class SegEntry:
    """Scoreboard state for one outstanding segment."""

    __slots__ = ("send_state", "sacked", "lost", "retx_count", "copies")

    def __init__(self, send_state: SegmentSendState):
        self.send_state = send_state
        self.sacked = False
        self.lost = False
        self.retx_count = 0
        self.copies = 1  # transmissions currently presumed in flight


class Scoreboard:
    """Per-connection retransmission bookkeeping."""

    def __init__(self, dupthresh: int = DUPTHRESH):
        if dupthresh < 1:
            raise ValueError(f"dupthresh must be >= 1, got {dupthresh}")
        self.dupthresh = dupthresh
        self.entries: Dict[int, SegEntry] = {}
        self.pipe = 0  # segments in flight (sum of copies)
        self.high_sacked = -1
        self.sacked_count = 0
        self._loss_scan = 0
        self._retx_queue: Deque[int] = deque()
        # Disjoint sorted coverage of seq ranges already processed by
        # apply_sacks (parallel start/end lists, ranges half-open).  SACK
        # blocks repeat the same ranges on every ACK until the hole fills
        # (RFC 2018); per-ACK work must only touch the *new* parts.  A
        # covered seq can never need re-processing: only apply_sacks sets
        # ``sacked``, cumulative removal never resurrects an entry, and new
        # segments are always registered at/above snd_nxt, which bounds all
        # prior coverage.
        self._cov_starts: List[int] = []
        self._cov_ends: List[int] = []

    # -- transmission ------------------------------------------------------------

    def register_send(self, seq: int, send_state: SegmentSendState) -> None:
        """A brand-new segment entered the network."""
        if seq in self.entries:
            raise ValueError(f"segment {seq} already registered")
        self.entries[seq] = SegEntry(send_state)
        self.pipe += 1

    def register_retx(self, seq: int, send_state: SegmentSendState) -> None:
        """A lost segment was retransmitted (one more copy in flight)."""
        entry = self.entries[seq]
        entry.copies += 1
        entry.retx_count += 1
        entry.send_state = send_state
        self.pipe += 1

    # -- acknowledgement ------------------------------------------------------------

    def cumulative_ack(self, old_una: int, new_una: int) -> List[SegmentSendState]:
        """Remove segments below ``new_una``; return newly delivered send-states."""
        delivered: List[SegmentSendState] = []
        for seq in range(old_una, new_una):
            entry = self.entries.pop(seq, None)
            if entry is None:
                continue
            if entry.sacked:
                self.sacked_count -= 1
            else:
                delivered.append(entry.send_state)
            self.pipe -= entry.copies
        if self._loss_scan < new_una:
            self._loss_scan = new_una
        # Coverage below the new cumulative ack can never be consulted
        # again (blocks are clamped to snd_una); prune to keep the bisects
        # over a handful of ranges.
        ends = self._cov_ends
        if ends and ends[0] <= new_una:
            starts = self._cov_starts
            while ends and ends[0] <= new_una:
                del starts[0]
                del ends[0]
        return delivered

    def _cover_add(self, lo: int, hi: int) -> None:
        """Merge the half-open range [lo, hi) into the processed coverage."""
        starts, ends = self._cov_starts, self._cov_ends
        i = bisect_left(starts, lo)
        if i > 0 and ends[i - 1] >= lo:
            i -= 1
            lo = starts[i]
            if ends[i] > hi:
                hi = ends[i]
        j = i
        n = len(starts)
        while j < n and starts[j] <= hi:
            if ends[j] > hi:
                hi = ends[j]
            j += 1
        starts[i:j] = [lo]
        ends[i:j] = [hi]

    def apply_sacks(
        self, sacks: Tuple[Tuple[int, int], ...], snd_una: int, snd_nxt: int
    ) -> List[SegmentSendState]:
        """Process SACK blocks; return send-states of newly SACKed segments."""
        delivered: List[SegmentSendState] = []
        if not sacks:
            return delivered
        entries_get = self.entries.get
        starts, ends = self._cov_starts, self._cov_ends
        for start, end in sacks:
            lo = start if start > snd_una else snd_una
            hi = end if end < snd_nxt else snd_nxt
            if lo >= hi:
                continue
            # Walk only the uncovered gaps of [lo, hi); ascending order, so
            # newly SACKed segments are delivered exactly as a full scan
            # would produce them.
            pos = lo
            i = bisect_right(starts, pos) - 1
            if i >= 0 and ends[i] > pos:
                pos = ends[i]
            i += 1
            n = len(starts)
            while pos < hi:
                gap_end = starts[i] if i < n and starts[i] < hi else hi
                for seq in range(pos, gap_end):
                    entry = entries_get(seq)
                    if entry is None or entry.sacked:
                        continue
                    entry.sacked = True
                    self.sacked_count += 1
                    self.pipe -= entry.copies
                    entry.copies = 0
                    delivered.append(entry.send_state)
                    if seq > self.high_sacked:
                        self.high_sacked = seq
                if i < n and starts[i] < hi:
                    pos = ends[i]
                    i += 1
                else:
                    break
            self._cover_add(lo, hi)
        return delivered

    # -- loss detection ------------------------------------------------------------

    def mark_losses(self, snd_una: int) -> int:
        """Classify segments below ``high_sacked - dupthresh + 1`` as lost.

        Returns the number of segments newly marked lost.
        """
        limit = self.high_sacked - self.dupthresh + 1  # seqs < limit+... seq <= high_sacked - dupthresh
        newly_lost = 0
        scan_from = max(self._loss_scan, snd_una)
        for seq in range(scan_from, limit):
            entry = self.entries.get(seq)
            if entry is None or entry.sacked or entry.lost:
                continue
            entry.lost = True
            self.pipe -= entry.copies
            entry.copies = 0
            self._retx_queue.append(seq)
            newly_lost += 1
        if limit > self._loss_scan:
            self._loss_scan = limit
        return newly_lost

    def on_rto(self, snd_una: int, snd_nxt: int) -> None:
        """Everything un-SACKed is presumed lost; nothing is in flight."""
        self._retx_queue.clear()
        for seq in range(snd_una, snd_nxt):
            entry = self.entries.get(seq)
            if entry is None or entry.sacked:
                continue
            entry.lost = True
            entry.copies = 0
            self._retx_queue.append(seq)
        self.pipe = 0
        self._loss_scan = snd_una

    # -- retransmission scheduling ------------------------------------------------------

    def next_retx(self, snd_una: int) -> Optional[int]:
        """Pop the lowest lost segment that still needs a retransmission."""
        queue = self._retx_queue
        while queue:
            seq = queue[0]
            entry = self.entries.get(seq)
            if seq < snd_una or entry is None or entry.sacked or not entry.lost or entry.copies > 0:
                queue.popleft()
                continue
            queue.popleft()
            return seq
        return None

    def requeue_retx(self, seq: int) -> None:
        """Put back a retransmission candidate obtained from :meth:`next_retx`."""
        self._retx_queue.appendleft(seq)

    @property
    def outstanding(self) -> int:
        """Number of scoreboard entries (segments not yet cumulatively acked)."""
        return len(self.entries)
