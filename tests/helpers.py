"""Shared test harnesses.

``LoopbackNet`` wires a TCP sender and receiver directly through the
simulator with a configurable one-way delay, an optional bottleneck rate,
and a programmable drop hook — the minimal environment for exercising the
sender/receiver state machines without standing up a full topology.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import Any, Callable, Optional

import repro
from repro.cca.base import CongestionControl
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.units import milliseconds, tx_time_ns

#: The directory ``repro`` is imported from, for child interpreters.
SRC_DIR = Path(repro.__file__).resolve().parents[1]


class LoopbackNet:
    """Sender -> (drop hook, serialization, delay) -> receiver -> ACKs back."""

    def __init__(
        self,
        *,
        cca: CongestionControl,
        mss: int = 1500,
        one_way_delay_ns: int = milliseconds(10),
        data_rate_bps: Optional[float] = None,
        queue_limit_pkts: Optional[int] = None,
        drop_data: Optional[Callable[[Packet], bool]] = None,
        drop_ack: Optional[Callable[[Packet], bool]] = None,
        total_segments: Optional[int] = None,
        ack_every: int = 1,
    ):
        self.sim = Simulator()
        self.delay = one_way_delay_ns
        self.rate = data_rate_bps
        self.queue_limit = queue_limit_pkts
        self.drop_data = drop_data
        self.drop_ack = drop_ack
        self.data_drops = 0
        self.ack_drops = 0
        self.queue_drops = 0
        self._queue: deque = deque()
        self._busy = False

        self.sender = TcpSender(
            self.sim, 1, "10.0.0.1", "10.0.0.2", self._send_data, cca,
            mss=mss, total_segments=total_segments,
        )
        self.receiver = TcpReceiver(
            1, "10.0.0.2", "10.0.0.1", self._send_ack, lambda: self.sim.now,
            mss=mss, ack_every=ack_every,
        )

    # -- forward path (data) --------------------------------------------------------

    def _send_data(self, pkt: Packet) -> None:
        if self.drop_data is not None and self.drop_data(pkt):
            self.data_drops += 1
            return
        if self.rate is None:
            self.sim.schedule(self.delay, self.receiver.handle_packet, pkt)
            return
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit and self._busy:
            self.queue_drops += 1
            return
        self._queue.append(pkt)
        if not self._busy:
            self._pump()

    def _pump(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        pkt = self._queue.popleft()
        tx = tx_time_ns(pkt.size, self.rate)
        self.sim.schedule(tx, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self.sim.schedule(self.delay, self.receiver.handle_packet, pkt)
        self._pump()

    # -- reverse path (ACKs) ----------------------------------------------------------

    def _send_ack(self, pkt: Packet) -> None:
        if self.drop_ack is not None and self.drop_ack(pkt):
            self.ack_drops += 1
            return
        self.sim.schedule(self.delay, self.sender.handle_packet, pkt)

    # -- driving ---------------------------------------------------------------------

    def run(self, duration_ns: int) -> None:
        self.sim.run(self.sim.now + duration_ns)

    def start(self, delay_ns: int = 0) -> None:
        self.sender.start(delay_ns)


# --- golden-trace fixtures ---------------------------------------------------
#
# Pinned-seed configs whose full ExperimentResult dicts are frozen under
# tests/fixtures/golden/.  One per AQM on the packet engine plus one fluid
# run, so a hot-path "optimization" that changes any simulated outcome —
# a drop, a mark, one segment — fails the exact-match test.  Regenerate
# (only after an *intended* behavior change) with:
#
#     PYTHONPATH=src python tests/fixtures/golden/regen.py

GOLDEN_CONFIGS = {
    "packet_fifo": dict(
        cca_pair=("cubic", "reno"), aqm="fifo", engine="packet"),
    "packet_red": dict(
        cca_pair=("bbrv1", "cubic"), aqm="red", engine="packet"),
    "packet_codel": dict(
        cca_pair=("cubic", "cubic"), aqm="codel", engine="packet"),
    "packet_fq_codel": dict(
        cca_pair=("bbrv2", "cubic"), aqm="fq_codel", engine="packet"),
    "packet_pie": dict(
        cca_pair=("htcp", "cubic"), aqm="pie", engine="packet"),
    "fluid_fifo": dict(
        cca_pair=("cubic", "cubic"), aqm="fifo", engine="fluid",
        bottleneck_bw_bps=500e6, duration_s=10.0),
    # Batched fluid backend, one fixture per AQM family.  These must stay
    # bit-identical to the scalar fluid engine on the same config (the
    # cross-validation suite asserts it pairwise; the goldens pin the
    # absolute values so both engines can't drift together unnoticed).
    "batched_fifo": dict(
        cca_pair=("cubic", "cubic"), aqm="fifo", engine="fluid_batched",
        bottleneck_bw_bps=500e6, duration_s=10.0),
    "batched_red": dict(
        cca_pair=("bbrv1", "cubic"), aqm="red", engine="fluid_batched",
        bottleneck_bw_bps=500e6, duration_s=10.0),
    "batched_fq_codel": dict(
        cca_pair=("bbrv2", "cubic"), aqm="fq_codel", engine="fluid_batched",
        bottleneck_bw_bps=500e6, duration_s=10.0),
    "batched_pie": dict(
        cca_pair=("htcp", "reno"), aqm="pie", engine="fluid_batched",
        bottleneck_bw_bps=500e6, duration_s=10.0),
    # Pinned fault scenarios: the full result dict — including the fault
    # audit trail in extra["faults"] — must stay bit-identical, so any
    # change to fault compilation, firing order, or the drain-on-down
    # semantics fails the exact-match test.
    "packet_fault_flap": dict(
        cca_pair=("cubic", "cubic"), aqm="fifo", engine="packet",
        bottleneck_bw_bps=10e6, duration_s=15.0,
        faults=[dict(kind="link_flap", at_s=10.0, duration_s=1.0)]),
    "packet_fault_lossburst": dict(
        cca_pair=("cubic", "reno"), aqm="fifo", engine="packet",
        bottleneck_bw_bps=10e6, duration_s=15.0,
        faults=[dict(kind="loss_burst", at_s=5.0, duration_s=5.0, loss_rate=0.01)]),
}

GOLDEN_DEFAULTS = dict(
    bottleneck_bw_bps=50e6,
    buffer_bdp=2.0,
    duration_s=3.0,
    mss_bytes=1500,
    seed=7,
    flows_per_node=1,
)


def golden_config(name: str):
    """Build the pinned ExperimentConfig for one golden fixture."""
    from repro.experiments.config import ExperimentConfig

    params = {**GOLDEN_DEFAULTS, **GOLDEN_CONFIGS[name]}
    return ExperimentConfig(**params)


def golden_result_dict(name: str) -> dict:
    """Run one golden config and return its normalized result dict.

    ``flows`` is presented as the table's per-flow records, the layout the
    fixtures were frozen in, so every per-flow value is still compared."""
    from repro.experiments.runner import run_experiment

    result = run_experiment(golden_config(name))
    d = result.to_dict()
    d["flows"] = result.flows.records()
    d.pop("wallclock_s", None)  # host-dependent, never comparable
    return d


def drop_seqs(*seqs: int) -> Callable[[Packet], bool]:
    """Drop hook dropping the FIRST transmission of the given seqs."""
    pending = set(seqs)

    def hook(pkt: Packet) -> bool:
        if pkt.seq in pending and not pkt.is_retx:
            pending.discard(pkt.seq)
            return True
        return False

    return hook


def run_fresh(code: str) -> Any:
    """Run ``code`` in a new interpreter that imports this checkout's
    ``repro`` and nothing else yet; returns the JSON its last stdout line
    holds.  What a module loads is only visible in such a process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- work-queue forging --------------------------------------------------------
#
# The only place tests know the queue's on-disk layout (one append-only
# ``journal.jsonl`` of claim / release / done records, see
# repro.experiments.queue): tests forge and inspect queue state through these.


def forge_claim(queue_dir, task_id: str, *, pid: int, host: str) -> None:
    """Append a claim of ``task_id`` by ``pid`` on ``host`` to the queue's
    journal, as a worker that then died (or lives elsewhere) would have."""
    record = {"op": "claim", "task": task_id, "pid": pid, "host": host}
    with (Path(queue_dir) / "journal.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def done_records(queue_dir) -> list:
    """Every done record in the queue's journal, in order: dicts with the
    ``task`` id and its ``results`` and ``failures`` counts."""
    journal = Path(queue_dir) / "journal.jsonl"
    if not journal.exists():
        return []
    records = []
    for line in journal.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a torn record
        if record["op"] == "done":
            records.append({k: record[k] for k in ("task", "results", "failures")})
    return records
