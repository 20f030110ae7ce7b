"""FaultSchedule: compilation, arming on a dumbbell, firing semantics."""

import pytest

from repro.faults.schedule import FaultSchedule, resolve_dumbbell_target
from repro.faults.spec import FaultSpec
from repro.sim.rng import RngStreams
from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
from repro.units import mbps, seconds


def _dumbbell(**over):
    params = dict(bottleneck_bw_bps=mbps(10), buffer_bdp=2.0, mss_bytes=1500, seed=11)
    params.update(over)
    return build_dumbbell(DumbbellConfig(**params))


# -- compilation ------------------------------------------------------------------


def test_compile_expands_onset_and_restore_pairs():
    sched = FaultSchedule.compile(
        [FaultSpec(kind="link_flap", at_s=10.0, duration_s=2.0)]
    )
    assert [(e.time_ns, e.action) for e in sched.events] == [
        (seconds(10), "link_down"),
        (seconds(12), "link_up"),
    ]


def test_compile_queue_flush_is_single_event():
    sched = FaultSchedule.compile([FaultSpec(kind="queue_flush", at_s=8.0)])
    assert [(e.time_ns, e.action) for e in sched.events] == [(seconds(8), "queue_flush")]


def test_compile_sorts_by_time_with_stable_ties():
    sched = FaultSchedule.compile(
        [
            FaultSpec(kind="rate_drop", at_s=5.0, duration_s=5.0, rate_factor=0.5),
            FaultSpec(kind="loss_burst", at_s=2.0, duration_s=3.0, loss_rate=0.1),
            FaultSpec(kind="queue_flush", at_s=5.0),
        ]
    )
    assert [(e.time_ns, e.action, e.spec_index) for e in sched.events] == [
        (seconds(2), "loss_set", 1),
        (seconds(5), "rate_scale", 0),  # declaration order wins the t=5 tie
        (seconds(5), "loss_restore", 1),
        (seconds(5), "queue_flush", 2),
        (seconds(10), "rate_restore", 0),
    ]


def test_compile_jitter_needs_rng():
    spec = FaultSpec(kind="queue_flush", at_s=1.0, jitter_s=0.5)
    with pytest.raises(ValueError, match="jitter"):
        FaultSchedule.compile([spec])


def test_compile_jitter_is_seed_deterministic():
    spec = FaultSpec(kind="link_flap", at_s=1.0, duration_s=1.0, jitter_s=0.5)
    a = FaultSchedule.compile([spec], rng=RngStreams(3).stream("faults"))
    b = FaultSchedule.compile([spec], rng=RngStreams(3).stream("faults"))
    c = FaultSchedule.compile([spec], rng=RngStreams(4).stream("faults"))
    assert a.manifest() == b.manifest()
    assert a.manifest() != c.manifest()
    onset = a.events[0].time_ns
    assert seconds(1) <= onset <= seconds(1.5)
    # Jittered or not, the flap keeps its configured duration.
    assert a.events[1].time_ns - onset == seconds(1)


def test_from_config_none_when_empty():
    class Cfg:
        faults = []

    assert FaultSchedule.from_config(Cfg()) is None


# -- target resolution ------------------------------------------------------------


def test_resolve_symbolic_and_raw_targets():
    db = _dumbbell()
    sym = resolve_dumbbell_target(db, "bottleneck")
    raw = resolve_dumbbell_target(db, "router1->router2")
    assert sym.link is raw.link is db.bottleneck_link
    assert sym.iface is not None
    assert sym.iface.link is db.bottleneck_link


def test_resolve_unknown_target_raises():
    with pytest.raises(ValueError, match="does not resolve"):
        resolve_dumbbell_target(_dumbbell(), "backbone42")


def test_arm_fails_fast_on_bad_target():
    db = _dumbbell()
    sched = FaultSchedule.compile(
        [FaultSpec(kind="queue_flush", at_s=1.0, target="nope")]
    )
    with pytest.raises(ValueError, match="does not resolve"):
        sched.arm(db.sim, db)


# -- firing -----------------------------------------------------------------------


def test_flap_downs_then_restores_link():
    db = _dumbbell()
    sched = FaultSchedule.compile(
        [FaultSpec(kind="link_flap", at_s=1.0, duration_s=1.0)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert db.bottleneck_link.up is False
    db.sim.run(seconds(3))
    assert db.bottleneck_link.up is True
    assert [row["action"] for row in sched.applied] == ["link_down", "link_up"]
    assert sched.injected == 2


def test_rate_drop_scales_then_restores():
    db = _dumbbell()
    base_rate = db.bottleneck_link.rate_bps
    sched = FaultSchedule.compile(
        [FaultSpec(kind="rate_drop", at_s=1.0, duration_s=1.0, rate_factor=0.25)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert db.bottleneck_link.rate_bps == pytest.approx(base_rate * 0.25)
    db.sim.run(seconds(3))
    assert db.bottleneck_link.rate_bps == pytest.approx(base_rate)


def test_delay_spike_scales_then_restores():
    db = _dumbbell()
    base_delay = db.bottleneck_link.delay_ns
    sched = FaultSchedule.compile(
        [FaultSpec(kind="delay_spike", at_s=1.0, duration_s=1.0, delay_factor=3.0)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert db.bottleneck_link.delay_ns == int(base_delay * 3.0)
    db.sim.run(seconds(3))
    assert db.bottleneck_link.delay_ns == base_delay


def test_loss_burst_sets_and_restores_with_lazy_stream():
    db = _dumbbell()
    link = db.bottleneck_link
    assert link.loss_rate == 0.0 and link._loss_rng is None
    sched = FaultSchedule.compile(
        [FaultSpec(kind="loss_burst", at_s=1.0, duration_s=1.0, loss_rate=0.3)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert link.loss_rate == 0.3
    # The burst created the per-link stream it needed.
    assert link._loss_rng is not None
    db.sim.run(seconds(3))
    assert link.loss_rate == 0.0


def test_loss_burst_dents_goodput_end_to_end():
    """A mid-run loss burst visibly dents a CUBIC transfer's goodput."""
    from repro.cca.registry import make_cca
    from repro.tcp.connection import open_connection

    db = _dumbbell(bottleneck_bw_bps=mbps(20), seed=9)
    conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500)
    conn.start()
    FaultSchedule.compile(
        [FaultSpec(kind="loss_burst", at_s=8.0, duration_s=4.0, loss_rate=0.05)]
    ).arm(db.sim, db)
    marks = []

    def sample():
        marks.append(conn.receiver.bytes_received)
        db.sim.schedule(seconds(2), sample)

    db.sim.schedule(seconds(2), sample)
    db.network.run(seconds(20))
    rates = [(b - a) / 2 for a, b in zip(marks, marks[1:])]
    healthy_before = rates[2]  # 6-8 s
    during = min(rates[3], rates[4])  # 8-12 s
    assert during < 0.85 * healthy_before
    assert db.bottleneck_link.packets_lost > 0


def test_loss_restore_returns_preexisting_rate():
    db = _dumbbell(trunk_loss_rate=0.05)
    link = db.bottleneck_link
    sched = FaultSchedule.compile(
        [FaultSpec(kind="loss_burst", at_s=1.0, duration_s=1.0, loss_rate=0.5)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert link.loss_rate == 0.5
    db.sim.run(seconds(3))
    assert link.loss_rate == pytest.approx(0.05)


def test_queue_flush_discards_backlog():
    db = _dumbbell()
    target = resolve_dumbbell_target(db, "bottleneck")
    qdisc = target.iface.qdisc
    from repro.net.packet import make_data_packet

    for i in range(5):
        qdisc.enqueue(make_data_packet(1, "a", "b", seq=i, mss=1500, now=0), 0)
    assert qdisc.packets_queued == 5
    sched = FaultSchedule.compile([FaultSpec(kind="queue_flush", at_s=1.0)])
    sched.arm(db.sim, db)
    db.sim.run(seconds(2))
    assert qdisc.packets_queued == 0
    assert qdisc.stats.flushed == 5
    assert sched.applied[0]["value"] == 5.0


def test_flap_with_flush_discards_backlog_on_down():
    db = _dumbbell()
    target = resolve_dumbbell_target(db, "bottleneck")
    qdisc = target.iface.qdisc
    from repro.net.packet import make_data_packet

    for i in range(3):
        qdisc.enqueue(make_data_packet(1, "a", "b", seq=i, mss=1500, now=0), 0)
    sched = FaultSchedule.compile(
        [FaultSpec(kind="link_flap", at_s=1.0, duration_s=1.0, flush=True)]
    )
    sched.arm(db.sim, db)
    db.sim.run(seconds(1.5))
    assert db.bottleneck_link.up is False
    assert qdisc.stats.flushed == 3


def test_manifest_is_json_ready():
    import json

    sched = FaultSchedule.compile(
        [FaultSpec(kind="loss_burst", at_s=5.0, duration_s=5.0, loss_rate=0.01)]
    )
    manifest = sched.manifest()
    assert set(manifest) == {"specs", "events"}
    json.dumps(manifest)  # must not raise
    assert manifest["specs"][0]["kind"] == "loss_burst"
    assert len(manifest["events"]) == 2


def test_tracer_sees_fired_faults():
    from repro.obs.flight import FlightRecorder

    db = _dumbbell()
    sched = FaultSchedule.compile([FaultSpec(kind="queue_flush", at_s=1.0)])
    sched.arm(db.sim, db)
    recorder = FlightRecorder(capacity=16)
    sched.tracer = recorder  # attached *after* arming, like the session does
    db.sim.run(seconds(2))
    events = recorder.of_kind("fault")
    assert len(events) == 1
    assert events[0][2]["action"] == "queue_flush"
