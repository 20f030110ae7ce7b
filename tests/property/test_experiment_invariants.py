"""Property-based invariants over full experiment runs.

Random draws across the configuration space (CCA pair, AQM, buffer
depth, seed) must always produce results satisfying the physical
invariants of the model, regardless of which cell of the grid was hit:

- Jain's index lies in [0, 1] (it is a normalized ratio),
- bottleneck utilization lies in [0, 1.01] (a link cannot carry more
  than line rate; 1% slack for edge-of-window rounding),
- no flow delivers more bytes than its sender transmitted,
- the bottleneck FIFO backlog never exceeds its byte limit, and
- the congestion window never collapses below one MSS (senders must
  always be able to make forward progress).

These are deliberately run on short, small-bandwidth configs so
hypothesis can afford several full simulations per test.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LoopbackNet
from repro.cca.cubic import Cubic
from repro.cca.reno import Reno
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.testbed.dumbbell import DumbbellConfig
from repro.units import mbps, milliseconds, seconds

CCA_NAMES = ("reno", "cubic", "bbrv1", "bbrv2", "htcp")
AQM_NAMES = ("fifo", "red", "codel", "fq_codel", "pie")
#: The fluid engines refuse codel (docs/SCENARIO.md).
FLUID_AQM_NAMES = ("fifo", "red", "fq_codel", "pie")


@given(
    cca_a=st.sampled_from(CCA_NAMES),
    cca_b=st.sampled_from(CCA_NAMES),
    aqm=st.sampled_from(AQM_NAMES),
    buffer_bdp=st.sampled_from((0.5, 1.0, 2.0, 4.0)),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_result_invariants_across_config_space(cca_a, cca_b, aqm, buffer_bdp, seed):
    """Any (CCA pair, AQM, buffer, seed) cell yields physically sane results."""
    config = ExperimentConfig(
        cca_pair=(cca_a, cca_b),
        aqm=aqm,
        buffer_bdp=buffer_bdp,
        bottleneck_bw_bps=mbps(20),
        duration_s=1.5,
        mss_bytes=1500,
        seed=seed,
        flows_per_node=1,
    )
    result = run_experiment(config)

    assert 0.0 <= result.jain_index <= 1.0
    assert 0.0 <= result.link_utilization <= 1.01
    assert result.total_retransmits >= 0
    assert result.bottleneck_drops >= 0
    assert result.total_throughput_bps >= 0.0
    for flow in result.flows:
        # Exactly-once delivery: the receiver can never report more
        # unique bytes than the sender ever put on the wire.
        assert flow.bytes_received <= flow.segments_sent * config.mss_bytes
        assert flow.retransmits <= flow.segments_sent


@given(
    aqm=st.sampled_from(FLUID_AQM_NAMES),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=5, deadline=None)
def test_fluid_engine_result_invariants(aqm, seed):
    """The fluid engine obeys the same result-level invariants."""
    config = ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        aqm=aqm,
        buffer_bdp=2.0,
        bottleneck_bw_bps=mbps(100),
        duration_s=5.0,
        seed=seed,
        engine="fluid",
        flows_per_node=1,
    )
    result = run_experiment(config)
    assert 0.0 <= result.jain_index <= 1.0
    assert 0.0 <= result.link_utilization <= 1.01
    for flow in result.flows:
        assert flow.bytes_received >= 0


@given(
    drop_set=st.sets(st.integers(min_value=0, max_value=119), max_size=30),
    cca_cls=st.sampled_from([Reno, Cubic]),
)
@settings(max_examples=15, deadline=None)
def test_cwnd_never_below_one_mss(drop_set, cca_cls):
    """Under any drop pattern, cwnd stays >= 1 MSS at every sampled instant."""
    pending = set(drop_set)

    def drop(pkt):
        if pkt.seq in pending and not pkt.is_retx:
            pending.discard(pkt.seq)
            return True
        return False

    net = LoopbackNet(
        cca=cca_cls(), total_segments=120, drop_data=drop,
        one_way_delay_ns=milliseconds(5),
    )
    samples = []

    def sample():
        samples.append(net.sender.cca.cwnd)
        if not net.sender.done:
            net.sim.schedule(milliseconds(20), sample)

    net.start()
    net.sim.schedule(milliseconds(1), sample)
    net.run(seconds(30))
    assert net.sender.done
    # cwnd is tracked in segments; one segment == one MSS.
    assert samples and min(samples) >= 1.0
    assert net.sender.cca.cwnd >= 1.0


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    buffer_bdp=st.sampled_from((0.25, 0.5, 1.0, 2.0)),
)
@settings(max_examples=8, deadline=None)
def test_bottleneck_fifo_backlog_bounded(seed, buffer_bdp):
    """The bottleneck FIFO backlog respects its byte limit throughout a run."""
    config = ExperimentConfig(
        cca_pair=("cubic", "reno"),
        aqm="fifo",
        buffer_bdp=buffer_bdp,
        bottleneck_bw_bps=mbps(20),
        duration_s=1.5,
        mss_bytes=1500,
        seed=seed,
        flows_per_node=1,
        queue_monitor_interval_s=0.01,
    )
    result = run_experiment(config)
    trace = result.extra.get("queue_trace")
    assert trace and trace["backlog_bytes"], "queue monitor produced no samples"
    # Same limit derivation the runner uses when it builds the topology.
    limit_bytes = DumbbellConfig(
        bottleneck_bw_bps=config.bottleneck_bw_bps,
        buffer_bdp=config.buffer_bdp,
        aqm=config.aqm,
        mss_bytes=config.mss_bytes,
        seed=config.seed,
    ).buffer_bytes
    # Drop-tail admits only up to limit_bytes, so the sampled backlog can
    # never exceed it.
    for backlog in trace["backlog_bytes"]:
        assert 0 <= backlog <= limit_bytes
