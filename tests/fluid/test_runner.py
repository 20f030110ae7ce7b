"""End-to-end tests of ``engine="fluid"`` through ``run_experiment``."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.units import mbps


def _cfg(**kw):
    base = dict(
        cca_pair=("cubic", "cubic"),
        aqm="fifo",
        buffer_bdp=2.0,
        bottleneck_bw_bps=mbps(100),
        duration_s=20.0,
        engine="fluid",
        seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_result_structure():
    r = run_experiment(_cfg())
    assert r.engine == "fluid"
    assert len(r.senders) == 2
    assert r.senders[0].node == "client1"
    assert r.senders[1].node == "client2"
    assert len(r.flows) == 2  # Table 2: 1 flow/node at 100 Mbps
    assert 0 < r.link_utilization <= 1.05
    assert 0.5 <= r.jain_index <= 1.0


def test_flow_plan_scales_with_bandwidth():
    r = run_experiment(_cfg(bottleneck_bw_bps=mbps(500), duration_s=10.0))
    assert len(r.flows) == 10  # 5 processes/node x 1 stream


def test_deterministic_given_seed():
    a = run_experiment(_cfg())
    b = run_experiment(_cfg())
    assert a.jain_index == b.jain_index
    assert a.total_retransmits == b.total_retransmits


def test_different_seeds_differ():
    a = run_experiment(_cfg(seed=1, aqm="red"))
    b = run_experiment(_cfg(seed=2, aqm="red"))
    # Start jitter, arrival noise, and the RED lottery all differ.
    assert (a.total_throughput_bps, a.jain_index) != (b.total_throughput_bps, b.jain_index)


def test_intra_cca_roughly_fair():
    r = run_experiment(_cfg(duration_s=30.0))
    assert r.jain_index > 0.9


def test_utilization_high_with_fifo():
    r = run_experiment(_cfg(duration_s=30.0))
    assert r.link_utilization > 0.85


def test_flows_per_node_override():
    r = run_experiment(_cfg(flows_per_node=3, duration_s=5.0))
    assert len(r.flows) == 6
