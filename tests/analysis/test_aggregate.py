"""Unit tests for result aggregation."""

import pytest

from repro.analysis.aggregate import ResultSet, cell_key
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps


def make_result(pair=("cubic", "cubic"), aqm="fifo", buf=2.0, bw=mbps(100),
                seed=1, jain=1.0, util=0.9, retx=10, s1=50e6, s2=50e6):
    cfg = ExperimentConfig(cca_pair=pair, aqm=aqm, buffer_bdp=buf,
                           bottleneck_bw_bps=bw, seed=seed)
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[SenderStats("client1", pair[0], s1, retx // 2, 1),
                 SenderStats("client2", pair[1], s2, retx - retx // 2, 1)],
        flows=FlowTable(),
        jain_index=jain,
        link_utilization=util,
        total_retransmits=retx,
        total_throughput_bps=s1 + s2,
        bottleneck_drops=retx,
        duration_s=10.0,
        engine="fluid",
    )


def test_cells_average_repetitions():
    rs = ResultSet([
        make_result(seed=1, jain=0.8, util=0.9, retx=10),
        make_result(seed=2, jain=1.0, util=0.7, retx=30),
    ])
    cells = rs.cells()
    assert len(cells) == 1
    stats = next(iter(cells.values()))
    assert stats.runs == 2
    assert stats.jain_index == pytest.approx(0.9)
    assert stats.link_utilization == pytest.approx(0.8)
    assert stats.total_retransmits == pytest.approx(20)


def test_filter_by_config_fields():
    rs = ResultSet([
        make_result(aqm="fifo"),
        make_result(aqm="red", seed=2),
        make_result(pair=("bbrv1", "cubic"), aqm="red", seed=3),
    ])
    assert len(rs.filter(aqm="red")) == 2
    assert len(rs.filter(aqm="red", cca_pair=("bbrv1", "cubic"))) == 1
    assert len(rs.filter(aqm="codel")) == 0


def test_mean_with_where():
    rs = ResultSet([
        make_result(buf=2.0, util=0.8),
        make_result(buf=16.0, util=0.4, seed=2),
    ])
    assert rs.mean(lambda c: c.link_utilization) == pytest.approx(0.6)
    assert rs.mean(lambda c: c.link_utilization,
                   where=lambda c: c.buffer_bdp == 2.0) == pytest.approx(0.8)


def test_mean_empty_raises():
    rs = ResultSet([make_result()])
    with pytest.raises(ValueError):
        rs.mean(lambda c: c.jain_index, where=lambda c: False)


def test_enumeration_helpers():
    rs = ResultSet([
        make_result(buf=2.0, bw=mbps(100)),
        make_result(buf=16.0, bw=mbps(500), aqm="red", pair=("reno", "cubic"), seed=2),
    ])
    assert rs.buffers() == [2.0, 16.0]
    assert rs.bandwidths() == [mbps(100), mbps(500)]
    assert rs.aqms() == ["fifo", "red"]
    assert ("reno", "cubic") in rs.pairs()


def test_cell_key_shape():
    r = make_result(pair=("htcp", "cubic"), aqm="red", buf=4.0, bw=mbps(500))
    assert cell_key(r) == (("htcp", "cubic"), "red", 4.0, mbps(500))
