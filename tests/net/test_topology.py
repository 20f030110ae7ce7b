"""Unit tests for the Network topology builder."""

import pytest

from repro.aqm.fifo import FifoQueue
from repro.net.packet import make_data_packet
from repro.net.topology import DEFAULT_IFACE_BUFFER_BYTES, Network
from repro.units import milliseconds


def _pair(net, **connect_kw):
    a = net.add_host("a").add_interface("eth0")
    b = net.add_host("b").add_interface("eth0")
    connect_kw.setdefault("rate_bps", 1e8)
    connect_kw.setdefault("delay_ns", milliseconds(1))
    net.connect(a, b, **connect_kw)
    return a, b


def test_links_registered_by_direction():
    net = Network()
    _pair(net)
    assert set(net.links) == {"a->b", "b->a"}


def test_symmetric_rates_by_default():
    net = Network()
    _pair(net, rate_bps=5e7)
    assert net.links["a->b"].rate_bps == 5e7
    assert net.links["b->a"].rate_bps == 5e7


def test_asymmetric_return_rate():
    net = Network()
    _pair(net, rate_bps=2e7, rate_ba_bps=1e9)
    assert net.links["a->b"].rate_bps == 2e7
    assert net.links["b->a"].rate_bps == 1e9


def test_default_qdiscs_are_deep_fifos():
    net = Network()
    a, b = _pair(net)
    assert isinstance(a.qdisc, FifoQueue)
    assert a.qdisc.limit_bytes == DEFAULT_IFACE_BUFFER_BYTES
    assert isinstance(b.qdisc, FifoQueue)


def test_custom_qdisc_only_on_requested_side():
    net = Network()
    custom = FifoQueue(1234)
    a, b = _pair(net, qdisc_a=custom)
    assert a.qdisc is custom
    assert b.qdisc is not custom


def test_lossy_connect_gets_seeded_rng():
    net = Network(seed=5)
    a, b = _pair(net, loss_rate=0.5)
    link = net.links["a->b"]
    assert link.loss_rate == 0.5
    assert link._loss_rng is not None
    # End to end: with 50% loss, many of 100 packets vanish.
    got = []
    net.links["a->b"].deliver = got.append  # b's receive
    for seq in range(100):
        a.send(make_data_packet(1, "x", "y", seq=seq, mss=1000, now=0))
    net.run()
    assert 20 <= len(got) <= 80


def test_same_seed_same_loss_pattern():
    outcomes = []
    for _ in range(2):
        net = Network(seed=9)
        a, b = _pair(net, loss_rate=0.3)
        got = []
        net.links["a->b"].deliver = lambda pkt: got.append(pkt.seq)  # b's receive
        for seq in range(50):
            a.send(make_data_packet(1, "x", "y", seq=seq, mss=1000, now=0))
        net.run()
        outcomes.append(tuple(got))
    assert outcomes[0] == outcomes[1]


def test_getitem_returns_node():
    net = Network()
    h = net.add_host("h")
    assert net["h"] is h
    with pytest.raises(KeyError):
        net["ghost"]
