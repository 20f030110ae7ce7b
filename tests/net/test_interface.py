"""Unit tests for interfaces: qdisc pump, busy handling, reconfiguration."""

import pytest

from repro.aqm.fifo import FifoQueue
from repro.net.packet import make_data_packet
from repro.net.topology import Network
from repro.units import milliseconds


def _build_pair(rate=12e6, qdisc=None):
    net = Network(seed=0)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    i1 = h1.add_interface("eth0", None)
    i2 = h2.add_interface("eth0", None)
    net.connect(i1, i2, rate_bps=rate, delay_ns=milliseconds(1), qdisc_a=qdisc)
    return net, h1, h2, i1, i2


def test_send_requires_attachment():
    net = Network()
    h = net.add_host("h")
    iface = h.add_interface("eth0")
    with pytest.raises(RuntimeError):
        iface.send(make_data_packet(1, "a", "b", seq=0, mss=100, now=0))


def test_packets_flow_through_queue_in_order():
    qdisc = FifoQueue(10**9)
    net, h1, h2, i1, i2 = _build_pair(qdisc=qdisc)
    got = []
    net.links["h1->h2"].deliver = lambda pkt: got.append(pkt.seq)  # h2's receive
    for seq in range(5):
        i1.send(make_data_packet(1, "a", "b", seq=seq, mss=1500, now=0))
    assert i1.is_busy
    net.run()
    assert got == [0, 1, 2, 3, 4]
    assert qdisc.is_empty
    assert not i1.is_busy


def test_queue_drops_when_full():
    qdisc = FifoQueue(3 * 1500)  # room for 3 packets
    net, h1, h2, i1, i2 = _build_pair(rate=1e6, qdisc=qdisc)
    got = []
    net.links["h1->h2"].deliver = lambda pkt: got.append(pkt.seq)  # h2's receive
    for seq in range(10):
        i1.send(make_data_packet(1, "a", "b", seq=seq, mss=1500, now=0))
    net.run()
    # One in flight immediately + 3 queued = 4 delivered, 6 dropped.
    assert len(got) == 4
    assert qdisc.stats.dropped_enqueue == 6


def test_set_qdisc_rejects_nonempty_replacement():
    qdisc = FifoQueue(10**9)
    net, h1, h2, i1, i2 = _build_pair(rate=1e3, qdisc=qdisc)  # very slow: stays queued
    for seq in range(3):
        i1.send(make_data_packet(1, "a", "b", seq=seq, mss=1500, now=0))
    assert not qdisc.is_empty
    with pytest.raises(RuntimeError):
        i1.set_qdisc(FifoQueue(10**9))


def test_set_qdisc_allows_idle_replacement():
    net, h1, h2, i1, i2 = _build_pair()
    replacement = FifoQueue(5000)
    i1.set_qdisc(replacement)
    assert i1.qdisc is replacement
