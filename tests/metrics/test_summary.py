"""Unit tests for result records (round-trips, derived properties)."""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.summary import ExperimentResult, FlowStats, SenderStats


def _result():
    return ExperimentResult(
        config={"cca_pair": ["bbrv1", "cubic"], "aqm": "fifo", "buffer_bdp": 2.0,
                "bottleneck_bw_bps": 1e8, "seed": 1},
        senders=[
            SenderStats("client1", "bbrv1", 60e6, 100, 1),
            SenderStats("client2", "cubic", 40e6, 20, 1),
        ],
        flows=[
            FlowStats(1, "client1", "bbrv1", 60e6, 10**9, 1000, 100, 1, 2),
            FlowStats(2, "client2", "cubic", 40e6, 10**9, 900, 20, 0, 3),
        ],
        jain_index=0.96,
        link_utilization=1.0,
        total_retransmits=120,
        total_throughput_bps=100e6,
        bottleneck_drops=120,
        duration_s=30.0,
        engine="packet",
    )


def test_roundtrip_through_dict():
    r = _result()
    r2 = ExperimentResult.from_dict(r.to_dict())
    assert r2.to_dict() == r.to_dict()
    assert r2.senders[0].cca == "bbrv1"
    assert r2.flows[1].retransmits == 20


def test_sender_throughputs():
    r = _result()
    assert r.sender_throughputs == [60e6, 40e6]


def test_throughput_of_cca():
    r = _result()
    assert r.throughput_of("bbrv1") == 60e6
    assert r.throughput_of("cubic") == 40e6
    assert r.throughput_of("reno") == 0.0


def test_from_dict_tolerates_missing_optionals():
    d = _result().to_dict()
    del d["events_processed"]
    del d["wallclock_s"]
    del d["extra"]
    r = ExperimentResult.from_dict(d)
    assert r.events_processed == 0
    assert r.extra == {}


# -- schema guard for the hand-written to_dict ---------------------------------------
#
# ``to_dict`` spells its keys out instead of calling ``dataclasses.asdict``
# (the record path serialises hundreds of FlowStats per result).  Stored
# bytes must not move, so pin it to asdict and to the field list.

_text = st.text(max_size=8)
_count = st.integers(min_value=0, max_value=2**53)
_real = st.floats(allow_nan=False, allow_infinity=False)
_json = st.dictionaries(_text, st.one_of(_count, _real, _text, st.lists(_real, max_size=3)), max_size=3)

flow_stats = st.builds(
    FlowStats, flow_id=_count, sender_node=_text, cca=_text, throughput_bps=_real,
    bytes_received=_count, segments_sent=_count, retransmits=_count,
    rto_count=_count, fast_recoveries=_count,
)
sender_stats = st.builds(
    SenderStats, node=_text, cca=_text, throughput_bps=_real, retransmits=_count,
    flows=_count,
)
experiment_results = st.builds(
    ExperimentResult, config=_json, senders=st.lists(sender_stats, max_size=2),
    flows=st.lists(flow_stats, max_size=4), jain_index=_real, link_utilization=_real,
    total_retransmits=_count, total_throughput_bps=_real, bottleneck_drops=_count,
    duration_s=_real, engine=_text, events_processed=_count, wallclock_s=_real,
    extra=_json,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(flow_stats, sender_stats, experiment_results))
def test_to_dict_equals_asdict_and_round_trips(record):
    d = record.to_dict()
    # Unsorted dumps: equal keys in equal order at every nesting level.
    assert json.dumps(d) == json.dumps(dataclasses.asdict(record))
    assert type(record).from_dict(d) == record


def test_to_dict_lists_every_dataclass_field():
    """Adding a field without adding it to ``to_dict`` must fail here."""
    result = _result()
    for record in (result, result.senders[0], result.flows[0]):
        assert list(record.to_dict()) == [f.name for f in dataclasses.fields(record)]
