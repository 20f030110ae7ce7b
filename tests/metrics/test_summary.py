"""Unit tests for result records (round-trips, derived properties)."""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.metrics.summary import FLOW_FIELDS, ExperimentResult, FlowStats, FlowTable, SenderStats


def _result():
    return ExperimentResult(
        config={"cca_pair": ["bbrv1", "cubic"], "aqm": "fifo", "buffer_bdp": 2.0,
                "bottleneck_bw_bps": 1e8, "seed": 1},
        senders=[
            SenderStats("client1", "bbrv1", 60e6, 100, 1),
            SenderStats("client2", "cubic", 40e6, 20, 1),
        ],
        flows=FlowTable.from_records([
            FlowStats(1, "client1", "bbrv1", 60e6, 10**9, 1000, 100, 1, 2),
            FlowStats(2, "client2", "cubic", 40e6, 10**9, 900, 20, 0, 3),
        ]),
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


# -- schema guard for the hand-written to_dict and the flow columns -----------------
#
# ``to_dict`` spells its keys out instead of calling ``dataclasses.asdict``,
# and a result's flows are stored as columns named after the FlowStats
# fields.  Stored values must not move, so pin both to the field lists.

_text = st.text(max_size=8)
_count = st.integers(min_value=0, max_value=2**53)
_real = st.floats(allow_nan=False, allow_infinity=False)
_json = st.dictionaries(_text, st.one_of(_count, _real, _text, st.lists(_real, max_size=3)), max_size=3)

flow_stats = st.builds(
    FlowStats, flow_id=_count, sender_node=_text, cca=_text, throughput_bps=_real,
    bytes_received=_count, segments_sent=_count, retransmits=_count,
    rto_count=_count, fast_recoveries=_count,
)
flow_records = st.lists(flow_stats, max_size=6)
sender_stats = st.builds(
    SenderStats, node=_text, cca=_text, throughput_bps=_real, retransmits=_count,
    flows=_count,
)
experiment_results = st.builds(
    ExperimentResult, config=_json, senders=st.lists(sender_stats, max_size=2),
    flows=flow_records.map(FlowTable.from_records), jain_index=_real,
    link_utilization=_real, total_retransmits=_count, total_throughput_bps=_real,
    bottleneck_drops=_count, duration_s=_real, engine=_text, events_processed=_count,
    wallclock_s=_real, extra=_json,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sender_stats, experiment_results))
def test_to_dict_equals_asdict_and_round_trips(record):
    d = record.to_dict()
    want = dataclasses.asdict(record)
    if isinstance(record, ExperimentResult):
        want["flows"] = record.flows.to_dict()
    # Unsorted dumps: equal keys in equal order at every nesting level.
    assert json.dumps(d) == json.dumps(want)
    assert type(record).from_dict(json.loads(json.dumps(d))) == record


@settings(max_examples=60, deadline=None)
@given(flow_records)
def test_flow_table_round_trips_records_through_the_stored_row(records):
    """records -> FlowTable -> stored row -> FlowTable, 0 flows included:
    the columns are the records transposed, nothing else."""
    table = FlowTable.from_records(records)
    row = json.loads(json.dumps(table.to_dict(), sort_keys=True))
    assert row == {name: [getattr(f, name) for f in records] for name in FLOW_FIELDS}
    again = FlowTable.from_dict(row)
    assert again == table and len(again) == len(records)
    assert list(again) == records
    assert [again[i] for i in range(len(records))] == records
    assert again.records() == [dataclasses.asdict(f) for f in records]


def test_flow_fields_are_the_flow_stats_fields():
    """Adding a FlowStats field without a column must fail here."""
    assert FLOW_FIELDS == tuple(f.name for f in dataclasses.fields(FlowStats))
    assert list(_result().to_dict()["flows"]) == list(FLOW_FIELDS)


def test_to_dict_lists_every_dataclass_field():
    """Adding a field without adding it to ``to_dict`` must fail here."""
    result = _result()
    for record in (result, result.senders[0]):
        assert list(record.to_dict()) == [f.name for f in dataclasses.fields(record)]


def test_from_dict_keeps_the_columns_and_builds_no_flow_stats(monkeypatch):
    row = json.loads(json.dumps(_result().to_dict()))
    built = []
    monkeypatch.setattr(FlowStats, "__init__", lambda self, *a: built.append(a))
    result = ExperimentResult.from_dict(row)
    assert built == [] and len(result.flows) == 2
    assert result.flows.column("retransmits") is row["flows"]["retransmits"]


def _bad_columns(edit):
    flows = _result().to_dict()["flows"]
    edit(flows)
    return flows


@pytest.mark.parametrize(
    "flows, message",
    [
        (_bad_columns(lambda f: f.pop("cca")), "missing columns \\['cca'\\]"),
        (_bad_columns(lambda f: f.update(rtt=[1, 2])), "unknown columns \\['rtt'\\]"),
        (_bad_columns(lambda f: f.update(cca="cubic")), "column 'cca' is not a list"),
        (_bad_columns(lambda f: f["rto_count"].append(0)), "column 'rto_count' has 3 values, 'flow_id' has 2"),
    ],
    ids=["missing", "extra", "not-a-list", "ragged"],
)
def test_malformed_flow_columns_are_refused(flows, message):
    with pytest.raises(ValueError, match=message):
        FlowTable.from_dict(flows)
