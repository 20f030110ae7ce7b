"""Unit tests for experiment configuration (Tables 1 & 2)."""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import (
    PAPER_BANDWIDTHS_BPS,
    PAPER_CCA_PAIRS,
    PAPER_FLOW_PLANS,
    ExperimentConfig,
    flow_plan,
)
from repro.units import gbps, mbps


def test_table2_flow_plans():
    assert flow_plan(mbps(100)).total_flows == 2
    assert flow_plan(mbps(500)).total_flows == 10
    assert flow_plan(gbps(1)).total_flows == 20
    assert flow_plan(gbps(10)).total_flows == 200
    assert flow_plan(gbps(25)).total_flows == 500


def test_table2_process_stream_split():
    plan = flow_plan(gbps(10))
    assert plan.processes_per_node == 10
    assert plan.streams_per_process == 10
    plan25 = flow_plan(gbps(25))
    assert plan25.processes_per_node == 25
    assert plan25.streams_per_process == 10


def test_off_grid_bandwidth_uses_nearest_tier():
    assert flow_plan(mbps(120)) == PAPER_FLOW_PLANS[mbps(100)]
    assert flow_plan(gbps(20)) == PAPER_FLOW_PLANS[gbps(25)]


def test_flow_plan_rejects_nonpositive():
    with pytest.raises(ValueError):
        flow_plan(0)


def test_config_canonicalizes_cca_names():
    cfg = ExperimentConfig(cca_pair=("bbr", "CUBIC"))
    assert cfg.cca_pair == ("bbrv1", "cubic")


def test_intra_cca_detection():
    assert ExperimentConfig(cca_pair=("reno", "reno")).is_intra_cca
    assert not ExperimentConfig(cca_pair=("reno", "cubic")).is_intra_cca


def test_plan_override():
    cfg = ExperimentConfig(cca_pair=("cubic", "cubic"), flows_per_node=7)
    assert cfg.plan.flows_per_node == 7


def test_label_stable_and_distinct():
    a = ExperimentConfig(cca_pair=("bbrv1", "cubic"), aqm="fifo", buffer_bdp=2.0,
                         bottleneck_bw_bps=mbps(100), seed=1)
    b = ExperimentConfig(cca_pair=("bbrv1", "cubic"), aqm="fifo", buffer_bdp=2.0,
                         bottleneck_bw_bps=mbps(100), seed=2)
    assert a.label() != b.label()
    assert a.label() == ExperimentConfig.from_dict(a.to_dict()).label()


def test_roundtrip_through_dict():
    cfg = ExperimentConfig(cca_pair=("htcp", "cubic"), aqm="red", buffer_bdp=8.0,
                           bottleneck_bw_bps=gbps(10), engine="fluid", seed=9)
    cfg2 = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg2 == cfg


#: What TopologySpec refuses, the legacy dialect refuses too.
_TOPOLOGY_REFUSALS = [
    {"buffer_bdp": -1},
    {"buffer_bdp": 0},
    {"buffer_bdp": float("nan")},
    {"mss_bytes": 0},
    {"mss_bytes": -1500},
    {"trunk_loss_rate": 2.0},
    {"trunk_loss_rate": 1.0},
    {"trunk_loss_rate": -0.1},
    {"trunk_loss_rate": float("nan")},
    {"delay_multiplier": 0},
    {"delay_multiplier": float("nan")},
    {"client_delay_multipliers": (1.0, 0.0)},
    {"client_delay_multipliers": (float("nan"), 1.0)},
    {"client_delay_multipliers": (1.0,)},
]


#: What the fluid engines do not model, they refuse instead of ignoring.
_FLUID_REFUSALS = [
    {"engine": "fluid", "ecn_mode": True},
    {"engine": "fluid_batched", "ecn_mode": True},
    {"engine": "fluid", "aqm": "codel"},
    {"engine": "fluid_batched", "aqm": "codel"},
    {"engine": "fluid", "client_delay_multipliers": (1.0, 3.0)},
    {"engine": "fluid_batched", "client_delay_multipliers": (0.5, 1.0)},
    {"engine": "fluid", "trunk_loss_rate": 0.01},
    {"engine": "fluid_batched", "trunk_loss_rate": 1e-9},
    {"engine": "fluid", "aqm": "red", "aqm_params": {"bogus": 1}},
    {"engine": "fluid_batched", "aqm": "red", "aqm_params": {"min_th": 5, "avpkt": 1500}},
    {"engine": "fluid", "aqm": "fifo", "aqm_params": {"min_th": 5}},
    {"engine": "fluid_batched", "aqm": "pie", "aqm_params": {"target_ms": 5}},
]


@pytest.mark.parametrize("kwargs", [
    {"aqm": "wred"},
    {"engine": "ns3"},
    {"duration_s": 0},
    {"warmup_s": -1},
    {"warmup_s": 300},
    {"flows_per_node": 0},
    {"duration_s": float("nan")},
    {"duration_s": float("inf")},
    {"bottleneck_bw_bps": 0},
    {"bottleneck_bw_bps": float("nan")},
    {"scale": 0},
    {"scale": -1.0},
    {"scale": float("inf")},
] + _TOPOLOGY_REFUSALS + [
    # Sampling cadences: None, or positive and finite (SamplingSpec's rule).
    {"fairness_interval_s": float("inf")},
    {"fairness_interval_s": float("nan")},
    {"sample_interval_s": -1},
    {"sample_interval_s": 0},
    {"sample_interval_s": float("inf")},
    {"queue_monitor_interval_s": float("nan")},
    {"queue_monitor_interval_s": 0},
    {"queue_monitor_interval_s": -0.5},
] + _FLUID_REFUSALS + [
    # Seeds: an integer in [0, 2**63).  Every other number stays below 2**63
    # too: a stored row's decoder (orjson) reads 2**64 and above as a float.
    {"seed": -1},
    {"seed": 2**63},
    {"seed": 2**64},
    {"seed": 1.0},
    {"seed": True},
    {"mss_bytes": 2**63},
    {"flows_per_node": 2**63},
    {"bottleneck_bw_bps": 2**64},
    {"sample_interval_s": 2**64},
    {"duration_s": 1e19},
])
def test_validation(kwargs):
    base = dict(cca_pair=("cubic", "cubic"))
    base.update(kwargs)
    with pytest.raises(ValueError):
        ExperimentConfig(**base)


def test_numbers_up_to_the_limit_are_accepted():
    top = 2**63 - 1
    config = ExperimentConfig(cca_pair=("cubic", "cubic"), seed=top, mss_bytes=top,
                              flows_per_node=top, bottleneck_bw_bps=float(2**62))
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_fluid_engines_read_red_knobs_and_the_packet_engine_reads_everything():
    from repro.fluid.batched import RED_KNOBS

    knobs = {"min_th": 5.0, "max_th": 15.0, "max_p": 0.1, "weight": 0.01, "gentle": False}
    assert set(knobs) == set(RED_KNOBS)
    for engine in ("fluid", "fluid_batched"):
        ExperimentConfig(cca_pair=("cubic", "cubic"), engine=engine, aqm="red",
                         aqm_params=knobs)
    for kwargs in _FLUID_REFUSALS:
        ExperimentConfig(cca_pair=("cubic", "cubic"), **{**kwargs, "engine": "packet"})
    with pytest.raises(ValueError, match=r"ecn_mode, aqm='codel', trunk_loss_rate"):
        ExperimentConfig(cca_pair=("cubic", "cubic"), engine="fluid", ecn_mode=True,
                         aqm="codel", trunk_loss_rate=0.1)


def test_scenario_ir_refuses_the_same_topology_inputs():
    from repro.scenario import ScenarioError, TopologySpec

    for kwargs in _TOPOLOGY_REFUSALS:
        with pytest.raises(ScenarioError):
            TopologySpec(**kwargs)


def test_paper_constants():
    assert len(PAPER_CCA_PAIRS) == 9
    assert len(PAPER_BANDWIDTHS_BPS) == 5


def test_canonical_dict_is_the_single_identity_form():
    """``to_dict`` (stored results), the cache key, and the scenario IR
    façade all derive from one ``canonical_dict()``: empty faults and an
    unset fairness cadence are omitted, set values are kept."""
    bare = ExperimentConfig(cca_pair=("cubic", "cubic"))
    d = bare.canonical_dict()
    assert d == bare.to_dict()
    assert "faults" not in d and "fairness_interval_s" not in d

    loud = ExperimentConfig.from_dict(
        {
            "cca_pair": ["cubic", "cubic"],
            "fairness_interval_s": 1.0,
            "faults": [{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}],
        }
    )
    d = loud.canonical_dict()
    assert d["fairness_interval_s"] == 1.0 and d["faults"]


def test_canonical_dict_roundtrips_every_preset():
    from repro.experiments.presets import PRESETS

    for preset in PRESETS.values():
        for cfg in preset.build()[:60]:
            blob = json.dumps(cfg.canonical_dict(), sort_keys=True)
            again = ExperimentConfig.from_dict(json.loads(blob))
            assert json.dumps(again.canonical_dict(), sort_keys=True) == blob


def test_type_hints_resolve():
    assert typing.get_type_hints(ExperimentConfig)["faults"] == typing.List[
        typing.Dict[str, typing.Any]
    ]


# -- schema guard for the hand-written canonical_dict --------------------------------
#
# ``canonical_dict`` spells its keys out instead of calling
# ``dataclasses.asdict`` (every cache key, queue task id and stored row
# pays for it).  Keys and stored bytes must not move, so pin it to the
# asdict-based form it replaced and to the field list.


def _asdict_reference(config):
    d = dataclasses.asdict(config)
    d["cca_pair"] = list(config.cca_pair)
    d["client_delay_multipliers"] = list(config.client_delay_multipliers)
    if not d["faults"]:
        d.pop("faults")
    if d["fairness_interval_s"] is None:
        d.pop("fairness_interval_s")
    return d


def _same_bytes(config):
    # Unsorted dumps: equal keys in equal order at every nesting level.
    return json.dumps(config.canonical_dict()) == json.dumps(_asdict_reference(config))


def test_canonical_dict_equals_the_asdict_form_on_every_preset_config():
    from repro.experiments.presets import PRESETS

    configs = [cfg for preset in PRESETS.values() for cfg in preset.build()]
    assert len(configs) > 9000
    assert all(_same_bytes(cfg) for cfg in configs)


_real = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), _real, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_faults = st.lists(
    st.one_of(
        st.builds(
            lambda at, dur: {"kind": "link_flap", "at_s": at, "duration_s": dur, "flush": True},
            _real, _real,
        ),
        st.builds(
            lambda at, dur: {"kind": "rate_drop", "at_s": at, "duration_s": dur,
                             "rate_factor": 0.5, "target": "reverse"},
            _real, _real,
        ),
        st.builds(lambda at: {"kind": "queue_flush", "at_s": at}, _real),
    ),
    max_size=3,
)
_configs = st.builds(
    lambda **kw: ExperimentConfig.from_dict(kw),
    cca_pair=st.lists(st.sampled_from(["cubic", "bbr", "reno", "htcp"]), min_size=2, max_size=2),
    aqm=st.sampled_from(["fifo", "red", "fq_codel", "codel", "pie"]),
    buffer_bdp=_real,
    bottleneck_bw_bps=st.sampled_from([1e8, 5e8, 1e9, 2.5e10]),
    duration_s=st.floats(min_value=1.0, max_value=300.0),
    seed=st.integers(0, 2**31),
    scale=_real,
    flows_per_node=st.one_of(st.none(), st.integers(1, 50)),
    ecn_mode=st.booleans(),
    aqm_params=st.dictionaries(st.text(max_size=6), _json, max_size=3),
    client_delay_multipliers=st.lists(_real, min_size=2, max_size=2),
    sample_interval_s=st.one_of(st.none(), _real),
    fairness_interval_s=st.one_of(st.none(), _real),
    faults=_faults,
)


@settings(max_examples=100, deadline=None)
@given(_configs)
def test_canonical_dict_equals_the_asdict_form_on_nested_configs(config):
    assert _same_bytes(config)
    d = config.canonical_dict()
    assert ExperimentConfig.from_dict(json.loads(json.dumps(d))) == config
    # The dict is the caller's: nothing in it aliases the config.
    before = _asdict_reference(config)
    d["cca_pair"].reverse()
    d["client_delay_multipliers"].append(9.0)
    d["aqm_params"]["added"] = {"x": 1}
    for value in d["aqm_params"].values():
        if isinstance(value, (dict, list)):
            value.clear()
    for fault in d.get("faults", []):
        fault["at_s"] = -1.0
    d.get("faults", []).clear()
    assert _asdict_reference(config) == before


def test_canonical_dict_lists_every_dataclass_field():
    """Adding a field without adding it to ``canonical_dict`` must fail here."""
    loud = ExperimentConfig.from_dict(
        {
            "cca_pair": ["cubic", "cubic"],
            "fairness_interval_s": 1.0,
            "faults": [{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}],
        }
    )
    assert list(loud.canonical_dict()) == [f.name for f in dataclasses.fields(loud)]
