"""Scenario IR: schema validation, canonical form, and the legacy façade.

The load-bearing contract here is byte-compatibility: lowering a legacy
``ExperimentConfig`` through the IR and back must reproduce the *same
canonical JSON bytes* — that is what keeps cache keys, stored results,
and golden fixtures identical across the API redesign.
"""

import json

import pytest

from repro.experiments.cache import config_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.presets import PRESETS
from repro.scenario import (
    SCENARIO_VERSION,
    AqmSpec,
    FlowSpec,
    SamplingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
)
from repro.units import mbps


def _cell(**overrides):
    base = dict(
        topology=TopologySpec(bottleneck_bw_bps=mbps(20), mss_bytes=1500),
        flows=(
            FlowSpec(cca="cubic", node=0, count=1),
            FlowSpec(cca="cubic", node=1, count=1),
        ),
        duration_s=40.0,
        warmup_s=5.0,
        seed=31,
    )
    base.update(overrides)
    return Scenario(**base)


# -- construction & validation ------------------------------------------------------


def test_defaults_build_a_valid_scenario():
    sc = Scenario()
    assert sc.version == SCENARIO_VERSION
    assert sc.topology.kind == "dumbbell"
    assert [f.cca for f in sc.flows] == ["bbrv1", "cubic"]


def test_cca_names_are_canonicalized():
    sc = _cell(flows=(FlowSpec(cca="BBR", node=0), FlowSpec(cca="CUBIC", node=1)))
    assert [f.cca for f in sc.flows] == ["bbrv1", "cubic"]


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda: _cell(duration_s=0), "duration_s"),
        (lambda: _cell(warmup_s=50.0), "warmup_s"),
        (lambda: _cell(seed="x"), "seed"),
        (lambda: _cell(flows=()), "flows"),
        (lambda: TopologySpec(bottleneck_bw_bps=-1), "topology.bottleneck_bw_bps"),
        (lambda: TopologySpec(kind="parking_lot"), "topology.kind"),
        (lambda: AqmSpec(name="nope"), "aqm.name"),
        (lambda: SamplingSpec(fairness_interval_s=-1), "sampling.fairness_interval_s"),
        (lambda: _cell(faults=[{"kind": "bogus_fault"}]), "faults"),
        (lambda: _cell(version=99), "version"),
    ],
    ids=["duration", "warmup", "seed", "flows", "bw", "kind", "aqm",
         "sampling", "faults", "version"],
)
def test_invalid_fields_raise_with_dotted_path(build, path):
    with pytest.raises(ScenarioError, match=path.replace(".", r"\.")):
        build()


def test_flow_node_must_exist_on_dumbbell():
    with pytest.raises(ScenarioError, match=r"flows\[1\]\.node"):
        _cell(flows=(FlowSpec(cca="cubic", node=0), FlowSpec(cca="cubic", node=7)))


def test_unknown_document_fields_rejected():
    with pytest.raises(ScenarioError, match="unknown field"):
        Scenario.from_dict({"duration_s": 5.0, "nonsense": 1})
    with pytest.raises(ScenarioError, match="topology"):
        Scenario.from_dict({"topology": {"bandwidth": 1}})
    with pytest.raises(ScenarioError, match=r"flows\[0\]"):
        Scenario.from_dict({"flows": [{"node": 0}]})


def test_document_type_errors_are_scenario_errors():
    with pytest.raises(ScenarioError, match="expected a number"):
        Scenario.from_dict({"duration_s": "long"})
    with pytest.raises(ScenarioError, match="expected an object"):
        Scenario.from_dict({"topology": []})
    with pytest.raises(ScenarioError, match="list of flow specs"):
        Scenario.from_dict({"flows": "cubic"})


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"topology": {"bottleneck_bw_bps": 1e999}, "duration_s": 1e999}',
         "topology.bottleneck_bw_bps"),
        ('{"duration_s": Infinity}', "duration_s"),
        ('{"topology": {"buffer_bdp": 1e999}}', "topology.buffer_bdp"),
        ('{"topology": {"scale": Infinity}}', "topology.scale"),
        ('{"topology": {"client_delay_multipliers": [1, 1e999]}}',
         "topology.client_delay_multipliers"),
        ('{"sampling": {"queue_interval_s": 1e999}}', "sampling.queue_interval_s"),
    ],
    ids=["bw-and-duration", "duration", "buffer", "scale", "client-delay", "sampling"],
)
def test_non_finite_values_are_refused_with_their_path(text, path):
    """A scenario that could never lower is refused where it is built."""
    with pytest.raises(ScenarioError, match=path.replace(".", r"\.")):
        Scenario.from_dict(json.loads(text))


def test_non_finite_topology_refused_on_direct_construction():
    with pytest.raises(ScenarioError, match=r"topology\.bottleneck_bw_bps"):
        Scenario(topology=TopologySpec(bottleneck_bw_bps=float("inf")))


# -- canonical form -----------------------------------------------------------------


def test_dict_roundtrip_is_identity():
    sc = _cell(
        aqm=AqmSpec(name="red", ecn=True, params={"min_th_frac": 0.2}),
        sampling=SamplingSpec(fairness_interval_s=1.0),
        faults=[{"kind": "link_flap", "at_s": 10.0, "duration_s": 1.0}],
    )
    again = Scenario.from_dict(sc.to_dict())
    assert again == sc
    assert again.canonical_json() == sc.canonical_json()


def test_canonical_json_stable_under_field_reordering():
    doc = _cell().to_dict()
    reordered = {k: doc[k] for k in reversed(list(doc))}
    reordered["topology"] = {
        k: doc["topology"][k] for k in reversed(list(doc["topology"]))
    }
    assert (
        Scenario.from_dict(reordered).canonical_json()
        == Scenario.from_dict(doc).canonical_json()
    )


def test_canonical_json_omits_opt_in_fields_at_rest():
    doc = json.loads(_cell().canonical_json())
    assert "faults" not in doc and "sampling" not in doc
    assert "start_s" not in doc["flows"][0]


def test_numeric_types_survive_the_document_roundtrip():
    # mbps() yields ints; float-ifying them would silently change the
    # canonical bytes (and thus every cache key).
    sc = _cell()
    doc = json.loads(sc.canonical_json())
    assert isinstance(doc["topology"]["bottleneck_bw_bps"], int)
    assert Scenario.from_dict(doc).canonical_json() == sc.canonical_json()


# -- legacy façade ------------------------------------------------------------------


def test_facade_roundtrips_every_preset_byte_identically():
    checked = 0
    for preset in PRESETS.values():
        for cfg in preset.build()[:60]:
            sc = Scenario.from_experiment_config(cfg)
            back = sc.to_experiment_config(engine=cfg.engine)
            assert json.dumps(back.canonical_dict(), sort_keys=True) == json.dumps(
                cfg.canonical_dict(), sort_keys=True
            ), cfg.label()
            assert back.label() == cfg.label()
            checked += 1
    assert checked >= 100


def test_cache_key_collides_with_legacy_config_key():
    cfg = ExperimentConfig(cca_pair=("bbrv1", "cubic"), engine="fluid", seed=7)
    sc = Scenario.from_experiment_config(cfg)
    assert sc.cache_key(engine="fluid", salt="s") == config_key(cfg, "s")
    # Default salt on both sides as well.
    from repro.experiments.cache import default_salt

    assert sc.cache_key(engine="fluid") == config_key(cfg, default_salt())


def test_engine_is_runtime_not_identity():
    cfg_fluid = ExperimentConfig(cca_pair=("cubic", "cubic"), engine="fluid")
    cfg_packet = ExperimentConfig(cca_pair=("cubic", "cubic"), engine="packet")
    assert (
        Scenario.from_experiment_config(cfg_fluid)
        == Scenario.from_experiment_config(cfg_packet)
    )


def test_extension_points_fail_at_lowering_not_midrun():
    staggered = _cell(
        flows=(
            FlowSpec(cca="cubic", node=0, count=1, start_s=5.0),
            FlowSpec(cca="cubic", node=1, count=1),
        )
    )
    with pytest.raises(ScenarioError, match="staggered flow starts"):
        staggered.to_experiment_config()
    finite = _cell(
        flows=(
            FlowSpec(cca="cubic", node=0, count=1, size_bytes=10**9),
            FlowSpec(cca="cubic", node=1, count=1),
        )
    )
    with pytest.raises(ScenarioError, match="finite transfer sizes"):
        finite.to_experiment_config()


def test_lowering_rejects_bad_flow_layouts():
    one_node = _cell(flows=(FlowSpec(cca="cubic", node=0, count=1),))
    with pytest.raises(ScenarioError, match="one flow spec per sender node"):
        one_node.to_experiment_config()
    dup = _cell(
        flows=(FlowSpec(cca="cubic", node=0), FlowSpec(cca="reno", node=0))
    )
    with pytest.raises(ScenarioError, match="multiple flow specs"):
        dup.to_experiment_config()
    uneven = _cell(
        flows=(
            FlowSpec(cca="cubic", node=0, count=1),
            FlowSpec(cca="cubic", node=1, count=2),
        )
    )
    with pytest.raises(ScenarioError, match="counts must match"):
        uneven.to_experiment_config()


def test_lowering_surfaces_engine_capability_errors():
    chaotic = _cell(faults=[{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}])
    with pytest.raises(ScenarioError, match="packet engine"):
        chaotic.to_experiment_config(engine="fluid")
    # The same scenario lowers fine for the engine that supports faults.
    assert chaotic.to_experiment_config(engine="packet").faults


@pytest.mark.parametrize("overrides, knob", [
    (dict(aqm=AqmSpec(name="red", ecn=True)), "ecn_mode"),
    (dict(aqm=AqmSpec(name="codel")), "codel"),
    (dict(aqm=AqmSpec(name="red", params={"min_th_frac": 0.2})), "min_th_frac"),
    (dict(topology=TopologySpec(client_delay_multipliers=(1.0, 3.0))), "client_delay_multipliers"),
    (dict(topology=TopologySpec(trunk_loss_rate=0.01)), "trunk_loss_rate"),
])
def test_fluid_engines_refuse_what_they_do_not_model(overrides, knob):
    sc = _cell(**overrides)
    for engine in ("fluid", "fluid_batched"):
        with pytest.raises(ScenarioError, match=knob):
            sc.to_experiment_config(engine=engine)
    assert sc.to_experiment_config(engine="packet").engine == "packet"


def test_facade_construction_emits_no_deprecation_warnings(recwarn):
    import warnings

    sc = _cell(
        sampling=SamplingSpec(fairness_interval_s=1.0),
        faults=[{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        sc.to_experiment_config(engine="packet")
