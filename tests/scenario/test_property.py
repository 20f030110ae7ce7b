"""Property tests over randomly generated valid scenarios.

The strategy builds structurally valid IR instances across the whole
document space (topology geometry, flow layouts including the
extension-point fields, AQM/ECN, faults, sampling cadences).  Properties
pinned:

- ``from_dict(to_dict(s)) == s`` — the document form is lossless;
- canonical JSON is byte-stable under arbitrary field reordering;
- for every engine-expressible scenario, lowering to a legacy config and
  lifting back is the identity, and the canonical config bytes (hence
  cache keys) are reproduced exactly.
"""

import dataclasses
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.scenario import (
    AqmSpec,
    FlowSpec,
    SamplingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
)

_CCAS = ("cubic", "reno", "bbrv1", "bbrv2", "htcp")

_interval = st.one_of(
    st.none(), st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
)


def _topologies():
    return st.builds(
        TopologySpec,
        bottleneck_bw_bps=st.one_of(
            st.integers(min_value=10**6, max_value=25 * 10**9),
            st.floats(min_value=1e6, max_value=25e9, allow_nan=False),
        ),
        buffer_bdp=st.floats(min_value=0.1, max_value=32.0, allow_nan=False),
        mss_bytes=st.sampled_from((1500, 8900)),
        scale=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        delay_multiplier=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        client_delay_multipliers=st.tuples(
            st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
            st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        ),
        trunk_loss_rate=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
    )


def _flows(engine_expressible):
    count = st.one_of(st.none(), st.integers(min_value=1, max_value=50))
    if engine_expressible:
        # One spec per dumbbell sender node, shared count, elephants only.
        return count.flatmap(
            lambda c: st.tuples(
                st.builds(FlowSpec, cca=st.sampled_from(_CCAS), node=st.just(0), count=st.just(c)),
                st.builds(FlowSpec, cca=st.sampled_from(_CCAS), node=st.just(1), count=st.just(c)),
            )
        )
    return st.lists(
        st.builds(
            FlowSpec,
            cca=st.sampled_from(_CCAS),
            node=st.integers(min_value=0, max_value=1),
            count=count,
            start_s=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            size_bytes=st.one_of(st.none(), st.integers(min_value=1, max_value=10**12)),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple)


def _scenarios(engine_expressible=False):
    duration = st.floats(min_value=1.0, max_value=300.0, allow_nan=False)
    return duration.flatmap(
        lambda d: st.builds(
            Scenario,
            topology=_topologies(),
            flows=_flows(engine_expressible),
            aqm=st.builds(
                AqmSpec,
                name=st.sampled_from(("fifo", "red", "fq_codel", "codel", "pie")),
                ecn=st.booleans(),
                params=st.dictionaries(
                    st.sampled_from(("min_th_frac", "max_th_frac", "target_ms")),
                    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                    max_size=2,
                ),
            ),
            faults=st.lists(
                st.builds(
                    lambda at, dur: {"kind": "link_flap", "at_s": at, "duration_s": dur},
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                ),
                max_size=2,
            ).map(tuple),
            duration_s=st.just(d),
            warmup_s=st.floats(min_value=0.0, max_value=d * 0.9, allow_nan=False, exclude_max=True),
            seed=st.integers(min_value=0, max_value=2**31),
            sampling=st.builds(
                SamplingSpec,
                throughput_interval_s=_interval,
                queue_interval_s=_interval,
                fairness_interval_s=_interval,
            ),
        )
    )


def _shuffle_keys(doc, rnd):
    if isinstance(doc, dict):
        keys = list(doc)
        rnd.shuffle(keys)
        return {k: _shuffle_keys(doc[k], rnd) for k in keys}
    if isinstance(doc, list):
        return [_shuffle_keys(v, rnd) for v in doc]
    return doc


@settings(max_examples=60, deadline=None)
@given(_scenarios())
def test_document_roundtrip_is_identity(scenario):
    doc = scenario.to_dict()
    again = Scenario.from_dict(json.loads(json.dumps(doc)))
    assert again == scenario
    assert again.canonical_json() == scenario.canonical_json()


@settings(max_examples=60, deadline=None)
@given(_scenarios(), st.randoms(use_true_random=False))
def test_canonical_json_invariant_under_reordering(scenario, rnd):
    shuffled = _shuffle_keys(scenario.to_dict(), rnd)
    assert Scenario.from_dict(shuffled).canonical_json() == scenario.canonical_json()


def _fluid_expressible(scenario):
    """``scenario`` without what only the packet engine models: faults,
    ECN, codel, per-sender RTT stretch, trunk loss and non-RED knobs."""
    topology = dataclasses.replace(
        scenario.topology, client_delay_multipliers=(1.0, 1.0), trunk_loss_rate=0.0
    )
    aqm = AqmSpec(name="fq_codel" if scenario.aqm.name == "codel" else scenario.aqm.name)
    return dataclasses.replace(scenario, topology=topology, aqm=aqm, faults=())


@settings(max_examples=60, deadline=None)
@given(_scenarios(engine_expressible=True), st.sampled_from(("packet", "fluid", "fluid_batched")))
def test_lowering_roundtrip_preserves_canonical_config_bytes(scenario, engine):
    if engine != "packet":
        scenario = _fluid_expressible(scenario)
    cfg = scenario.to_experiment_config(engine=engine)
    lifted = Scenario.from_experiment_config(cfg)
    assert lifted == scenario
    again = lifted.to_experiment_config(engine=engine)
    assert json.dumps(again.canonical_dict(), sort_keys=True) == json.dumps(
        cfg.canonical_dict(), sort_keys=True
    )


@settings(max_examples=40, deadline=None)
@given(_scenarios())
def test_arbitrary_scenarios_lower_or_fail_cleanly(scenario):
    """Every generated scenario either compiles or raises ScenarioError —
    never a bare TypeError/KeyError from engine internals."""
    try:
        cfg = scenario.to_experiment_config(engine="packet")
    except ScenarioError:
        return
    assert cfg.duration_s == scenario.duration_s
