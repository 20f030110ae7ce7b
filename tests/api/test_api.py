"""The stable top-level API (``repro.api``).

Pins three things: the advertised surface exists under ``__all__``;
``ExperimentConfig``, the engines' config, constructs with every knob and
through every re-materialization path without a warning; and the
convenience entry points actually run experiments.
"""

import warnings

import pytest

import repro
import repro.api as api
from repro.experiments.config import ExperimentConfig
from repro.scenario import FlowSpec, Scenario, TopologySpec
from repro.units import mbps


def _tiny_scenario(seed=3):
    return Scenario(
        topology=TopologySpec(bottleneck_bw_bps=mbps(20), mss_bytes=1500),
        flows=(
            FlowSpec(cca="cubic", node=0, count=1),
            FlowSpec(cca="cubic", node=1, count=1),
        ),
        duration_s=5.0,
        seed=seed,
    )


# -- surface ------------------------------------------------------------------------


def test_advertised_surface_exists():
    for name in api.__all__:
        assert getattr(api, name) is not None, name
    # The package root re-exports the IR-era verbs alongside the legacy ones.
    for name in ("Scenario", "run", "sweep", "validate", "load_store",
                 "ExperimentConfig", "run_experiment"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_run_executes_a_scenario():
    result = api.run(_tiny_scenario(), engine="fluid")
    assert result.engine == "fluid"
    assert 0.5 <= result.jain_index <= 1.0


def test_sweep_runs_seeds_and_persists(tmp_path):
    store = tmp_path / "results.jsonl"
    results = api.sweep(
        [_tiny_scenario()], engine="fluid", seeds=(1, 2), store=store
    )
    assert len(results) == 2
    assert {r.config["seed"] for r in results} == {1, 2}
    loaded = api.load_store(store)
    assert len(loaded) == 2


def test_validate_diffs_engines():
    report = api.validate(_tiny_scenario(), engines=("fluid", "fluid_batched"))
    assert report.clean


# -- one config model, no warnings ---------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(faults=[{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}]),
        dict(fairness_interval_s=1.0),
        dict(sample_interval_s=1.0),
        dict(queue_monitor_interval_s=1.0),
    ],
    ids=["faults", "fairness", "sample", "queue-monitor"],
)
def test_engine_knobs_construct_without_warnings(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentConfig(cca_pair=("cubic", "cubic"), **kwargs)


def test_plain_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ExperimentConfig(cca_pair=("bbrv1", "cubic"), aqm="red", seed=5)


def test_internal_rematerialization_paths_do_not_warn():
    cfg = ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        fairness_interval_s=1.0,
        faults=[{"kind": "link_flap", "at_s": 1.0, "duration_s": 0.5}],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # from_dict (stored results, cache index, campaign workers)...
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        # ...and the scenario lowering.
        assert Scenario.from_experiment_config(cfg).to_experiment_config() == cfg
