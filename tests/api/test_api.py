"""The stable top-level API (``repro.api``).

Pins three things: the advertised surface exists under ``__all__``;
``ExperimentConfig``, the engines' config, constructs with every knob and
through every re-materialization path without a warning; and the
convenience entry points actually run experiments.
"""

import gc
import tracemalloc
import warnings

import pytest

import repro
import repro.api as api
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.scenario import AqmSpec, FlowSpec, Scenario, TopologySpec
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


def test_repeated_warm_sweeps_keep_no_memory(tmp_path):
    """A warm sweep (cache hits into a fresh store, then a resume from that
    store) leaves nothing live behind: five of them grow traced memory by
    less than one result row retained once would.  What RSS keeps rising
    by across such units is the allocator holding freed pages."""
    grid = [
        Scenario(
            topology=TopologySpec(bottleneck_bw_bps=mbps(20), mss_bytes=1500),
            flows=(FlowSpec(cca=cca, node=0, count=1), FlowSpec(cca="cubic", node=1, count=1)),
            aqm=AqmSpec(name=aqm),
            duration_s=1.0,
            seed=1,
        )
        for cca in ("reno", "bbrv1", "htcp") for aqm in ("fifo", "red")
    ]
    stores = iter(tmp_path / f"results{i}.jsonl" for i in range(8))

    def warm_unit():
        store = next(stores)
        api.sweep(grid, engine="fluid_batched", store=store, cache=ResultCache(tmp_path / "cache"))
        return api.sweep(grid, engine="fluid_batched", store=store)

    warm_unit()  # fills the cache (its store is then resumed)
    warm_unit()  # warm-up: the first pass through the warm paths
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            warm_unit()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        row = [warm_unit()[0].to_dict()]
        gc.collect()
        row_bytes = tracemalloc.get_traced_memory()[0] - before - grown
    finally:
        if started:
            tracemalloc.stop()
    assert row and row_bytes > 1000
    assert grown < row_bytes, f"five warm sweeps kept {grown} B (one row is {row_bytes} B)"


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
