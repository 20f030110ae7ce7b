"""What each layer loads: the spine (config, scenario, cache, storage, queue,
campaign, api, service, cli) imports no engine, telemetry session or numpy,
and each engine loads only when a run asks for it (docs/ARCHITECTURE.md,
"Import layering").

Every case runs in a fresh interpreter: in this one, other tests have
already imported everything.
"""

import pytest

from helpers import run_fresh

#: Packages whose modules are engine code: none may load with the spine.
ENGINE_PACKAGES = (
    "numpy",
    "repro.aqm",
    "repro.cca",
    "repro.faults",
    "repro.fluid",
    "repro.net",
    "repro.sim.engine",
    "repro.tcp",
    "repro.testbed",
)


def _loaded_after(statements: str) -> list:
    """The modules a fresh interpreter holds after ``statements``."""
    return run_fresh(f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")


def _under(modules, packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize(
    "module", ["repro.experiments.cache", "repro.api", "repro.service", "repro.cli"]
)
def test_spine_module_loads_no_engine_telemetry_or_numpy(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    assert _under(loaded, ENGINE_PACKAGES + ("repro.obs.session",)) == []


def test_fluid_run_loads_no_packet_network():
    loaded = _loaded_after(
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(ExperimentConfig(('cubic', 'bbrv1'), engine='fluid', duration_s=2.0))"
    )
    assert "repro.fluid.batched" in loaded
    assert _under(loaded, ("repro.tcp", "repro.net")) == []


def test_packet_run_loads_no_fluid_engine():
    loaded = _loaded_after(
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(ExperimentConfig(('cubic', 'reno'), duration_s=0.5, flows_per_node=1))"
    )
    assert "repro.tcp.connection" in loaded
    assert _under(loaded, ("repro.fluid",)) == []


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.scenario"])
def test_every_exported_name_resolves(module):
    missing = run_fresh(
        "import importlib, json\n"
        f"m = importlib.import_module({module!r})\n"
        "print(json.dumps([n for n in m.__all__ if not hasattr(m, n)]))"
    )
    assert missing == []
