"""What each layer loads: the spine (config, scenario, cache, storage, queue,
campaign, api, service, cli) imports no engine, telemetry session or numpy,
and each engine loads only when a run asks for it; the packet engine
loads no numpy at all (docs/ARCHITECTURE.md, "Import layering").

Every case runs in a fresh interpreter: in this one, other tests have
already imported everything.
"""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import SRC_DIR, run_fresh

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


def test_building_the_cli_parser_loads_no_analysis():
    """``report --what`` reads its choices from the figure table only when
    argparse checks or prints them, so ``repro serve`` starts without it."""
    loaded = _loaded_after("from repro.cli import build_parser\nbuild_parser()")
    assert "repro.cli" in loaded
    assert _under(loaded, ("repro.analysis",)) == []


def test_fluid_run_loads_no_packet_network():
    loaded = _loaded_after(
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(ExperimentConfig(('cubic', 'bbrv1'), engine='fluid', duration_s=2.0))"
    )
    assert "repro.fluid.batched" in loaded and "repro.sim.rng" in loaded
    assert _under(loaded, ("repro.tcp", "repro.net", "repro.sim.engine")) == []


def test_the_calibration_table_loads_only_units():
    """Both engines import ``repro.calibration``: it loads no other module
    of either engine, nor numpy."""
    package = set(_loaded_after("import repro"))
    added = sorted(set(_loaded_after("import repro.calibration")) - package)
    assert _under(added, ("repro", "numpy")) == ["repro.calibration", "repro.units"]


PACKET_CONFIGS = {
    "plain": "ExperimentConfig(('cubic', 'reno'), duration_s=0.5, flows_per_node=1)",
    "red-bbr-loss-burst": (
        "ExperimentConfig(('bbrv1', 'bbrv2'), aqm='red', duration_s=1.0, flows_per_node=1, "
        "faults=[{'kind': 'loss_burst', 'at_s': 0.3, 'duration_s': 0.3, 'loss_rate': 0.05}])"
    ),
}


@pytest.mark.parametrize("config", sorted(PACKET_CONFIGS))
def test_packet_run_loads_no_numpy(config):
    """Every draw of a packet run comes from the pure-Python streams
    (``repro.sim.rng.Stream``): the RED lottery, BBR's randomised cycle
    phases, the fault loss lottery and the flow-start jitter."""
    loaded = _loaded_after(
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        f"run_experiment({PACKET_CONFIGS[config]})"
    )
    assert "repro.tcp.connection" in loaded and "repro.sim.rng" in loaded
    assert _under(loaded, ("numpy",)) == []


def test_parsing_a_scenario_with_faults_loads_no_engine():
    """Validating a ``faults`` block needs the spec module alone, not the
    schedule that drives the engine."""
    loaded = _loaded_after(
        "from repro.scenario.ir import Scenario\n"
        "Scenario.from_dict({'faults': [{'kind': 'loss_burst', 'at_s': 1.0, "
        "'duration_s': 1.0, 'loss_rate': 0.01}]})"
    )
    assert "repro.faults.spec" in loaded
    assert _under(loaded, ("numpy", "repro.sim.engine", "repro.faults.schedule")) == []


def _all_modules():
    names = []
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        parts = path.relative_to(SRC_DIR).with_suffix("").parts
        if parts[-1] == "__main__":
            continue  # importing it runs the CLI
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_every_module_imports_on_its_own():
    """No import cycle hides behind an import order: each module imports
    first thing in a fresh interpreter."""

    def failure(module):
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            cwd=SRC_DIR, capture_output=True, text=True, timeout=300,
        )
        return proc.returncode and f"{module}: {proc.stderr.strip().splitlines()[-1]}"

    modules = _all_modules()
    assert len(modules) > 100
    with ThreadPoolExecutor(max_workers=2) as pool:
        failures = [f for f in pool.map(failure, modules) if f]
    assert failures == []


def test_packet_run_loads_no_fluid_engine():
    loaded = _loaded_after(
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(ExperimentConfig(('cubic', 'reno'), duration_s=0.5, flows_per_node=1))"
    )
    assert "repro.tcp.connection" in loaded
    assert _under(loaded, ("repro.fluid",)) == []


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.faults", "repro.scenario"])
def test_every_exported_name_resolves(module):
    missing = run_fresh(
        "import importlib, json\n"
        f"m = importlib.import_module({module!r})\n"
        "print(json.dumps([n for n in m.__all__ if not hasattr(m, n)]))"
    )
    assert missing == []
