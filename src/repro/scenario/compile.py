"""Lower one :class:`Scenario` to the config an engine runs.

The IR describes *what* to simulate; :func:`compile_scenario` lowers it
for the backend named at run time.  All three engines take one
:class:`~repro.experiments.config.ExperimentConfig`, so lowering is
:meth:`Scenario.to_experiment_config` behind an engine-name check, and
whatever a backend cannot express (e.g. faults off the packet engine)
surfaces as :class:`ScenarioError` at compile time, not mid-run.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.experiments.config import ENGINES, ExperimentConfig
from repro.metrics.summary import ExperimentResult
from repro.scenario.ir import Scenario, ScenarioError


def compile_scenario(scenario: Scenario, engine: str = "packet") -> ExperimentConfig:
    """Lower ``scenario`` for ``engine``; :class:`ScenarioError` on an
    unknown engine or a scenario the backend cannot express."""
    if engine not in ENGINES:
        raise ScenarioError(
            f"engine: unknown backend {engine!r}; choose from {list(ENGINES)}"
        )
    return scenario.to_experiment_config(engine=engine)


def run_scenario(
    scenario: Scenario,
    engine: str = "packet",
    telemetry: Optional[Any] = None,
) -> ExperimentResult:
    """Compile and execute one scenario on one backend.

    The single-experiment entry point of the IR world: everything a
    ``repro run`` does, minus flag parsing.  ``telemetry`` is forwarded
    to the engine dispatcher (see :func:`repro.experiments.runner.run_experiment`).
    """
    from repro.experiments.runner import run_experiment

    config = compile_scenario(scenario, engine)
    return run_experiment(config, telemetry=telemetry)
