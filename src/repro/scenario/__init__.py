"""The declarative scenario IR and its lowering to the engines.

One scenario language (:class:`Scenario` and its typed sub-specs),
lowered for any engine by :func:`compile_scenario`, with a
cross-engine validation harness (:mod:`repro.scenario.validate`).
See docs/SCENARIO.md.
"""

from repro.experiments.config import ENGINES
from repro.scenario.compile import compile_scenario, run_scenario
from repro.scenario.ir import (
    SCENARIO_VERSION,
    AqmSpec,
    FlowSpec,
    SamplingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
)
from repro.scenario.validate import (
    CROSS_MODEL,
    EXACT,
    EnginePairReport,
    ValidationReport,
    render_validation_report,
    tolerance_for,
    validate_scenario,
)

__all__ = [
    "SCENARIO_VERSION",
    "Scenario",
    "ScenarioError",
    "TopologySpec",
    "FlowSpec",
    "AqmSpec",
    "SamplingSpec",
    "ENGINES",
    "compile_scenario",
    "run_scenario",
    "EXACT",
    "CROSS_MODEL",
    "tolerance_for",
    "validate_scenario",
    "ValidationReport",
    "EnginePairReport",
    "render_validation_report",
]
