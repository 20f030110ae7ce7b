"""The stable top-level API.

One import surface for programmatic users, pinned to the scenario IR
(docs/SCENARIO.md) rather than engine internals::

    from repro.api import Scenario, run, sweep, validate

    scenario = Scenario.from_dict(json.load(open("scenario.json")))
    result = run(scenario, engine="fluid")
    report = validate(scenario, engines=("packet", "fluid"))

Names in ``__all__`` keep working across releases.  A scenario lowers
to the engines' :class:`~repro.experiments.config.ExperimentConfig`
through :func:`compile_scenario` and nowhere else.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional, Sequence, Union

from repro.metrics.summary import ExperimentResult
from repro.scenario.compile import compile_scenario, run_scenario
from repro.scenario.ir import (
    AqmSpec,
    FlowSpec,
    SamplingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
)
from repro.scenario.validate import (
    ValidationReport,
    render_validation_report,
    validate_scenario,
)

PathLike = Union[str, Path]


def run(
    scenario: Scenario,
    engine: str = "packet",
    *,
    telemetry: Optional[Any] = None,
) -> ExperimentResult:
    """Compile ``scenario`` for ``engine`` and execute it."""
    return run_scenario(scenario, engine, telemetry=telemetry)


def sweep(
    scenarios: Sequence[Scenario],
    engine: str = "packet",
    *,
    seeds: Optional[Sequence[int]] = None,
    store: Optional[PathLike] = None,
    jobs: int = 1,
    resume: bool = True,
    cache: Optional[Any] = None,
) -> List[ExperimentResult]:
    """Run a batch of scenarios (optionally x seeds) through the campaign
    driver — parallel workers, resume-from-store, content-addressed cache.

    ``seeds`` replicates every scenario once per seed (overriding its own
    ``seed`` field); ``store`` appends results to a
    :class:`~repro.experiments.storage.ResultStore` path and enables
    resume; ``cache`` is a :class:`~repro.experiments.cache.ResultCache`.
    Results come back in completion order.
    """
    import dataclasses

    from repro.experiments.campaign import run_campaign
    from repro.experiments.storage import ResultStore

    expanded: List[Scenario] = []
    for scenario in scenarios:
        if seeds is None:
            expanded.append(scenario)
        else:
            expanded.extend(
                dataclasses.replace(scenario, seed=seed) for seed in seeds
            )
    configs = [compile_scenario(s, engine) for s in expanded]
    result_store = ResultStore(store) if store is not None else None
    outcome = run_campaign(
        configs, store=result_store, jobs=jobs, resume=resume, cache=cache
    )
    if outcome.failures:
        first = outcome.failures[0]
        raise RuntimeError(
            f"{len(outcome.failures)} of {len(configs)} scenario runs failed "
            f"(first: {first.label}: {first.error})"
        )
    return list(outcome)


def validate(
    scenario: Scenario,
    engines: Sequence[str] = ("packet", "fluid"),
    **kwargs: Any,
) -> ValidationReport:
    """Cross-validate one scenario across engines (see
    :func:`repro.scenario.validate.validate_scenario`)."""
    return validate_scenario(scenario, engines, **kwargs)


def load_store(path: PathLike) -> List[ExperimentResult]:
    """Load every result from a ``.jsonl`` result store."""
    from repro.experiments.storage import ResultStore

    return ResultStore(path).load()


__all__ = [
    "Scenario",
    "ScenarioError",
    "TopologySpec",
    "FlowSpec",
    "AqmSpec",
    "SamplingSpec",
    "ExperimentResult",
    "ValidationReport",
    "render_validation_report",
    "run",
    "sweep",
    "validate",
    "load_store",
]
