"""Cross-engine validation harness: one scenario, every backend, diffed.

Generalizes the hand-rolled engine-agreement integration tests into an
operational surface (``repro validate``): compile one :class:`Scenario`
to each requested engine, run it, and diff every engine pair under a
*declared tolerance policy* instead of ad-hoc asserts.

The policy distinguishes two comparison regimes by engine *family*
(``packet`` vs ``fluid`` — ``fluid_batched`` is the same family as
``fluid``):

- **same family** (fluid vs fluid_batched, or packet vs packet): the
  engines promise bit-identical outcomes, so the pair is compared
  **exactly** — zero drift tolerance *and* a field-by-field diff of the
  full canonical result dicts (everything but ``wallclock_s`` and the
  engine tags).  Any mismatch is a determinism bug, not model error.
- **cross family** (packet vs fluid*): different models of the same
  scenario.  Jain and φ must agree within a loose absolute band; the
  retransmission count is *ungated* (the fluid model's loss proxy is not
  the DES's per-packet accounting — see docs/SCENARIO.md for the
  tolerance policy rationale).

The drift math itself is :mod:`repro.obs.drift` — the same detector the
campaign CI gate uses — applied to in-memory single-run "distributions".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import ENGINES
from repro.metrics.summary import ExperimentResult
from repro.obs.drift import (
    DriftReport,
    DriftTolerance,
    detect_drift_cells,
    distributions_from_rows,
)
from repro.scenario.compile import run_scenario
from repro.scenario.ir import Scenario, ScenarioError

#: Engine -> model family.  Same-family pairs must agree bit-for-bit.
ENGINE_FAMILY: Dict[str, str] = {
    "packet": "packet",
    "fluid": "fluid",
    "fluid_batched": "fluid",
}

#: Same model family: the pair must not differ at all.
EXACT = DriftTolerance(jain=0.0, phi=0.0, rr_rel=0.0, rr_abs=0.0)

#: Different models of one scenario: loose fairness band, RR ungated
#: (retransmit accounting is model-specific).
CROSS_MODEL = DriftTolerance(jain=0.2, phi=0.2, rr_rel=math.inf, rr_abs=math.inf)

#: Result fields excluded from the exact same-family diff: wall clock is
#: nondeterministic, and the engine tags differ by construction.
_EXACT_IGNORED_FIELDS = ("wallclock_s", "engine")


def tolerance_for(engine_a: str, engine_b: str) -> DriftTolerance:
    """The declared tolerance for one engine pair (by model family)."""
    if ENGINE_FAMILY[engine_a] == ENGINE_FAMILY[engine_b]:
        return EXACT
    return CROSS_MODEL


def _exact_comparable(result: ExperimentResult) -> str:
    d = result.to_dict()
    for key in _EXACT_IGNORED_FIELDS:
        d.pop(key, None)
    config = dict(d.get("config") or {})
    config.pop("engine", None)
    d["config"] = config
    return json.dumps(d, sort_keys=True)


@dataclass
class EnginePairReport:
    """One engine pair diffed under its declared tolerance."""

    engine_a: str
    engine_b: str
    tolerance: DriftTolerance
    drift: DriftReport
    #: True when the pair was held to bit-identity (same model family).
    exact: bool = False
    #: For exact pairs: result fields whose values differ (must be empty).
    exact_mismatch: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.drift.clean and not self.exact_mismatch


@dataclass
class ValidationReport:
    """Every engine's result for one scenario plus all pairwise diffs."""

    scenario: Scenario
    engines: Tuple[str, ...]
    results: Dict[str, ExperimentResult]
    pairs: List[EnginePairReport] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every engine pair agreed within its tolerance."""
        return all(p.clean for p in self.pairs)


def validate_scenario(
    scenario: Scenario,
    engines: Sequence[str] = ("packet", "fluid"),
    *,
    tolerances: Optional[Mapping[Tuple[str, str], DriftTolerance]] = None,
    runner: Callable[[Scenario, str], ExperimentResult] = run_scenario,
) -> ValidationReport:
    """Run ``scenario`` on each engine and diff every pair.

    ``tolerances`` overrides the family policy for specific (a, b) pairs
    (order-normalized).  ``runner`` is injectable for tests.  Raises
    :class:`ScenarioError` on unknown engines or fewer than two.
    """
    engines = tuple(engines)
    if len(engines) < 2:
        raise ScenarioError(
            f"engines: need at least two engines to cross-validate, got {list(engines)}"
        )
    for engine in engines:
        if engine not in ENGINES:
            raise ScenarioError(
                f"engines: unknown backend {engine!r}; choose from {list(ENGINES)}"
            )
    if len(set(engines)) != len(engines):
        raise ScenarioError(f"engines: duplicate engine in {list(engines)}")

    results: Dict[str, ExperimentResult] = {
        engine: runner(scenario, engine) for engine in engines
    }

    report = ValidationReport(scenario=scenario, engines=engines, results=results)
    for i, a in enumerate(engines):
        for b in engines[i + 1:]:
            tol = None
            if tolerances:
                tol = tolerances.get((a, b)) or tolerances.get((b, a))
            if tol is None:
                tol = tolerance_for(a, b)
            exact = ENGINE_FAMILY[a] == ENGINE_FAMILY[b]
            # The drift detector strips engine from the cell identity, so
            # both single-result "sets" pool into the same cell.
            drift = detect_drift_cells(
                distributions_from_rows([results[a].to_dict()], source=f"engine {a}"),
                distributions_from_rows([results[b].to_dict()], source=f"engine {b}"),
                tolerance=tol,
            )
            pair = EnginePairReport(
                engine_a=a, engine_b=b, tolerance=tol, drift=drift, exact=exact
            )
            if exact and _exact_comparable(results[a]) != _exact_comparable(results[b]):
                da = json.loads(_exact_comparable(results[a]))
                db = json.loads(_exact_comparable(results[b]))
                pair.exact_mismatch = sorted(
                    k for k in set(da) | set(db) if da.get(k) != db.get(k)
                )
            report.pairs.append(pair)
    return report


def render_validation_report(report: ValidationReport, *, verbose: bool = False) -> str:
    """Human-readable cross-engine validation report for the CLI."""
    lines: List[str] = []
    for engine in report.engines:
        r = report.results[engine]
        lines.append(
            f"{engine:>13s}: jain={r.jain_index:.6f} phi={r.link_utilization:.6f} "
            f"rr={r.total_retransmits} ({r.wallclock_s:.2f}s wall)"
        )
    for pair in report.pairs:
        regime = "exact" if pair.exact else "cross-model"
        if pair.clean:
            lines.append(f"OK    {pair.engine_a} vs {pair.engine_b} [{regime}]")
        else:
            lines.append(f"DRIFT {pair.engine_a} vs {pair.engine_b} [{regime}]")
            for d in pair.drift.drifted:
                lines.append(
                    f"      {d.metric}: {d.mean_a:.6g} -> {d.mean_b:.6g} "
                    f"(|Δ|={d.delta:.6g} > tol={d.tolerance:.6g})"
                )
            if pair.exact_mismatch:
                lines.append(
                    f"      exact-comparison mismatch in fields: {pair.exact_mismatch}"
                )
        if verbose and not pair.exact:
            lines.append(
                f"      tolerance: jain<={pair.tolerance.jain} "
                f"phi<={pair.tolerance.phi} rr=ungated"
            )
    lines.append(
        "cross-engine agreement: clean"
        if report.clean
        else "cross-engine agreement: DRIFT DETECTED"
    )
    return "\n".join(lines)
