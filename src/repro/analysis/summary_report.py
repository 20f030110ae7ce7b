"""One-call full text report: everything the paper's evaluation shows.

``full_report(results)`` renders Table 3 (with the published values
alongside), the claim validation verdicts, and every figure of
:data:`~repro.analysis.figures.FIGURES` whose AQM slice the result set
holds, each after its summary section if it has one (the BBRv1-vs-CUBIC
equilibrium points) — the reproduction's complete story in one string.
"""

from __future__ import annotations

from typing import List

from repro.analysis.aggregate import ResultSet
from repro.analysis.figures import FIGURES
from repro.analysis.table3 import build_table3, render_table3
from repro.analysis.validate import render_claims, validate_claims


def _section(title: str, body: str) -> str:
    bar = "=" * 72
    return f"{bar}\n{title}\n{bar}\n{body}\n"


def full_report(results: ResultSet) -> str:
    """Render the complete evaluation report for ``results``."""
    if len(results) == 0:
        raise ValueError("no results to report on")
    aqms = set(results.aqms())
    parts: List[str] = [
        _section("TABLE 3 — overall comparison (measured vs paper)",
                 render_table3(build_table3(results))),
        _section("PAPER CLAIMS — automated shape validation",
                 render_claims(validate_claims(results))),
    ]
    for figure in FIGURES.values():
        if not figure.available(aqms):
            continue
        series = figure.series(results)
        summary = figure.summary and figure.summary(series)
        if summary:
            parts.append(_section(*summary))
        parts.append(_section(figure.title, figure.render(series)))
    return "\n".join(parts)
