"""Shared helpers for the ablation, extension and scaling benches.

Each bench sweeps its own slice on the engine it names, reduces the
results with the analysis layer and prints the rows it reports;
pytest-benchmark times the regeneration once.  The paper's own tables
and figures are ``repro sweep`` + ``repro report --what <artifact>``.
"""

from __future__ import annotations


def run_once(benchmark, fn):
    """Time a multi-second regeneration exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> str:
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"
