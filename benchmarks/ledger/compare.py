#!/usr/bin/env python3
"""Compare two report sets: A/A (is the benchmark steady?) and A/B (did a
change move anything?).

    python3 benchmarks/ledger/compare.py results/LEDGER_x.json         # set 0 vs set 1
    python3 benchmarks/ledger/compare.py parent.json:0 change.json:0

For each end-to-end metric x workload -- the contract's, which every
workload reports, and each workload's own timings (``warm_sweep_s``,
``serve_warm_p99_ms``, ...) -- the verdict uses each side's median and
quartiles and the metric's bound as recorded in the report:

regressed   B's median is worse than A's by more than the bound
unresolved  either side's quartile spread exceeds the bound, so a change
            of that size could hide in the noise (unless every B run
            beats every A run)
improved    B's median is better by more than A's own quartile spread and
            B wins at least nine tenths of the seed-matched pairs
unchanged   none of the above

Exit status is 1 if anything regressed.  Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def metric_values(report_set: Dict[str, Any], workload: str, metric: str,
                  trace: int = 0) -> List[Tuple[int, float]]:
    """(seed, value) of one metric over a set's runs of one workload.

    Looks in the run's contract metrics, then in its workload-specific
    timings (``detail``).
    """
    out = []
    for run in report_set["runs"]:
        if run["workload"] != workload or run["trace"] != trace:
            continue
        if metric in run["metrics"]:
            out.append((run["seed"], run["metrics"][metric]["value"]))
        elif metric in run.get("detail", {}):
            out.append((run["seed"], run["detail"][metric]))
    return out


def verdict(a: Sequence[float], b: Sequence[float], pairs: Sequence[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, float]:
    """(verdict, share by which B's median is worse than A's)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if worse > bound:
        return "regressed", worse
    every_b_better = max(sign * x for x in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not every_b_better:
        return "unresolved", worse
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    decided = sum(1 for x, y in pairs if x != y)
    won = every_b_better or (decided and wins >= 0.9 * decided)
    if won and -worse > (a_q3 - a_q1) / abs(a_med):
        return "improved", worse
    return "unchanged", worse


def gated_metrics(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The contract's end-to-end metrics, then the workloads' own timings
    (declared per-layer in BENCHMARK.json, so they get the report's bound)."""
    spec = report["benchmark"]
    own = {
        name
        for report_set in report["sets"]
        for run in report_set["runs"]
        for name in run.get("detail", {})
    }
    return spec["end_to_end"] + [
        dict(m, bound=report["detail_bound"])
        for m in spec["per_layer"] if m["name"] in own
    ]


def compare(set_a: Dict[str, Any], set_b: Dict[str, Any],
            report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per end-to-end metric x workload that reports it."""
    rows = []
    for workload in (w["name"] for w in report["benchmark"]["workloads"]):
        for metric in gated_metrics(report):
            a = dict(metric_values(set_a, workload, metric["name"]))
            b = dict(metric_values(set_b, workload, metric["name"]))
            if not a or not b:
                continue
            pairs = [(a[seed], b[seed]) for seed in a if seed in b]
            kind, worse = verdict(
                list(a.values()), list(b.values()), pairs,
                metric["better"], metric["bound"],
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "a": quartiles(list(a.values())),
                "b": quartiles(list(b.values())),
                "a_spread": spread(list(a.values())),
                "b_spread": spread(list(b.values())),
                "worse_by": worse,
                "verdict": kind,
            })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<14s} {'metric':<18s} {'A median':>11s} {'A iqr':>6s} "
        f"{'B median':>11s} {'B iqr':>6s} {'B worse':>8s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<14s} {r['metric']:<18s} {r['a'][1]:>11.4f} "
            f"{r['a_spread']:>6.1%} {r['b'][1]:>11.4f} {r['b_spread']:>6.1%} "
            f"{r['worse_by']:>+8.1%} {r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def load_set(arg: str, default_index: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    path, _, index = arg.partition(":")
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    which = int(index) if index else default_index
    if not 0 <= which < len(report["sets"]):
        raise SystemExit(f"compare: {path} has no report set {which}")
    return report["sets"][which], report


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2) or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    # Metric names and bounds are the first file's: the parent's, in an A/B.
    set_a, report = load_set(argv[0], 0)
    set_b, _ = load_set(argv[-1], 1 if len(argv) == 1 else 0)
    rows = compare(set_a, set_b, report)
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
