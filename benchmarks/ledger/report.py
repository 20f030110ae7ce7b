#!/usr/bin/env python3
"""Read one report file written by ``run.py --out``.

    python3 benchmarks/ledger/report.py results/LEDGER_x.json          # spreads
    python3 benchmarks/ledger/report.py results/LEDGER_x.json --where  # markdown
    python3 benchmarks/ledger/report.py results/LEDGER_x.json --readme # both, into README.md

The default view is the steadiness check the benchmark must pass: for each
set, workload and end-to-end metric, the quartile distance of the runs as a
share of their median, against the metric's bound.  ``--where`` prints the
"where a second goes" table of README.md from the traced runs; ``--readme``
rewrites README.md's generated sections (that table, the A/A verdicts and
the spreads) from the report, so none of them is typed by hand.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from compare import compare, gated_metrics, metric_values, quartiles, render, spread

README = Path(__file__).resolve().parent / "README.md"


def spreads(report: Dict[str, Any]) -> str:
    spec = report["benchmark"]
    lines = [f"{'set':>3s} {'workload':<14s} {'metric':<18s} {'n':>3s} "
             f"{'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}"]
    for index, report_set in enumerate(report["sets"]):
        for workload in (w["name"] for w in spec["workloads"]):
            for metric in gated_metrics(report):
                values = [v for _, v in metric_values(report_set, workload, metric["name"])]
                if not values:
                    continue
                q1, median, q3 = quartiles(values)
                share = spread(values)
                note = ""
                if metric["name"] != "setup_s":
                    if share > metric["bound"]:
                        note = "  WIDER THAN BOUND"
                    elif share > metric["bound"] / 3:
                        note = "  over a third of the bound"
                if metric["name"] == "wall_s":
                    medians = [
                        statistics.median(run["rep_wall_s"])
                        for run in report_set["runs"]
                        if run["workload"] == workload and run.get("rep_wall_s")
                    ]
                    if len(medians) > 1:
                        note += f"  (median repetition: {spread(medians):.1%})"
                lines.append(
                    f"{index:>3d} {workload:<14s} {metric['name']:<18s} {len(values):>3d} "
                    f"{median:>11.4f} {q1:>11.4f} {q3:>11.4f} {share:>7.1%} "
                    f"{metric['bound']:>6.0%}{note}"
                )
    return "\n".join(lines)


def where(report: Dict[str, Any]) -> str:
    """Markdown: self seconds per layer in one traced repetition, by workload
    (median over the report's traced runs), with the share of that repetition."""
    spec = report["benchmark"]
    workloads = [w["name"] for w in spec["workloads"]]
    layers = [m["name"][: -len(".self_s")] for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]

    def median_of(workload: str, metric: str) -> float:
        values = [
            v for report_set in report["sets"]
            for _, v in metric_values(report_set, workload, metric, trace=1)
        ]
        return quartiles(values)[1] if values else 0.0

    walls = {w: median_of(w, "trace.wall_s") for w in workloads}
    lines = ["| layer | " + " | ".join(workloads) + " |",
             "|---|" + "---:|" * len(workloads)]
    rows: List[Any] = []
    for layer in layers:
        cells = [median_of(w, f"{layer}.self_s") for w in workloads]
        rows.append((max(c / walls[w] if walls[w] else 0.0
                         for c, w in zip(cells, workloads)), layer, cells))
    for _, layer, cells in sorted(rows, reverse=True):
        rendered = [
            f"{c:.2f} s ({c / walls[w]:.0%})" if c >= 0.005 else "–"
            for c, w in zip(cells, workloads)
        ]
        lines.append(f"| `{layer}` | " + " | ".join(rendered) + " |")
    lines.append("| **traced repetition** | "
                 + " | ".join(f"**{walls[w]:.2f} s**" for w in workloads) + " |")
    lines.append("| tracing overhead | " + " | ".join(
        f"{median_of(w, 'trace.overhead_share'):+.1%}" for w in workloads) + " |")
    return "\n".join(lines)


def write_readme(report: Dict[str, Any]) -> None:
    """Replace what sits between README.md's ``<!-- x:begin -->`` and
    ``<!-- x:end -->`` markers with this report's tables."""
    verdicts = render(compare(report["sets"][0], report["sets"][1], report))
    sections = {
        "where": where(report),
        "aa": f"```\n{verdicts}\n```\n\n```\n{spreads(report)}\n```",
    }
    text = README.read_text(encoding="utf-8")
    for tag, body in sections.items():
        pattern = rf"(<!-- {tag}:begin -->\n).*?(<!-- {tag}:end -->)"
        text, n = re.subn(pattern, lambda m: m[1] + body + "\n" + m[2], text, flags=re.S)
        if n != 1:
            raise SystemExit(f"report: README.md has no {tag}:begin/{tag}:end markers")
    README.write_text(text, encoding="utf-8")


def main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if "--readme" in argv[1:]:
        write_readme(report)
    else:
        print(where(report) if "--where" in argv[1:] else spreads(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
