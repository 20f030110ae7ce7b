"""Campaign-level fairness drift detection.

The perf ledger gates *speed* regressions; this module gates the
*science*: it diffs the per-cell Jain / φ (link utilization) / RR
(retransmission) distributions between two result sets — two campaign
stores, a store versus golden fixtures, or a store versus itself — and
flags every cell whose fairness shifted beyond tolerance.

A *cell* is an experiment configuration with the identity-irrelevant
knobs stripped: seed (repetitions of a cell differ only by seed),
engine (cross-engine fairness agreement is exactly what the detector is
for), and the telemetry cadences (sampling is outcome-neutral by
construction).  All repetitions of a cell pool into one distribution per
metric, and the detector compares distribution *means* under per-metric
tolerances — absolute for Jain and φ (both live in [0, 1]-ish ranges),
hybrid absolute/relative for retransmit counts (which span orders of
magnitude across the grid).

Invariant the CI smoke job's fairness step pins: a store diffed against itself
reports exactly zero drift — every comparison is ``0.0 > tol`` with the
same floats on both sides, so there is no tolerance tuning that can make
self-comparison flap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Tuple, Union

PathLike = Union[str, Path]

#: Config keys that do not define a cell's scientific identity.
CELL_IGNORED_KEYS = (
    "seed",
    "engine",
    "sample_interval_s",
    "queue_monitor_interval_s",
    "fairness_interval_s",
)

#: Metrics the detector compares, with their result-dict field names.
DRIFT_METRICS = ("jain", "phi", "rr")


@dataclass(frozen=True)
class DriftTolerance:
    """Per-metric thresholds a cell's mean shift must stay within."""

    #: Max absolute shift in mean Jain index.
    jain: float = 0.05
    #: Max absolute shift in mean link utilization φ.
    phi: float = 0.05
    #: Max relative shift in mean total retransmits...
    rr_rel: float = 0.25
    #: ...unless the absolute shift is also below this floor (guards
    #: near-zero baselines where any change is a huge ratio).
    rr_abs: float = 10.0


@dataclass
class CellDrift:
    """One cell whose fairness distribution moved beyond tolerance."""

    cell: str
    metric: str
    mean_a: float
    mean_b: float
    delta: float
    tolerance: float
    n_a: int
    n_b: int


@dataclass
class DriftReport:
    """Outcome of diffing two result sets cell-by-cell."""

    drifted: List[CellDrift] = field(default_factory=list)
    checked: int = 0
    missing_in_a: List[str] = field(default_factory=list)
    missing_in_b: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no overlapping cell drifted (missing cells warn only)."""
        return not self.drifted


def cell_key(config: Dict[str, Any]) -> str:
    """Canonical cell identity for a config dict (deterministic JSON)."""
    ident = {
        k: v for k, v in config.items() if k not in CELL_IGNORED_KEYS and v is not None
    }
    return json.dumps(ident, sort_keys=True, separators=(",", ":"))


def result_rows(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield result dicts from a store (.jsonl), a fixture (.json), or a
    directory of either — the inputs ``repro obs fairness drift`` accepts."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"no such results path: {p}")
    if p.is_dir():
        found = False
        for child in sorted(p.iterdir()):
            if child.suffix in (".json", ".jsonl") and child.is_file():
                found = True
                yield from result_rows(child)
        if not found:
            raise ValueError(f"no .json/.jsonl result files under {p}")
        return
    if p.suffix == ".jsonl":
        from repro.experiments.storage import ResultStore

        # Resume's reader and rules: a torn tail warns and is skipped,
        # corruption mid-file raises ValueError with the line number.
        for _lineno, row in ResultStore(p).iter_dicts():
            yield row
        return
    with p.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        for row in doc:
            yield row
    else:
        yield doc


def distributions_from_rows(
    rows: Iterable[Dict[str, Any]], *, source: str = "rows"
) -> Dict[str, Dict[str, List[float]]]:
    """Pool result rows (dicts) into per-cell metric samples.

    The in-memory seam under :func:`cell_distributions`: the cross-engine
    validation harness (:mod:`repro.scenario.validate`) feeds it results
    that never touched disk.  ``source`` only labels error messages.
    """
    cells: Dict[str, Dict[str, List[float]]] = {}
    for row in rows:
        config = row.get("config")
        if not isinstance(config, dict):
            raise ValueError(f"result row without a config dict in {source}")
        dist = cells.setdefault(
            cell_key(config), {m: [] for m in DRIFT_METRICS}
        )
        dist["jain"].append(float(row["jain_index"]))
        dist["phi"].append(float(row["link_utilization"]))
        dist["rr"].append(float(row["total_retransmits"]))
    if not cells:
        raise ValueError(f"no result rows found in {source}")
    return cells


def cell_distributions(path: PathLike) -> Dict[str, Dict[str, List[float]]]:
    """Pool a result set into per-cell metric samples.

    Returns ``{cell_key: {"jain": [...], "phi": [...], "rr": [...]}}``
    with one sample per result row (repetitions pool together).
    """
    return distributions_from_rows(result_rows(path), source=str(path))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def detect_drift_cells(
    cells_a: Dict[str, Dict[str, List[float]]],
    cells_b: Dict[str, Dict[str, List[float]]],
    *,
    tolerance: DriftTolerance = DriftTolerance(),
) -> DriftReport:
    """Diff two pooled distributions (see :func:`distributions_from_rows`).

    The comparison core under :func:`detect_drift`, exposed so in-memory
    result sets — e.g. per-engine runs of one scenario — can be diffed
    without a store on disk.
    """
    report = DriftReport()
    report.missing_in_b = sorted(set(cells_a) - set(cells_b))
    report.missing_in_a = sorted(set(cells_b) - set(cells_a))
    for key in sorted(set(cells_a) & set(cells_b)):
        report.checked += 1
        dist_a, dist_b = cells_a[key], cells_b[key]
        for metric in DRIFT_METRICS:
            mean_a = _mean(dist_a[metric])
            mean_b = _mean(dist_b[metric])
            delta = abs(mean_b - mean_a)
            if metric == "jain":
                tol = tolerance.jain
            elif metric == "phi":
                tol = tolerance.phi
            else:
                tol = max(tolerance.rr_abs, tolerance.rr_rel * max(abs(mean_a), 1.0))
            if delta > tol:
                report.drifted.append(
                    CellDrift(
                        cell=key,
                        metric=metric,
                        mean_a=mean_a,
                        mean_b=mean_b,
                        delta=delta,
                        tolerance=tol,
                        n_a=len(dist_a[metric]),
                        n_b=len(dist_b[metric]),
                    )
                )
    return report


def detect_drift(
    path_a: PathLike,
    path_b: PathLike,
    *,
    tolerance: DriftTolerance = DriftTolerance(),
) -> DriftReport:
    """Diff two result sets and report every cell drifted beyond tolerance.

    Cells present in only one set are listed as missing (a coverage
    warning, not drift).  Comparing a set against itself always yields a
    clean report with zero drifted cells.
    """
    return detect_drift_cells(
        cell_distributions(path_a), cell_distributions(path_b), tolerance=tolerance
    )


def _cell_label(key: str) -> str:
    """Short human-readable tag for a cell key (the distinguishing knobs)."""
    config = json.loads(key)
    parts = []
    pair = config.get("cca_pair")
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        parts.append(f"{pair[0]}-vs-{pair[1]}")
    for k in ("aqm", "bottleneck_bw_bps", "buffer_bdp", "flows_per_node"):
        if k in config:
            parts.append(f"{k}={config[k]}")
    return " ".join(parts) if parts else key


def render_drift_report(report: DriftReport, *, verbose: bool = False) -> str:
    """Human-readable drift report for the CLI."""
    lines: List[str] = []
    lines.append(
        f"cells checked: {report.checked}  drifted: {len(report.drifted)}"
        f"  only-in-a: {len(report.missing_in_b)}"
        f"  only-in-b: {len(report.missing_in_a)}"
    )
    for d in report.drifted:
        lines.append(
            f"DRIFT {d.metric:4s} {_cell_label(d.cell)}: "
            f"{d.mean_a:.6g} -> {d.mean_b:.6g} "
            f"(|Δ|={d.delta:.6g} > tol={d.tolerance:.6g}, n={d.n_a}/{d.n_b})"
        )
    if verbose:
        for key in report.missing_in_b:
            lines.append(f"only in a: {_cell_label(key)}")
        for key in report.missing_in_a:
            lines.append(f"only in b: {_cell_label(key)}")
    lines.append("no fairness drift" if report.clean else "fairness drift detected")
    return "\n".join(lines)


def summarize_fairness(path: PathLike) -> List[Dict[str, Any]]:
    """Per-cell fairness summary rows for ``repro obs fairness summary``.

    Pools repetitions per cell and aggregates both the end-of-run scalars
    (Jain/φ/RR means) and — for runs recorded with ``--fairness`` — the
    dynamics carried in ``extra["fairness"]``: mean convergence time
    (over converged runs), how many runs converged, total oscillations,
    and total sync-loss events.
    """
    cells: Dict[str, Dict[str, Any]] = {}
    for row in result_rows(path):
        config = row.get("config")
        if not isinstance(config, dict):
            raise ValueError(f"result row without a config dict in {path}")
        key = cell_key(config)
        agg = cells.setdefault(
            key,
            {
                "cell": _cell_label(key),
                "runs": 0,
                "jain": [],
                "phi": [],
                "rr": [],
                "sampled": 0,
                "converged": 0,
                "convergence_times": [],
                "oscillations": 0,
                "sync_losses": 0,
            },
        )
        agg["runs"] += 1
        agg["jain"].append(float(row["jain_index"]))
        agg["phi"].append(float(row["link_utilization"]))
        agg["rr"].append(float(row["total_retransmits"]))
        fairness = (row.get("extra") or {}).get("fairness")
        if isinstance(fairness, dict):
            agg["sampled"] += 1
            ct = fairness.get("convergence_time_s")
            if ct is not None:
                agg["converged"] += 1
                agg["convergence_times"].append(float(ct))
            agg["oscillations"] += int(fairness.get("oscillations", 0))
            agg["sync_losses"] += len(fairness.get("sync_loss_t_s") or [])
    rows: List[Dict[str, Any]] = []
    for key in sorted(cells):
        agg = cells[key]
        rows.append(
            {
                "cell": agg["cell"],
                "runs": agg["runs"],
                "jain_mean": _mean(agg["jain"]),
                "phi_mean": _mean(agg["phi"]),
                "rr_mean": _mean(agg["rr"]),
                "sampled": agg["sampled"],
                "converged": agg["converged"],
                "convergence_time_s": (
                    _mean(agg["convergence_times"])
                    if agg["convergence_times"]
                    else None
                ),
                "oscillations": agg["oscillations"],
                "sync_losses": agg["sync_losses"],
            }
        )
    return rows


def render_fairness_summary(rows: List[Dict[str, Any]]) -> str:
    """Table view of :func:`summarize_fairness` rows."""
    lines = [
        f"{'runs':>4s} {'jain':>8s} {'phi':>8s} {'rr':>10s} "
        f"{'conv':>9s} {'osc':>4s} {'sync':>4s}  cell"
    ]
    for r in rows:
        conv = (
            f"{r['convergence_time_s']:.2f}s"
            if r["convergence_time_s"] is not None
            else (f"0/{r['sampled']}" if r["sampled"] else "-")
        )
        lines.append(
            f"{r['runs']:>4d} {r['jain_mean']:>8.4f} {r['phi_mean']:>8.4f} "
            f"{r['rr_mean']:>10.1f} {conv:>9s} {r['oscillations']:>4d} "
            f"{r['sync_losses']:>4d}  {r['cell']}"
        )
    lines.append(f"{len(rows)} cells")
    return "\n".join(lines)
