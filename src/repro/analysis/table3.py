"""Table 3: overall performance comparison.

For every (CCA pair, AQM) combination the paper reports, averaged over all
buffer sizes, bandwidths, and repetitions:

- ``Avg(phi)``     — mean link utilization,
- ``Avg(RR)``      — mean retransmissions *relative to the CUBIC-vs-CUBIC
  run under the same AQM/buffer/bandwidth condition* (paper eq. 4), and
- ``Avg(J_index)`` — mean Jain fairness index.

:data:`PAPER_TABLE3` embeds the paper's published numbers so reports can
show paper-vs-measured side by side (EXPERIMENTS.md is generated from
exactly this comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.aggregate import CellKey, CellStats, ResultSet

PairKey = Tuple[str, str, str]  # (cca1, cca2, aqm)

#: The paper's Table 3 (Avg(phi), Avg(RR), Avg(J_index)).
PAPER_TABLE3: Dict[PairKey, Tuple[float, float, float]] = {
    ("bbrv1", "bbrv1", "fifo"): (0.986, 23.164, 0.995),
    ("bbrv1", "cubic", "fifo"): (0.997, 14.916, 0.803),
    ("bbrv2", "bbrv2", "fifo"): (0.995, 1.141, 0.98),
    ("bbrv2", "cubic", "fifo"): (0.998, 1.823, 0.934),
    ("htcp", "htcp", "fifo"): (0.999, 2.493, 1.0),
    ("htcp", "cubic", "fifo"): (0.997, 1.624, 0.971),
    ("reno", "reno", "fifo"): (0.997, 1.235, 0.994),
    ("reno", "cubic", "fifo"): (0.998, 1.01, 0.847),
    ("cubic", "cubic", "fifo"): (0.995, 1.0, 0.997),
    ("bbrv1", "bbrv1", "red"): (0.938, 47.687, 0.938),
    ("bbrv1", "cubic", "red"): (0.94, 41.056, 0.522),
    ("bbrv2", "bbrv2", "red"): (0.903, 4.872, 0.999),
    ("bbrv2", "cubic", "red"): (0.901, 3.675, 0.722),
    ("htcp", "htcp", "red"): (0.794, 1.497, 0.999),
    ("htcp", "cubic", "red"): (0.796, 1.272, 0.979),
    ("reno", "reno", "red"): (0.738, 1.281, 1.0),
    ("reno", "cubic", "red"): (0.766, 1.136, 1.0),
    ("cubic", "cubic", "red"): (0.788, 1.0, 1.0),
    ("bbrv1", "bbrv1", "fq_codel"): (0.971, 24.468, 1.0),
    ("bbrv1", "cubic", "fq_codel"): (0.97, 13.986, 0.994),
    ("bbrv2", "bbrv2", "fq_codel"): (0.977, 4.386, 1.0),
    ("bbrv2", "cubic", "fq_codel"): (0.975, 2.312, 0.998),
    ("htcp", "htcp", "fq_codel"): (0.969, 1.135, 1.0),
    ("htcp", "cubic", "fq_codel"): (0.972, 1.057, 1.0),
    ("reno", "reno", "fq_codel"): (0.94, 0.852, 1.0),
    ("reno", "cubic", "fq_codel"): (0.96, 0.891, 0.998),
    ("cubic", "cubic", "fq_codel"): (0.974, 1.0, 1.0),
}


@dataclass
class Table3Row:
    cca1: str
    cca2: str
    aqm: str
    avg_utilization: float
    avg_rr: float
    avg_jain: float
    cells: int
    paper: Optional[Tuple[float, float, float]] = None

    @property
    def key(self) -> PairKey:
        return (self.cca1, self.cca2, self.aqm)


def build_table3(results: ResultSet) -> List[Table3Row]:
    """Compute Table 3 rows from a result set.

    Needs CUBIC-vs-CUBIC runs for every (AQM, buffer, bandwidth) condition
    present, since RR normalizes against them (conditions with a zero
    CUBIC baseline fall back to retransmits + 1 to stay finite).
    """
    return table3_rows(results.cells())


def table3_rows(cells: Dict[CellKey, CellStats]) -> List[Table3Row]:
    """:func:`build_table3` over cells already averaged
    (:meth:`ResultSet.cells`)."""
    # Baseline retransmissions per (aqm, buffer, bw).
    baseline: Dict[Tuple[str, float, float], float] = {}
    for key, stats in cells.items():
        pair, aqm, buf, bw = key
        if pair == ("cubic", "cubic"):
            baseline[(aqm, buf, bw)] = stats.total_retransmits

    grouped: Dict[PairKey, List[CellStats]] = {}
    for key, stats in cells.items():
        pair, aqm, _, _ = key
        grouped.setdefault((pair[0], pair[1], aqm), []).append(stats)

    rows: List[Table3Row] = []
    for (cca1, cca2, aqm), group in sorted(grouped.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])):
        rr_values = []
        for stats in group:
            base = baseline.get((stats.aqm, stats.buffer_bdp, stats.bandwidth_bps))
            if base is None:
                continue
            denom = base if base > 0 else 1.0
            rr_values.append(stats.total_retransmits / denom)
        rows.append(
            Table3Row(
                cca1=cca1,
                cca2=cca2,
                aqm=aqm,
                avg_utilization=sum(s.link_utilization for s in group) / len(group),
                avg_rr=sum(rr_values) / len(rr_values) if rr_values else float("nan"),
                avg_jain=sum(s.jain_index for s in group) / len(group),
                cells=len(group),
                paper=PAPER_TABLE3.get((cca1, cca2, aqm)),
            )
        )
    return rows


def render_table3(rows: List[Table3Row], *, show_paper: bool = True) -> str:
    """ASCII rendering, paper values alongside when available."""
    header = f"{'CCA1 vs CCA2':<17s} {'AQM':<9s} {'Avg(phi)':>9s} {'Avg(RR)':>9s} {'Avg(J)':>7s}"
    if show_paper:
        header += f"   {'paper phi':>9s} {'paper RR':>9s} {'paper J':>8s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        line = (
            f"{row.cca1 + ' vs ' + row.cca2:<17s} {row.aqm:<9s} "
            f"{row.avg_utilization:>9.3f} {row.avg_rr:>9.3f} {row.avg_jain:>7.3f}"
        )
        if show_paper:
            if row.paper:
                line += f"   {row.paper[0]:>9.3f} {row.paper[1]:>9.3f} {row.paper[2]:>8.3f}"
            else:
                line += "   " + " ".join(["-".rjust(w) for w in (9, 9, 8)])
        lines.append(line)
    return "\n".join(lines)
