"""The paper's figures, declared once.

:data:`FIGURES` maps each figure of the evaluation to a :class:`Figure`:
its title, the AQM slice it needs, its series builder, its text renderer
and its CSV layout.  ``repro report --what <name>``,
:func:`~repro.analysis.summary_report.full_report` and
:func:`~repro.analysis.export_figures.export_all_figures` are look-ups
and loops over it; nothing else lists the figures.

Three series shapes cover the seven figures:

- *throughput panels* — per-sender throughput vs buffer size, one panel
  per inter-CCA pair and bandwidth (Figures 2 and 4);
- *Jain panels* — Jain index vs bandwidth at the spotlight buffer sizes,
  inter- and intra-CCA (Figures 3, 5 and 6);
- *intra-CCA metric panels* — one metric vs bandwidth per AQM and
  spotlight buffer size (Figures 7 and 8).

Series are plain dicts of lists; plotting is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.analysis.aggregate import ResultSet
from repro.analysis.report import (
    render_inter_panels,
    render_intra_metric_panels,
    render_jain_panels,
)
from repro.units import format_rate

#: A figure's series: panels of value lists, keyed two levels deep
#: (pair and bandwidth, kind and buffer, or AQM and buffer).
Series = Dict[str, Dict[str, Dict[str, List[float]]]]

#: The buffer sizes the Jain and intra-CCA figures plot (paper Figs 3, 5-8).
SPOTLIGHT_BUFFERS: Tuple[float, float] = (2.0, 16.0)


def throughput_series(results: ResultSet, aqm: str) -> Series:
    """Per-sender throughput vs buffer size for each inter-CCA pair and BW.

    Returns ``{pair_label: {bw_label: {"buffers": [...], "cca1_bps": [...],
    "cca2_bps": [...]}}}`` — one panel per (pair, bw), matching the paper's
    (a)-(t) grid.
    """
    out: Series = {}
    cells = results.filter(aqm=aqm).cells()
    for key in sorted(cells):
        (cca1, cca2), _, buf, bw = key
        if cca1 == cca2:
            continue
        stats = cells[key]
        panel = out.setdefault(f"{cca1}-vs-{cca2}", {}).setdefault(
            format_rate(bw), {"buffers": [], "cca1_bps": [], "cca2_bps": []}
        )
        panel["buffers"].append(buf)
        panel["cca1_bps"].append(stats.sender1_bps)
        panel["cca2_bps"].append(stats.sender2_bps)
    return out


def jain_panel_series(results: ResultSet, aqm: str) -> Series:
    """Jain index vs bandwidth at the spotlight buffer sizes.

    Returns ``{"inter"|"intra": {buffer_label: {pair_label: [J per bw],
    "bandwidths": [...]}}}``; a missing cell is NaN.
    """
    cells = results.filter(aqm=aqm).cells()
    bandwidths = sorted({k[3] for k in cells})
    pairs = sorted({k[0] for k in cells})
    out: Series = {"inter": {}, "intra": {}}
    for buf in SPOTLIGHT_BUFFERS:
        buf_label = f"{buf:g}bdp"
        for kind in ("inter", "intra"):
            out[kind][buf_label] = {"bandwidths": list(bandwidths)}
        for pair in pairs:
            kind = "intra" if pair[0] == pair[1] else "inter"
            series = []
            for bw in bandwidths:
                stats = cells.get((pair, aqm, buf, bw))
                series.append(stats.jain_index if stats else float("nan"))
            out[kind][buf_label][f"{pair[0]}-vs-{pair[1]}"] = series
    return out


def intra_metric_series(results: ResultSet, metric: str) -> Series:
    """An intra-CCA metric vs bandwidth per AQM and spotlight buffer size:
    ``{aqm: {buffer_label: {cca: [value per bw], "bandwidths": [...]}}}``;
    a missing cell is NaN."""
    cells = results.cells()
    bandwidths = sorted({k[3] for k in cells})
    aqms = sorted({k[1] for k in cells})
    pairs = sorted({k[0] for k in cells if k[0][0] == k[0][1]})
    out: Series = {}
    for aqm in aqms:
        out[aqm] = {}
        for buf in SPOTLIGHT_BUFFERS:
            panel: Dict[str, List[float]] = {"bandwidths": list(bandwidths)}
            for pair in pairs:
                series = []
                for bw in bandwidths:
                    stats = cells.get((pair, aqm, buf, bw))
                    series.append(getattr(stats, metric) if stats else float("nan"))
                panel[pair[0]] = series
            out[aqm][f"{buf:g}bdp"] = panel
    return out


def equilibrium_points(
    series: Series, pair_label: str
) -> Dict[str, float]:
    """The buffer size where CCA1's advantage over CUBIC flips (Fig 2's
    "equilibrium point"), per bandwidth panel.

    Linear interpolation between the last buffer where CCA1 leads and the
    first where CCA2 does.  ``inf`` if CCA1 never loses the lead, ``0`` if
    it never has it.
    """
    out: Dict[str, float] = {}
    for bw_label, panel in series[pair_label].items():
        buffers = panel["buffers"]
        gaps = [a - b for a, b in zip(panel["cca1_bps"], panel["cca2_bps"])]
        if gaps[0] <= 0:
            out[bw_label] = 0.0
            continue
        crossing = None
        for i in range(1, len(gaps)):
            if gaps[i] <= 0:
                # Interpolate between buffers[i-1] (lead) and buffers[i].
                g0, g1 = gaps[i - 1], gaps[i]
                frac = g0 / (g0 - g1) if g0 != g1 else 0.0
                crossing = buffers[i - 1] + frac * (buffers[i] - buffers[i - 1])
                break
        out[bw_label] = crossing if crossing is not None else float("inf")
    return out


def _equilibrium_section(series: Series) -> Optional[Tuple[str, str]]:
    """The BBRv1-vs-CUBIC equilibrium points of a throughput series, as a
    report section ``(title, body)``; None without that pair."""
    if "bbrv1-vs-cubic" not in series:
        return None
    points = equilibrium_points(series, "bbrv1-vs-cubic")
    body = "\n".join(f"  {bw}: {buf:g} BDP" for bw, buf in points.items())
    return "FIGURE 2 — BBRv1-vs-CUBIC equilibrium points (paper: 2 -> 3.5 BDP)", body


# -- CSV row layouts: long format, one row per plotted value ---------------------


def _throughput_rows(series: Series) -> List[List]:
    rows = []
    for pair_label, panels in series.items():
        cca1, _, cca2 = pair_label.partition("-vs-")
        for bw_label, panel in panels.items():
            for buf, a, b in zip(panel["buffers"], panel["cca1_bps"], panel["cca2_bps"]):
                rows.append([cca1, cca2, bw_label, buf, a, b])
    return rows


def _panel_rows(series: Series) -> List[List]:
    """Rows of a Jain or intra-CCA metric series: ``[outer, buffer, name,
    bandwidth, value]``, where ``outer`` is the kind or the AQM."""
    rows = []
    for outer, bufs in series.items():
        for buf_label, panel in bufs.items():
            bandwidths = panel["bandwidths"]
            for name, values in panel.items():
                if name == "bandwidths":
                    continue
                for bw, value in zip(bandwidths, values):
                    rows.append([outer, buf_label, name, bw, value])
    return rows


@dataclass(frozen=True)
class Figure:
    """One paper figure: how to build, print and export it."""

    title: str
    #: The AQM slice the figure plots; None = every AQM the results hold.
    aqm: Optional[str]
    #: The series builder, called with the results and :attr:`aqm`.
    build: Callable[[ResultSet, Optional[str]], Series]
    render: Callable[[Series], str]
    csv_header: Tuple[str, ...]
    csv_rows: Callable[[Series], List[List]]
    #: The report section ``(title, body)`` the full report prints before
    #: the figure's panels, from its series (None: no section).
    summary: Optional[Callable[[Series], Optional[Tuple[str, str]]]] = None

    def series(self, results: ResultSet) -> Series:
        """The figure's series for ``results``."""
        return self.build(results, self.aqm)

    def available(self, aqms: Collection[str]) -> bool:
        """Whether results holding ``aqms`` have the figure's slice."""
        return self.aqm is None or self.aqm in aqms


def _throughput(title: str, aqm: str, summary: Optional[Callable] = None) -> Figure:
    return Figure(
        title, aqm, throughput_series, render_inter_panels,
        ("cca1", "cca2", "bandwidth", "buffer_bdp", "cca1_bps", "cca2_bps"),
        _throughput_rows, summary,
    )


def _jain(title: str, aqm: str) -> Figure:
    return Figure(
        title, aqm, jain_panel_series, render_jain_panels,
        ("kind", "buffer", "pair", "bandwidth_bps", "jain_index"), _panel_rows,
    )


def _intra(title: str, metric: str, column: str, fmt: str) -> Figure:
    return Figure(
        title, None, lambda results, _aqm: intra_metric_series(results, metric),
        partial(render_intra_metric_panels, fmt=fmt),
        ("aqm", "buffer", "cca", "bandwidth_bps", column), _panel_rows,
    )


#: Every figure of the paper's evaluation, in paper order.
FIGURES: Dict[str, Figure] = {
    "fig2": _throughput("FIGURE 2 — per-sender throughput, FIFO", "fifo",
                        summary=_equilibrium_section),
    "fig3": _jain("FIGURE 3 — Jain index, FIFO", "fifo"),
    "fig4": _throughput("FIGURE 4 — per-sender throughput, RED", "red"),
    "fig5": _jain("FIGURE 5 — Jain index, RED", "red"),
    "fig6": _jain("FIGURE 6 — Jain index, FQ_CODEL", "fq_codel"),
    "fig7": _intra("FIGURE 7 — link utilization, intra-CCA",
                   "link_utilization", "link_utilization", "{:>10.3f}"),
    "fig8": _intra("FIGURE 8 — retransmissions, intra-CCA",
                   "total_retransmits", "retransmissions", "{:>10.0f}"),
}
