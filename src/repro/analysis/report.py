"""Plain-text report rendering for figure series.

Every figure ``repro report`` prints goes through here (each entry of
:data:`~repro.analysis.figures.FIGURES` names its renderer), so the
regenerated "figures" are stable, diff-able text blocks rather than images.
"""

from __future__ import annotations

from typing import Dict, List

from repro.units import format_rate


def render_inter_panels(series: Dict, *, unit: float = 1e6, unit_label: str = "Mbps") -> str:
    """Render Fig 2/4-style panels: throughput vs buffer per (pair, bw)."""
    lines: List[str] = []
    for pair_label, panels in series.items():
        cca1, _, cca2 = pair_label.partition("-vs-")
        for bw_label, panel in panels.items():
            lines.append(f"[{pair_label} @ {bw_label}]")
            lines.append(f"  {'buffer':>8s} {cca1:>12s} {cca2:>12s}")
            for buf, a, b in zip(panel["buffers"], panel["cca1_bps"], panel["cca2_bps"]):
                lines.append(
                    f"  {buf:>6.1f}x {a / unit:>10.2f} {b / unit:>10.2f}  {unit_label}"
                )
            lines.append("")
    return "\n".join(lines)


def render_jain_panels(series: Dict) -> str:
    """Render Fig 3/5/6-style panels: Jain index vs bandwidth."""
    lines: List[str] = []
    for kind in ("inter", "intra"):
        for buf_label, panel in series.get(kind, {}).items():
            lines.append(f"[{kind}-CCA, buffer={buf_label}]")
            bandwidths = panel["bandwidths"]
            header = "  " + "pair".ljust(18) + " ".join(
                format_rate(bw).rjust(10) for bw in bandwidths
            )
            lines.append(header)
            for name, values in panel.items():
                if name == "bandwidths":
                    continue
                row = "  " + name.ljust(18) + " ".join(f"{v:>10.3f}" for v in values)
                lines.append(row)
            lines.append("")
    return "\n".join(lines)


def render_intra_metric_panels(series: Dict, *, fmt: str = "{:>10.3f}") -> str:
    """Render Fig 7/8-style panels: a metric vs bandwidth per AQM/buffer."""
    lines: List[str] = []
    for aqm, bufs in series.items():
        for buf_label, panel in bufs.items():
            lines.append(f"[{aqm}, buffer={buf_label}]")
            bandwidths = panel["bandwidths"]
            lines.append(
                "  " + "cca".ljust(10) + " ".join(format_rate(bw).rjust(10) for bw in bandwidths)
            )
            for name, values in panel.items():
                if name == "bandwidths":
                    continue
                lines.append("  " + name.ljust(10) + " ".join(fmt.format(v) for v in values))
            lines.append("")
    return "\n".join(lines)
