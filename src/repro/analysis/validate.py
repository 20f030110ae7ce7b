"""Automated shape validation against the paper's qualitative claims.

``validate_claims`` takes a :class:`~repro.analysis.aggregate.ResultSet`
(any slice of the grid) and evaluates every paper claim that the data can
speak to, returning one :class:`ClaimResult` per claim — the machine-
readable version of DESIGN.md §4's shape-target list.  Claims whose
required cells are absent report ``skipped`` rather than failing, so the
validator works on partial sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.aggregate import CellStats, ResultSet
from repro.analysis.figures import SPOTLIGHT_BUFFERS
from repro.analysis.table3 import table3_rows
from repro.units import gbps, mbps


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: Optional[bool]  # None = skipped (insufficient data)
    detail: str = ""

    @property
    def skipped(self) -> bool:
        return self.passed is None


class _Checker:
    """Helper exposing cell lookups with a 'skip' escape hatch."""

    class Missing(Exception):
        pass

    def __init__(self, results: ResultSet):
        self.cells = results.cells()
        self.bandwidths = sorted({k[3] for k in self.cells})
        self.buffers = sorted({k[2] for k in self.cells})

    def cell(self, pair: Tuple[str, str], aqm: str, buf: float, bw: float) -> CellStats:
        stats = self.cells.get((pair, aqm, buf, bw))
        if stats is None:
            raise _Checker.Missing()
        return stats

    def cells_where(self, **conditions) -> List[CellStats]:
        out = []
        for (pair, aqm, buf, bw), stats in self.cells.items():
            if conditions.get("pair") not in (None, pair):
                continue
            if conditions.get("aqm") not in (None, aqm):
                continue
            if conditions.get("buf") not in (None, buf):
                continue
            if conditions.get("bw") not in (None, bw):
                continue
            out.append(stats)
        if not out:
            raise _Checker.Missing()
        return out


def _claim_fifo_equilibrium(c: _Checker) -> Tuple[bool, str]:
    """BBRv1 beats CUBIC in the smallest FIFO buffer, loses in the largest."""
    small_buf, large_buf = c.buffers[0], c.buffers[-1]
    if not (small_buf <= 1.0 and large_buf >= 8.0):
        raise _Checker.Missing()
    oks, details = [], []
    for bw in c.bandwidths:
        small = c.cell(("bbrv1", "cubic"), "fifo", small_buf, bw)
        large = c.cell(("bbrv1", "cubic"), "fifo", large_buf, bw)
        ok = small.sender1_bps > small.sender2_bps and large.sender2_bps > large.sender1_bps
        oks.append(ok)
        details.append(f"{bw / 1e6:.0f}Mbps:{'ok' if ok else 'FLIPPED'}")
    return all(oks), " ".join(details)


def _claim_red_starves_cubic(c: _Checker) -> Tuple[bool, str]:
    """Under RED, BBRv1 takes > 2x CUBIC's share everywhere."""
    cells = c.cells_where(pair=("bbrv1", "cubic"), aqm="red")
    bad = [x for x in cells if x.sender1_bps <= 2 * x.sender2_bps]
    return not bad, f"{len(cells) - len(bad)}/{len(cells)} cells dominated"


def _claim_red_worst_fairness(c: _Checker) -> Tuple[bool, str]:
    """Mean J(BBRv1 vs CUBIC) is lower under RED than under FIFO/FQ."""
    means = {}
    for aqm in ("red", "fifo", "fq_codel"):
        cells = c.cells_where(pair=("bbrv1", "cubic"), aqm=aqm)
        means[aqm] = sum(x.jain_index for x in cells) / len(cells)
    ok = means["red"] <= min(means["fifo"], means["fq_codel"]) + 1e-9
    return ok, " ".join(f"{k}={v:.3f}" for k, v in means.items())


def _claim_fq_codel_fair(c: _Checker) -> Tuple[bool, str]:
    """FQ_CODEL: mean J > 0.9 for every pair."""
    cells = c.cells_where(aqm="fq_codel")
    per_pair: Dict[Tuple[str, str], List[float]] = {}
    for x in cells:
        per_pair.setdefault(x.pair, []).append(x.jain_index)
    bad = {p: sum(v) / len(v) for p, v in per_pair.items() if sum(v) / len(v) <= 0.9}
    return not bad, f"{len(per_pair) - len(bad)}/{len(per_pair)} pairs fair" + (
        f"; worst {bad}" if bad else ""
    )


def _claim_fifo_full_utilization(c: _Checker) -> Tuple[bool, str]:
    """FIFO lets every CCA fill the link (intra-CCA).

    Mean utilization per (pair, bandwidth) must exceed 0.85 and no single
    cell may fall under 0.75 (short runs make the smallest-buffer cells a
    little noisy).
    """
    cells = [x for x in c.cells_where(aqm="fifo") if x.pair[0] == x.pair[1]]
    if not cells:
        raise _Checker.Missing()
    groups: Dict[Tuple, List[float]] = {}
    for x in cells:
        groups.setdefault((x.pair, x.bandwidth_bps), []).append(x.link_utilization)
    mean_bad = {k: sum(v) / len(v) for k, v in groups.items() if sum(v) / len(v) <= 0.85}
    cell_bad = [x for x in cells if x.link_utilization <= 0.75]
    ok = not mean_bad and not cell_bad
    return ok, (
        f"{len(groups) - len(mean_bad)}/{len(groups)} group means full; "
        f"{len(cells) - len(cell_bad)}/{len(cells)} cells above floor"
    )


def _claim_red_high_bw_degradation(c: _Checker) -> Tuple[bool, str]:
    """RED's loss-based utilization at the top tier trails the bottom tier."""
    lo_bw, hi_bw = c.bandwidths[0], c.bandwidths[-1]
    if hi_bw < 10 * lo_bw:
        raise _Checker.Missing()
    oks = []
    for cca in ("reno", "cubic"):
        lo = c.cells_where(pair=(cca, cca), aqm="red", bw=lo_bw)
        hi = c.cells_where(pair=(cca, cca), aqm="red", bw=hi_bw)
        lo_phi = sum(x.link_utilization for x in lo) / len(lo)
        hi_phi = sum(x.link_utilization for x in hi) / len(hi)
        oks.append(hi_phi < lo_phi + 0.02)
    return all(oks), f"checked reno/cubic {lo_bw / 1e6:.0f}->{hi_bw / 1e6:.0f} Mbps"


def _claim_retx_ordering(c: _Checker) -> Tuple[bool, str]:
    """BBRv1's retransmissions exceed every other CCA's, per AQM (intra)."""
    oks, details = [], []
    for aqm in ("fifo", "red", "fq_codel"):
        try:
            bbr1 = c.cells_where(pair=("bbrv1", "bbrv1"), aqm=aqm)
        except _Checker.Missing:
            continue
        bbr1_retx = sum(x.total_retransmits for x in bbr1) / len(bbr1)
        for cca in ("bbrv2", "htcp", "reno", "cubic"):
            try:
                other = c.cells_where(pair=(cca, cca), aqm=aqm)
            except _Checker.Missing:
                continue
            other_retx = sum(x.total_retransmits for x in other) / len(other)
            ok = bbr1_retx > other_retx
            oks.append(ok)
            if not ok:
                details.append(f"{aqm}:{cca} {other_retx:.0f} >= bbrv1 {bbr1_retx:.0f}")
    if not oks:
        raise _Checker.Missing()
    return all(oks), "; ".join(details) if details else f"{len(oks)} comparisons hold"


def _claim_retx_grow_with_bw(c: _Checker) -> Tuple[bool, str]:
    """RED/FQ_CODEL retransmissions at the top tier exceed the bottom tier."""
    lo_bw, hi_bw = c.bandwidths[0], c.bandwidths[-1]
    if hi_bw < 10 * lo_bw:
        raise _Checker.Missing()
    oks = []
    for aqm in ("red", "fq_codel"):
        for cca in ("cubic", "reno"):
            lo = c.cells_where(pair=(cca, cca), aqm=aqm, bw=lo_bw)
            hi = c.cells_where(pair=(cca, cca), aqm=aqm, bw=hi_bw)
            oks.append(
                sum(x.total_retransmits for x in hi) > sum(x.total_retransmits for x in lo)
            )
    return all(oks), f"{sum(oks)}/{len(oks)} (aqm x cca) growth checks hold"


def _claim_intra_cca_fair(c: _Checker) -> Tuple[bool, str]:
    """Intra-CCA pairs (other than BBRv1 under RED) share fairly."""
    cells = [
        x
        for x in c.cells_where()
        if x.pair[0] == x.pair[1] and not (x.pair[0] == "bbrv1" and x.aqm == "red")
    ]
    if not cells:
        raise _Checker.Missing()
    per_key: Dict[Tuple, List[float]] = {}
    for x in cells:
        per_key.setdefault((x.pair[0], x.aqm), []).append(x.jain_index)
    bad = {k: sum(v) / len(v) for k, v in per_key.items() if sum(v) / len(v) <= 0.85}
    return not bad, f"worst offenders: {bad}" if bad else f"{len(per_key)} (cca, aqm) groups fair"


def _mean_jain_by_buffer(cells: List[CellStats]) -> Dict[str, float]:
    """Mean J over ``cells`` (``"all"``) and at each spotlight buffer size
    they hold."""
    groups = {"all": cells}
    for buf in SPOTLIGHT_BUFFERS:
        at = [x for x in cells if x.buffer_bdp == buf]
        if at:
            groups[f"{buf:g}bdp"] = at
    return {k: sum(x.jain_index for x in v) / len(v) for k, v in groups.items()}


def _claim_red_bbr_unfair(c: _Checker) -> Tuple[bool, str]:
    """Under RED, mean J(BBRv1 vs CUBIC) stays below 0.75 (paper: 0.52),
    over the slice and at each spotlight buffer."""
    means = _mean_jain_by_buffer(c.cells_where(pair=("bbrv1", "cubic"), aqm="red"))
    return all(m < 0.75 for m in means.values()), " ".join(
        f"{k}={v:.3f}" for k, v in means.items()
    )


def _claim_fifo_deep_buffer_unfair(c: _Checker) -> Tuple[bool, str]:
    """At 16 BDP under FIFO, J(BBRv1 vs CUBIC) drops below 0.9 at some tier."""
    cells = c.cells_where(pair=("bbrv1", "cubic"), aqm="fifo", buf=16.0)
    worst = min(cells, key=lambda x: x.jain_index)
    return worst.jain_index < 0.9, (
        f"min J={worst.jain_index:.3f} at {worst.bandwidth_bps / 1e6:.0f}Mbps"
    )


def _claim_red_reno_balanced(c: _Checker) -> Tuple[bool, str]:
    """Under RED, Reno and CUBIC split the link: in every cell the gap is
    under 0.6 of the total, and mean J exceeds 0.9 at each spotlight buffer."""
    cells = c.cells_where(pair=("reno", "cubic"), aqm="red")
    lopsided = [
        x for x in cells
        if abs(x.sender1_bps - x.sender2_bps) >= 0.6 * (x.sender1_bps + x.sender2_bps)
    ]
    means = _mean_jain_by_buffer(cells)
    spotlight = {k: v for k, v in means.items() if k != "all"}
    ok = not lopsided and all(m > 0.9 for m in spotlight.values())
    return ok, f"{len(cells) - len(lopsided)}/{len(cells)} cells balanced" + "".join(
        f" {k}={v:.3f}" for k, v in spotlight.items()
    )


def _claim_red_util_below_fifo(c: _Checker) -> Tuple[bool, str]:
    """Mean utilization under RED trails FIFO's, over the cells both hold."""
    phi = {
        aqm: {(x.pair, x.buffer_bdp, x.bandwidth_bps): x.link_utilization
              for x in c.cells_where(aqm=aqm)}
        for aqm in ("red", "fifo")
    }
    common = phi["red"].keys() & phi["fifo"].keys()
    if not common:
        raise _Checker.Missing()
    red, fifo = (sum(phi[aqm][k] for k in common) / len(common) for aqm in ("red", "fifo"))
    return red < fifo, f"red={red:.3f} fifo={fifo:.3f} over {len(common)} cells"


def _claim_fq_codel_25g_shortfall(c: _Checker) -> Tuple[bool, str]:
    """At 2 BDP, FQ_CODEL keeps CUBIC and BBRv2 above 0.85 utilization at
    1 Gbps, and at 25 Gbps no more than 0.05 above FIFO."""
    oks, details = [], []
    for cca in ("cubic", "bbrv2"):
        pair = (cca, cca)
        at_1g = c.cell(pair, "fq_codel", 2.0, gbps(1)).link_utilization
        at_25g = c.cell(pair, "fq_codel", 2.0, gbps(25)).link_utilization
        fifo_25g = c.cell(pair, "fifo", 2.0, gbps(25)).link_utilization
        oks.append(at_1g > 0.85 and at_25g <= fifo_25g + 0.05)
        details.append(f"{cca} 1G={at_1g:.3f} 25G={at_25g:.3f} (fifo {fifo_25g:.3f})")
    return all(oks), "; ".join(details)


def _claim_bbr_large_fifo_loss_free(c: _Checker) -> Tuple[bool, str]:
    """BBRv1/BBRv2 at 100 Mbps under FIFO: a 16 BDP buffer retransmits at
    most 5 more than a 2 BDP one (the 2 x BDP inflight cap)."""
    oks, details = [], []
    for cca in ("bbrv1", "bbrv2"):
        pair = (cca, cca)
        large = c.cell(pair, "fifo", 16.0, mbps(100)).total_retransmits
        small = c.cell(pair, "fifo", 2.0, mbps(100)).total_retransmits
        oks.append(large <= small + 5)
        details.append(f"{cca} 16bdp={large:.0f} 2bdp={small:.0f}")
    return all(oks), "; ".join(details)


def _spotlight_jain_above(
    c: _Checker, aqm: str, floor: float, keep: Callable[[Tuple[str, str]], bool]
) -> Tuple[bool, str]:
    """Under ``aqm``, each kept pair's mean J over the bandwidth tiers
    exceeds ``floor`` at each spotlight buffer."""
    groups: Dict[Tuple, List[float]] = {}
    for x in c.cells_where(aqm=aqm):
        if x.buffer_bdp in SPOTLIGHT_BUFFERS and keep(x.pair):
            groups.setdefault((x.pair, x.buffer_bdp), []).append(x.jain_index)
    if not groups:
        raise _Checker.Missing()
    means = {k: sum(v) / len(v) for k, v in groups.items()}
    bad = [f"{p[0]}-vs-{p[1]}@{b:g}bdp={m:.3f}" for (p, b), m in sorted(means.items())
           if m <= floor]
    return not bad, f"{len(means) - len(bad)}/{len(means)} (pair, buffer) means > {floor:g}" + (
        f"; below: {' '.join(bad)}" if bad else ""
    )


def _claim_fifo_intra_fair_spotlight(c: _Checker) -> Tuple[bool, str]:
    """FIFO: every intra-CCA pair's mean J > 0.85 at 2 and 16 BDP."""
    return _spotlight_jain_above(c, "fifo", 0.85, lambda p: p[0] == p[1])


def _claim_red_intra_fair_spotlight(c: _Checker) -> Tuple[bool, str]:
    """RED: CUBIC, Reno and HTCP intra-CCA mean J > 0.9 at 2 and 16 BDP."""
    return _spotlight_jain_above(
        c, "red", 0.9, lambda p: p[0] == p[1] and p[0] in ("cubic", "reno", "htcp")
    )


def _claim_fifo_spotlight_full(c: _Checker) -> Tuple[bool, str]:
    """FIFO: every intra-CCA cell at 2 and 16 BDP has utilization > 0.8."""
    cells = [x for x in c.cells_where(aqm="fifo")
             if x.pair[0] == x.pair[1] and x.buffer_bdp in SPOTLIGHT_BUFFERS]
    if not cells:
        raise _Checker.Missing()
    worst = min(cells, key=lambda x: x.link_utilization)
    ok = worst.link_utilization > 0.8
    return ok, (
        f"min phi={worst.link_utilization:.3f} ({worst.pair[0]}, {worst.buffer_bdp:g} BDP, "
        f"{worst.bandwidth_bps / 1e6:.0f}Mbps) over {len(cells)} cells"
    )


def _claim_red_2bdp_degradation(c: _Checker) -> Tuple[bool, str]:
    """RED at 2 BDP: Reno, CUBIC and HTCP utilization at 25 Gbps is under
    their 100 Mbps utilization + 0.02."""
    oks, details = [], []
    for cca in ("reno", "cubic", "htcp"):
        lo = c.cell((cca, cca), "red", 2.0, mbps(100)).link_utilization
        hi = c.cell((cca, cca), "red", 2.0, gbps(25)).link_utilization
        oks.append(hi < lo + 0.02)
        details.append(f"{cca} 100M={lo:.3f} 25G={hi:.3f}")
    return all(oks), "; ".join(details)


def _claim_retx_grow_2bdp(c: _Checker) -> Tuple[bool, str]:
    """RED and FQ_CODEL at 2 BDP: CUBIC, Reno and BBRv1 retransmit more at
    10 Gbps than at 100 Mbps."""
    oks, details = [], []
    for aqm in ("red", "fq_codel"):
        for cca in ("cubic", "reno", "bbrv1"):
            lo = c.cell((cca, cca), aqm, 2.0, mbps(100)).total_retransmits
            hi = c.cell((cca, cca), aqm, 2.0, gbps(10)).total_retransmits
            oks.append(hi > lo)
            if hi <= lo:
                details.append(f"{aqm}:{cca} 10G={hi:.0f} <= 100M={lo:.0f}")
    return all(oks), "; ".join(details) if details else f"{len(oks)} growth checks hold"


def _claim_red_bbrv1_retx_top(c: _Checker) -> Tuple[bool, str]:
    """RED at 2 BDP and 10 Gbps: BBRv1 retransmits more than CUBIC, Reno,
    HTCP and BBRv2."""
    bbr1 = c.cell(("bbrv1", "bbrv1"), "red", 2.0, gbps(10)).total_retransmits
    others = {cca: c.cell((cca, cca), "red", 2.0, gbps(10)).total_retransmits
              for cca in ("cubic", "reno", "htcp", "bbrv2")}
    return all(bbr1 > v for v in others.values()), f"bbrv1={bbr1:.0f} " + " ".join(
        f"{k}={v:.0f}" for k, v in others.items()
    )


def _claim_bbrv1_rr_highest(c: _Checker) -> Tuple[bool, str]:
    """Table 3: BBRv1's Avg(RR) exceeds BBRv2's, HTCP's, Reno's and
    CUBIC's, per AQM."""
    rr = {(r.cca1, r.aqm): r.avg_rr for r in table3_rows(c.cells)
          if r.cca1 == r.cca2 and not math.isnan(r.avg_rr)}
    compared = [(aqm, cca) for aqm in ("fifo", "red", "fq_codel") if ("bbrv1", aqm) in rr
                for cca in ("bbrv2", "htcp", "reno", "cubic") if (cca, aqm) in rr]
    if not compared:
        raise _Checker.Missing()
    bad = [f"{aqm}:{cca} {rr[cca, aqm]:.2f} >= bbrv1 {rr['bbrv1', aqm]:.2f}"
           for aqm, cca in compared if rr["bbrv1", aqm] <= rr[cca, aqm]]
    return not bad, "; ".join(bad) if bad else f"{len(compared)} comparisons hold"


CLAIMS: List[Tuple[str, str, Callable[[_Checker], Tuple[bool, str]]]] = [
    ("fifo-equilibrium", "FIFO: BBRv1 wins small buffers, CUBIC wins large ones", _claim_fifo_equilibrium),
    ("red-starves-cubic", "RED: BBRv1 dominates CUBIC at every cell", _claim_red_starves_cubic),
    ("red-worst-fairness", "RED gives the worst BBRv1-vs-CUBIC fairness", _claim_red_worst_fairness),
    ("fq-codel-fair", "FQ_CODEL: J ~ 1 for every pair", _claim_fq_codel_fair),
    ("fifo-full-utilization", "FIFO reaches (near-)full utilization", _claim_fifo_full_utilization),
    ("red-high-bw-degradation", "RED utilization degrades at high bandwidth", _claim_red_high_bw_degradation),
    ("retx-ordering", "BBRv1 retransmits more than every other CCA", _claim_retx_ordering),
    ("retx-grow-with-bw", "RED/FQ_CODEL retransmissions grow with bandwidth", _claim_retx_grow_with_bw),
    ("intra-cca-fair", "Intra-CCA sharing is fair (excl. BBRv1+RED)", _claim_intra_cca_fair),
    ("red-bbr-unfair", "RED: BBRv1-vs-CUBIC mean J < 0.75", _claim_red_bbr_unfair),
    ("fifo-deep-buffer-unfair", "FIFO at 16 BDP: BBRv1-vs-CUBIC J < 0.9 at some tier", _claim_fifo_deep_buffer_unfair),
    ("red-reno-balanced", "RED: Reno and CUBIC get balanced shares", _claim_red_reno_balanced),
    ("red-util-below-fifo", "RED's mean utilization trails FIFO's", _claim_red_util_below_fifo),
    ("fq-codel-25g-shortfall", "FQ_CODEL: full at 1 Gbps, no better than FIFO at 25 Gbps", _claim_fq_codel_25g_shortfall),
    ("bbr-large-fifo-loss-free", "BBR: a 16 BDP FIFO buffer is nearly loss-free", _claim_bbr_large_fifo_loss_free),
    ("fifo-intra-fair-spot", "FIFO: intra-CCA mean J > 0.85 at 2 and 16 BDP", _claim_fifo_intra_fair_spotlight),
    ("red-intra-fair-spot", "RED: CUBIC/Reno/HTCP intra mean J > 0.9 at 2 and 16 BDP", _claim_red_intra_fair_spotlight),
    ("fifo-full-util-spot", "FIFO: every intra-CCA cell phi > 0.8 at 2 and 16 BDP", _claim_fifo_spotlight_full),
    ("red-2bdp-degradation", "RED at 2 BDP: loss-based phi(25G) < phi(100M) + 0.02", _claim_red_2bdp_degradation),
    ("retx-grow-2bdp", "RED/FQ_CODEL at 2 BDP: retx(10G) > retx(100M)", _claim_retx_grow_2bdp),
    ("red-bbrv1-retx-top", "RED at 2 BDP, 10 Gbps: BBRv1 retransmits the most", _claim_red_bbrv1_retx_top),
    ("bbrv1-rr-highest", "Table 3: BBRv1 has the highest Avg(RR) per AQM", _claim_bbrv1_rr_highest),
]


def validate_claims(results: ResultSet) -> List[ClaimResult]:
    """Evaluate every claim the result set has data for."""
    checker = _Checker(results)
    out: List[ClaimResult] = []
    for claim_id, description, fn in CLAIMS:
        try:
            passed, detail = fn(checker)
        except _Checker.Missing:
            out.append(ClaimResult(claim_id, description, None, "insufficient data"))
            continue
        out.append(ClaimResult(claim_id, description, passed, detail))
    return out


def render_claims(claims: List[ClaimResult]) -> str:
    """ASCII report: one line per claim."""
    lines = []
    for c in claims:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        lines.append(f"[{status}] {c.claim_id:<24s} {c.description}")
        if c.detail:
            lines.append(f"       {c.detail}")
    counts = (
        sum(1 for c in claims if c.passed is True),
        sum(1 for c in claims if c.passed is False),
        sum(1 for c in claims if c.skipped),
    )
    lines.append(f"\n{counts[0]} passed, {counts[1]} failed, {counts[2]} skipped")
    return "\n".join(lines)
