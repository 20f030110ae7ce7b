"""Unit tests for the per-figure series builders."""

import math

from repro.analysis.aggregate import ResultSet
from repro.analysis.figures import FIGURES
from repro.units import mbps
from tests.analysis.test_aggregate import make_result


def _results():
    out = []
    seed = 0
    for pair in (("bbrv1", "cubic"), ("cubic", "cubic")):
        for aqm in ("fifo", "red"):
            for buf in (2.0, 16.0):
                for bw in (mbps(100), mbps(500)):
                    seed += 1
                    out.append(
                        make_result(pair=pair, aqm=aqm, buf=buf, bw=bw, seed=seed,
                                    s1=0.6 * bw, s2=0.4 * bw, retx=seed)
                    )
    return ResultSet(out)


def test_fig2_panels_inter_only():
    series = FIGURES["fig2"].series(_results())
    assert set(series) == {"bbrv1-vs-cubic"}  # intra pairs excluded
    panels = series["bbrv1-vs-cubic"]
    assert set(panels) == {"100 Mbps", "500 Mbps"}
    panel = panels["100 Mbps"]
    assert panel["buffers"] == [2.0, 16.0]
    assert len(panel["cca1_bps"]) == 2


def test_fig4_uses_red():
    series = FIGURES["fig4"].series(_results())
    assert "bbrv1-vs-cubic" in series


def test_fig3_inter_intra_split():
    series = FIGURES["fig3"].series(_results())
    assert "bbrv1-vs-cubic" in series["inter"]["2bdp"]
    assert "cubic-vs-cubic" in series["intra"]["2bdp"]
    assert series["inter"]["2bdp"]["bandwidths"] == [mbps(100), mbps(500)]
    assert len(series["inter"]["16bdp"]["bbrv1-vs-cubic"]) == 2


def test_fig5_fig6_aqm_variants():
    assert FIGURES["fig5"].series(_results())["inter"]  # RED exists in fixture
    # fq_codel absent from fixture -> series exist but values are NaN.
    assert FIGURES["fig6"].series(_results())["inter"]["2bdp"]


def test_report_refuses_a_figure_whose_aqm_the_store_lacks(tmp_path, capsys):
    """``repro report --what fig6`` on FIFO+RED rows names the missing AQM
    in one stderr line and exits 1; ``full_report`` and ``export-figures``
    skip the figure the same way (``Figure.available``)."""
    from repro.cli import main
    from repro.experiments.storage import ResultStore

    path = tmp_path / "r.jsonl"
    with ResultStore(path) as store:
        for result in _results().results:
            store.append(result)
    assert main(["report", "--results", str(path), "--what", "fig6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "fq_codel" in captured.err


def test_fig7_intra_utilization():
    series = FIGURES["fig7"].series(_results())
    assert set(series) == {"fifo", "red"}
    panel = series["fifo"]["2bdp"]
    assert "cubic" in panel
    assert len(panel["cubic"]) == 2
    assert all(0 <= v <= 1.1 for v in panel["cubic"] if not math.isnan(v))


def test_fig8_intra_retransmissions():
    series = FIGURES["fig8"].series(_results())
    panel = series["red"]["16bdp"]
    assert "cubic" in panel
    assert all(v >= 0 for v in panel["cubic"] if not math.isnan(v))


def test_missing_cells_become_nan():
    rs = ResultSet([make_result(pair=("cubic", "cubic"), buf=2.0)])
    series = FIGURES["fig3"].series(rs)
    missing = series["intra"]["16bdp"]["cubic-vs-cubic"]
    assert all(math.isnan(v) for v in missing)
