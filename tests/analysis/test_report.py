"""Unit tests for text report rendering."""

from repro.analysis.aggregate import ResultSet
from repro.analysis.figures import FIGURES
from repro.analysis.report import (
    render_inter_panels,
    render_intra_metric_panels,
    render_jain_panels,
)
from tests.analysis.test_figures import _results


def test_render_inter_panels():
    text = render_inter_panels(FIGURES["fig2"].series(_results()))
    assert "[bbrv1-vs-cubic @ 100 Mbps]" in text
    assert "buffer" in text
    assert "Mbps" in text


def test_render_jain_panels():
    text = render_jain_panels(FIGURES["fig3"].series(_results()))
    assert "[inter-CCA, buffer=2bdp]" in text
    assert "[intra-CCA, buffer=16bdp]" in text
    assert "bbrv1-vs-cubic" in text


def test_render_intra_metric_panels():
    text = render_intra_metric_panels(FIGURES["fig7"].series(_results()))
    assert "[fifo, buffer=2bdp]" in text
    assert "cubic" in text
    retx_text = render_intra_metric_panels(FIGURES["fig8"].series(_results()), fmt="{:>10.0f}")
    assert "[red, buffer=16bdp]" in retx_text
