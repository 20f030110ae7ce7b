"""Unit tests for campaign-level fairness drift detection."""

import json

import pytest

from repro.experiments.storage import TornWriteWarning
from repro.obs.drift import (
    DriftTolerance,
    cell_distributions,
    cell_key,
    detect_drift,
    render_drift_report,
    render_fairness_summary,
    result_rows,
    summarize_fairness,
)


def _row(seed=1, engine="fluid", jain=0.9, phi=0.95, rr=100, bw=1e8, fairness=None):
    config = {
        "cca_pair": ["bbrv1", "cubic"],
        "aqm": "fifo",
        "buffer_bdp": 2.0,
        "bottleneck_bw_bps": bw,
        "duration_s": 30.0,
        "mss_bytes": 1500,
        "seed": seed,
        "engine": engine,
        "flows_per_node": 1,
    }
    row = {
        "config": config,
        "jain_index": jain,
        "link_utilization": phi,
        "total_retransmits": rr,
    }
    if fairness is not None:
        row["extra"] = {"fairness": fairness}
    return row


def _store(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


# --- cell identity -------------------------------------------------------------


def test_cell_key_ignores_seed_engine_and_cadences():
    a = _row(seed=1, engine="fluid")["config"]
    b = _row(seed=9, engine="fluid_batched")["config"]
    b["fairness_interval_s"] = 1.0
    b["sample_interval_s"] = 0.1
    assert cell_key(a) == cell_key(b)


def test_cell_key_distinguishes_science_knobs():
    a = _row(bw=1e8)["config"]
    b = _row(bw=1e9)["config"]
    assert cell_key(a) != cell_key(b)


def test_cell_distributions_pool_repetitions(tmp_path):
    store = _store(tmp_path / "r.jsonl", [
        _row(seed=1, jain=0.8), _row(seed=2, jain=1.0), _row(bw=1e9),
    ])
    cells = cell_distributions(store)
    assert len(cells) == 2
    pooled = cells[cell_key(_row()["config"])]
    assert sorted(pooled["jain"]) == [0.8, 1.0]


def test_result_rows_path_forms(tmp_path):
    rows = [_row(seed=1), _row(seed=2)]
    jsonl = _store(tmp_path / "store.jsonl", rows)
    assert len(list(result_rows(jsonl))) == 2
    single = tmp_path / "one.json"
    single.write_text(json.dumps(rows[0]), encoding="utf-8")
    assert len(list(result_rows(single))) == 1
    listfile = tmp_path / "many.json"
    listfile.write_text(json.dumps(rows), encoding="utf-8")
    assert len(list(result_rows(listfile))) == 2
    # A directory pools every result file under it.
    assert len(list(result_rows(tmp_path))) == 5
    with pytest.raises(ValueError):
        list(result_rows(tmp_path / "missing.jsonl"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        list(result_rows(empty))


def test_corrupt_store_line_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"config": {}}\nnot json\n{"config": {}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: corrupt result line"):
        list(result_rows(path))


def test_torn_trailing_store_line_warns_and_is_skipped(tmp_path):
    """Drift reads stores as resume does: a crashed append's partial last
    line is not a reason to refuse the whole store."""
    line = json.dumps(_row(), sort_keys=True)
    path = tmp_path / "torn.jsonl"
    path.write_text(f"{line}\n{line[:37]}\n\n", encoding="utf-8")
    with pytest.warns(TornWriteWarning, match=r"torn\.jsonl:2"):
        assert list(result_rows(path)) == [_row()]


# --- drift detection -----------------------------------------------------------


def test_store_vs_itself_is_exactly_zero_drift(tmp_path):
    store = _store(tmp_path / "r.jsonl", [
        _row(seed=s, jain=0.81 + s / 100, rr=50 * s) for s in range(1, 6)
    ])
    report = detect_drift(store, store)
    assert report.clean
    assert report.checked == 1
    assert report.drifted == []
    assert report.missing_in_a == report.missing_in_b == []
    assert "no fairness drift" in render_drift_report(report)


def test_injected_jain_regression_is_flagged(tmp_path):
    a = _store(tmp_path / "a.jsonl", [_row(seed=s, jain=0.9) for s in (1, 2)])
    b = _store(tmp_path / "b.jsonl", [_row(seed=s, jain=0.7) for s in (1, 2)])
    report = detect_drift(a, b)
    assert not report.clean
    [d] = report.drifted
    assert d.metric == "jain"
    assert d.delta == pytest.approx(0.2)
    assert d.tolerance == 0.05
    text = render_drift_report(report)
    assert "DRIFT jain" in text and "bbrv1-vs-cubic" in text


def test_small_shift_within_tolerance_is_clean(tmp_path):
    a = _store(tmp_path / "a.jsonl", [_row(jain=0.90, phi=0.95)])
    b = _store(tmp_path / "b.jsonl", [_row(jain=0.93, phi=0.92)])
    assert detect_drift(a, b).clean


def test_rr_hybrid_tolerance(tmp_path):
    # Near-zero baseline: a +8 absolute move sits under the 10.0 floor.
    a = _store(tmp_path / "a.jsonl", [_row(rr=2)])
    b = _store(tmp_path / "b.jsonl", [_row(rr=10)])
    assert detect_drift(a, b).clean
    # Large baseline: 25% relative governs — 1000 -> 1200 is fine,
    # 1000 -> 1400 drifts.
    a2 = _store(tmp_path / "a2.jsonl", [_row(rr=1000)])
    ok = _store(tmp_path / "ok.jsonl", [_row(rr=1200)])
    bad = _store(tmp_path / "bad.jsonl", [_row(rr=1400)])
    assert detect_drift(a2, ok).clean
    report = detect_drift(a2, bad)
    [d] = report.drifted
    assert d.metric == "rr"
    assert d.tolerance == pytest.approx(250.0)


def test_custom_tolerance(tmp_path):
    a = _store(tmp_path / "a.jsonl", [_row(jain=0.90)])
    b = _store(tmp_path / "b.jsonl", [_row(jain=0.80)])
    assert not detect_drift(a, b).clean
    assert detect_drift(a, b, tolerance=DriftTolerance(jain=0.2)).clean


def test_missing_cells_warn_but_do_not_drift(tmp_path):
    a = _store(tmp_path / "a.jsonl", [_row(bw=1e8), _row(bw=1e9)])
    b = _store(tmp_path / "b.jsonl", [_row(bw=1e8)])
    report = detect_drift(a, b)
    assert report.clean
    assert report.checked == 1
    assert len(report.missing_in_b) == 1
    assert "only-in-a: 1" in render_drift_report(report)


def test_row_without_config_raises(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"jain_index": 1.0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="config"):
        cell_distributions(path)


# --- fairness summaries --------------------------------------------------------


def test_summarize_fairness_aggregates_dynamics(tmp_path):
    dyn = {
        "convergence_time_s": 4.0,
        "oscillations": 2,
        "sync_loss_t_s": [3.5],
    }
    never = {"convergence_time_s": None, "oscillations": 0, "sync_loss_t_s": []}
    store = _store(tmp_path / "r.jsonl", [
        _row(seed=1, jain=0.8, fairness=dyn),
        _row(seed=2, jain=1.0, fairness=never),
        _row(seed=3, jain=0.9),  # unsampled run still pools scalars
    ])
    [row] = summarize_fairness(store)
    assert row["runs"] == 3
    assert row["sampled"] == 2
    assert row["converged"] == 1
    assert row["convergence_time_s"] == pytest.approx(4.0)
    assert row["oscillations"] == 2
    assert row["sync_losses"] == 1
    assert row["jain_mean"] == pytest.approx(0.9)
    text = render_fairness_summary([row])
    assert "bbrv1-vs-cubic" in text and "1 cells" in text
