"""Cross-engine validation harness.

Unit layer: a fake runner exercises the tolerance policy (exact vs
cross-model, drift flagging, pair enumeration) without touching an
engine.  Integration layer: the fluid pair is genuinely bit-identical,
and the known packet-vs-fluid agreement cell validates clean under the
cross-model tolerances — the contract ``repro validate`` gates in CI.
"""

import dataclasses

import pytest

from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.scenario import (
    CROSS_MODEL,
    EXACT,
    FlowSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
    compile_scenario,
    render_validation_report,
    tolerance_for,
    validate_scenario,
)
from repro.units import mbps


def _cell(**overrides):
    base = dict(
        topology=TopologySpec(bottleneck_bw_bps=mbps(20), mss_bytes=1500),
        flows=(
            FlowSpec(cca="cubic", node=0, count=1),
            FlowSpec(cca="cubic", node=1, count=1),
        ),
        duration_s=40.0,
        warmup_s=5.0,
        seed=31,
    )
    base.update(overrides)
    return Scenario(**base)


def _result(scenario, engine, jain=0.99, phi=0.98, rr=100, wallclock=0.1):
    cfg = compile_scenario(scenario, engine)
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[SenderStats("client1", "cubic", 10e6, rr, 1)],
        flows=FlowTable(),
        jain_index=jain,
        link_utilization=phi,
        total_retransmits=rr,
        total_throughput_bps=20e6,
        bottleneck_drops=rr,
        duration_s=scenario.duration_s,
        engine=engine,
        wallclock_s=wallclock,
    )


# -- tolerance policy ---------------------------------------------------------------


def test_same_family_pairs_are_exact():
    assert tolerance_for("fluid", "fluid_batched") is EXACT
    assert tolerance_for("packet", "packet") is EXACT
    assert tolerance_for("packet", "fluid") is CROSS_MODEL
    assert tolerance_for("fluid_batched", "packet") is CROSS_MODEL


def test_engine_list_is_validated():
    with pytest.raises(ScenarioError, match="at least two"):
        validate_scenario(_cell(), engines=("fluid",))
    with pytest.raises(ScenarioError, match="unknown backend"):
        validate_scenario(_cell(), engines=("fluid", "ns3"))
    with pytest.raises(ScenarioError, match="duplicate"):
        validate_scenario(_cell(), engines=("fluid", "fluid"))


# -- fake-runner unit layer ---------------------------------------------------------


def test_cross_model_pair_within_tolerance_is_clean():
    def runner(scenario, engine):
        return _result(scenario, engine, jain=0.95 if engine == "packet" else 0.99)

    report = validate_scenario(_cell(), ("packet", "fluid"), runner=runner)
    assert report.clean
    (pair,) = report.pairs
    assert not pair.exact and pair.tolerance is CROSS_MODEL


def test_cross_model_drift_beyond_tolerance_is_flagged():
    def runner(scenario, engine):
        return _result(scenario, engine, jain=0.5 if engine == "packet" else 0.99)

    report = validate_scenario(_cell(), ("packet", "fluid"), runner=runner)
    assert not report.clean
    (pair,) = report.pairs
    assert [d.metric for d in pair.drift.drifted] == ["jain"]
    assert "DRIFT" in render_validation_report(report)


def test_rr_is_ungated_across_models():
    def runner(scenario, engine):
        return _result(scenario, engine, rr=10 if engine == "packet" else 100000)

    report = validate_scenario(_cell(), ("packet", "fluid"), runner=runner)
    assert report.clean  # retransmit accounting is model-specific


def test_exact_pair_catches_any_divergence():
    def runner(scenario, engine):
        jain = 0.99 if engine == "fluid" else 0.99000001
        return _result(scenario, engine, jain=jain)

    report = validate_scenario(_cell(), ("fluid", "fluid_batched"), runner=runner)
    assert not report.clean
    (pair,) = report.pairs
    assert pair.exact
    assert "jain_index" in pair.exact_mismatch


def test_exact_pair_ignores_wallclock_and_engine_tags():
    def runner(scenario, engine):
        return _result(scenario, engine, wallclock=1.0 if engine == "fluid" else 9.0)

    report = validate_scenario(_cell(), ("fluid", "fluid_batched"), runner=runner)
    assert report.clean


def test_explicit_tolerance_override():
    def runner(scenario, engine):
        return _result(scenario, engine, jain=0.5 if engine == "packet" else 0.99)

    from repro.obs.drift import DriftTolerance

    loose = DriftTolerance(jain=1.0, phi=1.0, rr_rel=1e9, rr_abs=1e9)
    report = validate_scenario(
        _cell(), ("packet", "fluid"), tolerances={("fluid", "packet"): loose},
        runner=runner,
    )
    assert report.clean


def test_pairs_cover_all_engine_combinations():
    def runner(scenario, engine):
        return _result(scenario, engine)

    report = validate_scenario(
        _cell(), ("packet", "fluid", "fluid_batched"), runner=runner
    )
    assert {(p.engine_a, p.engine_b) for p in report.pairs} == {
        ("packet", "fluid"),
        ("packet", "fluid_batched"),
        ("fluid", "fluid_batched"),
    }


# -- real engines -------------------------------------------------------------------


def test_fluid_pair_is_bit_identical_for_real():
    report = validate_scenario(
        _cell(duration_s=10.0, warmup_s=0.0), ("fluid", "fluid_batched")
    )
    assert report.clean
    (pair,) = report.pairs
    assert pair.exact and not pair.exact_mismatch


@pytest.mark.slow
def test_agreement_cell_validates_clean_across_all_engines():
    """The engine-agreement cell (cubic/cubic, FIFO, 20 Mbps) must report
    zero drift packet <-> fluid <-> fluid_batched — the same invariant CI
    gates via ``repro validate``."""
    report = validate_scenario(_cell(), ("packet", "fluid", "fluid_batched"))
    assert report.clean, render_validation_report(report)


@pytest.mark.slow
@pytest.mark.parametrize("cca", ["cubic", "reno"])
def test_smoke_subset_compiles_and_agrees_cross_model(cca):
    """Compile->run packet vs fluid stays inside the declared cross-model
    tolerances for a deterministic smoke subset of agreement cells."""
    sc = _cell(
        flows=(
            FlowSpec(cca=cca, node=0, count=1),
            FlowSpec(cca=cca, node=1, count=1),
        )
    )
    report = validate_scenario(sc, ("packet", "fluid"))
    assert report.clean, render_validation_report(report)
