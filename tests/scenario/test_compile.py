"""The one lowering (``compile_scenario``) and the run entry point."""

import pytest

import repro.scenario
from repro.scenario import (
    ENGINES,
    FlowSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
    compile_scenario,
    run_scenario,
)
from repro.units import mbps


def _cell(**overrides):
    base = dict(
        topology=TopologySpec(bottleneck_bw_bps=mbps(20), mss_bytes=1500),
        flows=(
            FlowSpec(cca="cubic", node=0, count=1),
            FlowSpec(cca="cubic", node=1, count=1),
        ),
        duration_s=5.0,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def test_every_engine_has_a_compiler():
    """One engine vocabulary, defined once in the config module; no
    per-engine compiler wrappers."""
    import re
    from pathlib import Path

    from repro.experiments import config

    assert ENGINES is config.ENGINES == ("packet", "fluid", "fluid_batched")
    # The submodule and its one lowering; no per-engine compiler or table.
    exported = {n for n in dir(repro.scenario) if n.lower().startswith("compil")}
    assert exported == {"compile", "compile_scenario"}
    src = Path(config.__file__).parents[1]
    definitions = [
        (path.name, name)
        for path in sorted(src.rglob("*.py"))
        for name in re.findall(r"^(ENGINES|AQM_NAMES)\b[^=\n]*=", path.read_text(), re.M)
    ]
    assert definitions == [("config.py", "ENGINES"), ("config.py", "AQM_NAMES")]


@pytest.mark.parametrize("engine", ENGINES)
def test_compile_targets_the_requested_engine(engine):
    cfg = compile_scenario(_cell(), engine)
    assert cfg.engine == engine
    assert cfg.cca_pair == ("cubic", "cubic")
    assert cfg.bottleneck_bw_bps == mbps(20)
    assert cfg.flows_per_node == 1


def test_unknown_engine_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="unknown backend"):
        compile_scenario(_cell(), "ns3")


def test_compile_is_pure():
    sc = _cell()
    assert compile_scenario(sc, "fluid").to_dict() == compile_scenario(sc, "fluid").to_dict()
    assert sc == _cell()  # the scenario itself is untouched


def test_run_scenario_executes_the_chosen_backend():
    result = run_scenario(_cell(), "fluid")
    assert result.engine == "fluid"
    assert 0.5 <= result.jain_index <= 1.0
    assert result.config == compile_scenario(_cell(), "fluid").to_dict()
