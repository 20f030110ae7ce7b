"""The flat lane table: shard planning and the once-per-step guarantee.

``plan_shards`` decides which configs advance together; the integrator
then pays its per-step cost once over every lane of the shard, whatever
mix of AQM families and flow counts it holds.  The planner's contract is
checked as a property over random config lists (with the lane budget
shrunk so a handful of small configs exercises every cut); the kernel's
by counting calls on a batch HEAD's per-(AQM, width) shards could not
have built.
"""

import dataclasses
import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.fluid import batched, state
from repro.fluid.batched import BatchedFluidSimulation, run_fluid_batch
from repro.fluid.noise import TABLE_BYTE_BUDGET
from repro.fluid.state import block_key, plan_shards, shard_key

AQMS = ("fifo", "red", "fq_codel", "pie")
SMALL_BUDGET = 40


def _config(aqm="fifo", flows_per_node=1, duration_s=1.0, delay_multiplier=1.0,
            seed=1, cca="cubic", cca2="cubic", engine="fluid_batched"):
    return ExperimentConfig(
        cca_pair=(cca, cca2),
        aqm=aqm,
        buffer_bdp=1.0,
        bottleneck_bw_bps=100e6,
        duration_s=duration_s,
        warmup_s=0.0,
        mss_bytes=8900,
        seed=seed,
        flows_per_node=flows_per_node,
        delay_multiplier=delay_multiplier,
        engine=engine,
    )


config_lists = st.lists(
    st.builds(
        _config,
        aqm=st.sampled_from(AQMS),
        flows_per_node=st.integers(min_value=1, max_value=30),
        duration_s=st.sampled_from((1.0, 2.0)),
        delay_multiplier=st.sampled_from((1.0, 2.0)),
        seed=st.integers(min_value=1, max_value=5),
    ),
    min_size=1, max_size=30,
)


def _lanes(configs, shard):
    return sum(configs[i].plan.total_flows for i in shard)


@settings(max_examples=200, deadline=None)
@given(configs=config_lists, jobs=st.integers(min_value=1, max_value=6))
def test_plan_shards_contract(configs, jobs):
    with mock.patch.object(state, "LANE_BUDGET", SMALL_BUDGET):
        serial = plan_shards(configs)
        again = plan_shards(configs)
        pooled = plan_shards(configs, jobs=jobs)
    assert serial == again, "the plan is a function of the config list"

    for plan in (serial, pooled):
        assert sorted(i for shard in plan for i in shard) == list(range(len(configs)))
        for shard in plan:
            assert len({shard_key(configs[i]) for i in shard}) == 1
            blocks = [block_key(configs[i]) for i in shard]
            runs = [b for k, b in enumerate(blocks) if k == 0 or b != blocks[k - 1]]
            assert len(runs) == len(set(runs)), f"a block is split inside a shard: {blocks}"
            assert len(shard) == 1 or _lanes(configs, shard) <= SMALL_BUDGET

    total = _lanes(configs, range(len(configs)))
    if max(c.plan.total_flows for c in configs) <= total // jobs:
        assert len(pooled) >= min(jobs, len(configs))
    assert len(pooled) >= len(serial)


def test_plan_shards_orders_members_by_block_not_by_input():
    """Interleaved input still yields one contiguous run per block."""
    configs = [_config(aqm, w, seed=s) for s in (1, 2, 3)
               for aqm in ("red", "fifo") for w in (5, 1)]
    (shard,) = plan_shards(configs)
    blocks = [block_key(configs[i]) for i in shard]
    assert blocks == sorted(blocks)
    assert [i for i in shard if block_key(configs[i]) == ("fifo", 2)] == [3, 7, 11]


def test_shard_key_ignores_aqm_and_width():
    assert shard_key(_config("fifo", 1)) == shard_key(_config("red", 12))
    assert shard_key(_config(duration_s=1.0)) != shard_key(_config(duration_s=2.0))
    assert block_key(_config("fq_codel", 3)) == ("fq_codel", 6)


def _mini_grid():
    ccas = ("reno", "cubic", "htcp", "bbrv1", "bbrv2")
    return [
        _config(aqm, w, seed=10 * w + k, cca=ccas[(w + k) % 5])
        for k, aqm in enumerate(("fifo", "red", "fq_codel")) for w in (1, 3, 9)
    ]


def test_per_step_cost_is_paid_once_per_step_not_per_block(monkeypatch):
    """3 AQMs x 3 widths in ONE batch: one ``step()`` per tick, and inside
    it one arrival Poisson transform and at most one ``_round_updates``."""
    calls = Counter()
    in_step = {"arrival": 0, "round": 0}

    def spy(obj, name, on_call):
        real = getattr(obj, name)

        def wrapper(*args, **kwargs):
            on_call(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(obj, name, wrapper)

    def on_step(sim):
        calls["step"] += 1
        in_step.update(arrival=0, round=0)

    def on_poisson(lam, u):
        if lam.ndim == 1:  # the flat arrival draw; RED lotteries pass 2-D blocks
            in_step["arrival"] += 1
            assert in_step["arrival"] == 1, "arrival noise drawn per block"
            calls["arrival_lanes"] += lam.size

    def on_round(sim, due, x):
        in_step["round"] += 1
        assert in_step["round"] == 1, "round updates ran per block"

    spy(BatchedFluidSimulation, "step", on_step)
    spy(BatchedFluidSimulation, "_round_updates", on_round)
    spy(batched, "poisson_from_uniform", on_poisson)

    configs = _mini_grid()
    sim = BatchedFluidSimulation(configs)
    assert len(sim.blocks) == 9
    sim.run(1.0)
    steps = round(1.0 / sim.dt)
    assert calls["step"] == steps
    assert calls["arrival_lanes"] == steps * sum(c.plan.total_flows for c in configs)


def _row(result) -> str:
    d = result.to_dict()
    d.pop("wallclock_s")
    return json.dumps(d, sort_keys=True)


@pytest.mark.parametrize("engine", ("fluid", "fluid_batched"))
@pytest.mark.parametrize("aqm", ("fifo", "red", "fq_codel"))
@pytest.mark.parametrize("pair", (("reno", "cubic"), ("bbrv1", "bbrv2")))
def test_a_config_alone_equals_it_inside_a_mixed_shard(pair, aqm, engine):
    """A one-config shard takes shortcuts a mixed one cannot: its queue
    law's rows are the whole lane table, a loss-based pair has no pacing
    or inflight cap to merge, and its lanes all start before the shard's
    last one.  Its result row must not change by a byte."""
    config = _config(aqm, 3, duration_s=3.0, seed=77, cca=pair[0], cca2=pair[1], engine=engine)
    mates = [dataclasses.replace(c, engine=engine, duration_s=3.0) for c in _mini_grid()]
    shard = [*mates[:4], config, *mates[4:]]
    assert any(c.cca_pair[0].startswith("bbr") for c in mates)
    assert len(plan_shards(shard)) == 1
    alone = BatchedFluidSimulation([config]).start_times
    together = BatchedFluidSimulation(shard).start_times
    assert alone.max() < together.max(), "the shard must still be starting lanes"
    assert _row(run_fluid_batch(shard)[4]) == _row(run_fluid_batch([config])[0])


def test_wallclock_is_apportioned_by_lane_share():
    narrow, wide = _config("fifo", 1), _config("red", 12, seed=2)
    r_narrow, r_wide = run_fluid_batch([narrow, wide])
    assert r_wide.wallclock_s == pytest.approx(12 * r_narrow.wallclock_s)


def test_uniform_tables_fit_the_byte_budget():
    """20k lanes, every one with a drop lottery: tables stay under budget."""
    configs = [_config("red", 250, seed=s) for s in range(1, 41)]
    sim = BatchedFluidSimulation(configs)
    assert sim.offsets[-1] == 20_000
    assert 0 < sim.table_bytes <= TABLE_BYTE_BUDGET
    assert BatchedFluidSimulation(configs[:1]).table_bytes <= TABLE_BYTE_BUDGET
