"""The tiled Poisson tail and the shard's lane streams, bitwise.

``_poisson_small`` (the per-element loop) is the oracle for the vector
counting loop, whose sparse tail advances the stragglers several counts per
tile; the BBR lotteries' lane streams, one stream table per shard, and
the per-config generators, seeded for a whole shard at once, are the
per-flow rules' own ``RngStreams.stream`` streams.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import full_matrix
from repro.fluid import batched
from repro.fluid.batched import BatchedFluidSimulation
from repro.fluid.noise import LAM_SWITCH, MAX_K, _poisson_small, _poisson_vector
from repro.fluid.state import RATE_BASED_CODES, plan_shards
from repro.fluid.streams import batch_streams
from repro.sim.rng import RngStreams
from repro.units import mbps

ALMOST_ONE = np.nextafter(1.0, 0.0)


def _tail(lam, u, pad=64):
    """``lam``/``u`` behind ``pad`` lanes that retire at once (lam == 0), so
    the dense phase hands every other lane to the tiled tail."""
    lam = np.concatenate([np.zeros(pad), np.asarray(lam, dtype=float)])
    u = np.concatenate([np.full(pad, 0.5), np.asarray(u, dtype=float)])
    return lam, u


ADVERSARIAL = {
    "lam-zero": ([0.0, 0.0, 0.0], [0.0, 0.5, ALMOST_ONE]),
    "around-switch": (
        [np.nextafter(LAM_SWITCH, 0.0), LAM_SWITCH, np.nextafter(LAM_SWITCH, np.inf)] * 2,
        [0.5, 0.5, 0.5, ALMOST_ONE, ALMOST_ONE, ALMOST_ONE],
    ),
    "u-almost-one": ([0.1, 1.0, 4.0, 17.0, 31.0], [ALMOST_ONE] * 5),
    "hits-max-k": ([LAM_SWITCH, LAM_SWITCH, 3.0], [ALMOST_ONE, 0.25, 0.25]),
    "several-tiles": (np.linspace(20.0, LAM_SWITCH, 12), np.linspace(0.99, 0.9999999, 12)),
    "tiny-lam": ([1e-300, 1e-12, 5e-324], [ALMOST_ONE, 0.999, ALMOST_ONE]),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_tiled_tail_equals_the_per_element_loop(case):
    lam, u = _tail(*ADVERSARIAL[case])
    assert np.array_equal(_poisson_vector(lam, u), _poisson_small(lam, u))


def test_adversarial_cases_reach_the_cap_and_cross_tiles():
    """The cases above do exercise what they are named for."""
    counts = _poisson_small(*_tail(*ADVERSARIAL["hits-max-k"]))
    assert counts[64] == MAX_K and counts[65] < MAX_K
    counts = _poisson_small(*_tail(*ADVERSARIAL["several-tiles"]))
    assert counts[64:].max() > 8 + 16 + 32  # past the third tile


def test_tiled_tail_equals_the_loop_on_mixed_random_lanes():
    draw = np.random.default_rng(27)
    for _ in range(40):
        n = int(draw.integers(17, 600))
        lam = draw.choice([0.0, 0.3, 2.0, 9.0, 30.0, LAM_SWITCH, 45.0], n) * draw.random(n)
        u = draw.random(n)
        u[draw.random(n) < 0.05] = ALMOST_ONE
        assert np.array_equal(_poisson_vector(lam, u), _poisson_small(lam, u))


def test_shard_lane_streams_are_the_per_flow_streams():
    """Every rate-based lane of a shard draws from ``stream("cca-flow<j>")``
    of its own config — the generator the per-flow rules get — through one
    row of the shard's stream table."""
    configs = [
        ExperimentConfig(
            cca_pair=pair, bottleneck_bw_bps=mbps(100), duration_s=1.0, seed=seed,
            engine="fluid_batched", flows_per_node=3,
        )
        for seed, pair in [(0, ("bbrv1", "cubic")), (2**32 - 1, ("bbrv2", "bbrv1")), (2**33, ("reno", "bbrv2"))]
    ]
    sim = BatchedFluidSimulation(configs)
    rate_based = np.flatnonzero(np.isin(sim.cca_code, sorted(RATE_BASED_CODES))).tolist()
    table = sim._lane_streams
    assert len(table) == len(rate_based)
    assert sorted(sim._stream_row[rate_based].tolist()) == list(range(len(table)))
    for c, config in enumerate(configs):
        for j in range(sim.widths[c]):
            lane = sim.offsets[c] + j
            if lane in rate_based:
                row = sim._stream_row[lane]
                ref = RngStreams(config.seed).stream(f"cca-flow{j}")
                state = ref.state["state"]
                assert int(table.state_hi[row]) << 64 | int(table.state_lo[row]) == state["state"]
                assert int(table.inc_hi[row]) << 64 | int(table.inc_lo[row]) == state["inc"]
                draws = [int(table.integers([row], 2, 8)[0]) for _ in range(4)]
                assert draws == [ref.integers(2, 8) for _ in range(4)]


PER_CONFIG_STREAMS = ("flow-start", "arrivals", "aqm")


def test_shard_per_config_streams_are_seeded_in_one_pass(monkeypatch):
    """``flow-start``, ``arrivals`` and (for the lottery AQMs) ``aqm`` of
    every config come from one ``batch_streams`` call, and each is the
    generator the simulation draws from, seeded as ``RngStreams(seed).stream(name)``
    is: same state before the first draw, same first draws."""
    calls = []

    def spy(pairs):
        gens = batch_streams(pairs)
        calls.append([(seed, name, gen, gen.bit_generator.state) for (seed, name), gen in zip(pairs, gens)])
        return gens

    monkeypatch.setattr(batched, "batch_streams", spy)
    configs = [
        ExperimentConfig(
            cca_pair=("cubic", "bbrv1"), aqm=aqm, bottleneck_bw_bps=mbps(100),
            duration_s=1.0, seed=seed, engine="fluid_batched", flows_per_node=2,
        )
        for seed, aqm in [(3, "red"), (2**32 + 9, "fifo"), (2**40 + 3, "pie"), (7, "fq_codel")]
    ]
    sim = BatchedFluidSimulation(configs)
    per_config = [call for call in calls if {name for _, name, _, _ in call} <= set(PER_CONFIG_STREAMS)]
    assert len(per_config) == 1
    seeded = {(seed, name): (gen, state) for seed, name, gen, state in per_config[0]}
    lottery = {"red", "pie"}
    assert sorted(seeded) == sorted(
        (c.seed, name) for c in configs for name in PER_CONFIG_STREAMS
        if name != "aqm" or c.aqm in lottery
    )
    for c, config in enumerate(configs):
        for name in PER_CONFIG_STREAMS:
            if (config.seed, name) not in seeded:
                continue
            gen, state = seeded[config.seed, name]
            assert sim._streams[c][name] is gen
            ref = RngStreams(config.seed).stream(name)
            assert state == ref.state
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = state
            assert replay.random(4).tolist() == [ref.random() for _ in range(4)]


def test_a_slab_shard_builds_at_most_three_pcg64s_per_config(monkeypatch):
    """The 135 cells of one buffer slab of the paper grid are one shard;
    building it seeds the per-config streams and no generator per lane."""
    from numpy import random as nprandom

    built = []
    real = nprandom.PCG64

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    configs = full_matrix(buffer_bdps=(2.0,), engine="fluid_batched", duration_s=1.5)
    assert len(configs) == 135 and len(plan_shards(configs)) == 1
    monkeypatch.setattr(nprandom, "PCG64", counting)
    sim = BatchedFluidSimulation(configs)
    lottery = sum(1 for c in configs if c.aqm in ("red", "pie"))
    assert len(built) == 2 * len(configs) + lottery <= 3 * len(configs)
    rate_based = np.isin(sim.cca_code, sorted(RATE_BASED_CODES))
    assert len(sim._lane_streams) == int(rate_based.sum()) > 6000
