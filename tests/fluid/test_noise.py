"""The tiled Poisson tail and the shard's lane streams, bitwise.

``_poisson_small`` (the per-element loop) is the oracle for the vector
counting loop, whose sparse tail advances the stragglers several counts per
tile; the BBR lotteries' lane streams, seeded for a whole shard at once,
are the per-flow rules' own ``RngStreams.stream`` generators.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import BatchedFluidSimulation
from repro.fluid.noise import LAM_SWITCH, MAX_K, _poisson_small, _poisson_vector
from repro.fluid.state import RATE_BASED_CODES
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
    of its own config — the generator the per-flow rules get."""
    configs = [
        ExperimentConfig(
            cca_pair=pair, bottleneck_bw_bps=mbps(100), duration_s=1.0, seed=seed,
            engine="fluid_batched", flows_per_node=3,
        )
        for seed, pair in [(0, ("bbrv1", "cubic")), (2**32 - 1, ("bbrv2", "bbrv1")), (2**33, ("reno", "bbrv2"))]
    ]
    sim = BatchedFluidSimulation(configs)
    rate_based = np.isin(sim.cca_code, sorted(RATE_BASED_CODES))
    assert sorted(sim._lane_gens) == np.flatnonzero(rate_based).tolist()
    for c, config in enumerate(configs):
        for j in range(sim.widths[c]):
            gen = sim._lane_gens.get(sim.offsets[c] + j)
            if gen is not None:
                ref = RngStreams(config.seed).stream(f"cca-flow{j}")
                assert gen.bit_generator.state == ref.bit_generator.state
                assert gen.integers(2, 8, 4).tolist() == ref.integers(2, 8, 4).tolist()
