"""Unit tests for seeded RNG streams."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim.rng import RngStreams, batch_streams, spawn_words


def test_same_seed_same_stream():
    a = RngStreams(42).stream("red").random(10)
    b = RngStreams(42).stream("red").random(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("red").random(10)
    b = RngStreams(2).stream("red").random(10)
    assert not np.array_equal(a, b)


def test_streams_are_independent():
    """Drawing from one stream must not perturb another."""
    ref = RngStreams(7)
    expected = ref.stream("b").random(5)

    mixed = RngStreams(7)
    mixed.stream("a").random(1000)  # interleaved consumption
    got = mixed.stream("b").random(5)
    assert np.array_equal(expected, got)


def test_stream_is_cached():
    rngs = RngStreams(3)
    assert rngs.stream("x") is rngs.stream("x")


def test_different_names_different_draws():
    rngs = RngStreams(5)
    a = rngs.stream("alpha").random(8)
    b = rngs.stream("beta").random(8)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)


# -- streams seeded in one pass ---------------------------------------------------


def test_spawn_words_are_seed_sequence_state():
    """The vectorised hash is numpy's SeedSequence, word for word."""
    draw = np.random.default_rng(20261015)
    seeds = [0, 1, 2**31, 2**32 - 1, *draw.integers(0, 2**32, 300).tolist()]
    keys = [0, 2**32 - 1, 7, 1, *draw.integers(0, 2**32, 300).tolist()]
    words = spawn_words(seeds, keys)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, key, row in zip(seeds, keys, words):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, np.uint64)
        assert np.array_equal(row, want), (seed, key)


def _first_draws(gen):
    return gen.random(), int(gen.integers(2, 8)), gen.uniform(-0.5, 0.5)


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3])
def test_batch_streams_are_the_lazy_streams(seed):
    names = [f"cca-flow{i}" for i in range(5)]
    family = RngStreams(seed)
    gens = batch_streams([(family, name) for name in names])
    for name, gen in zip(names, gens):
        ref = RngStreams(seed).stream(name)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert family.stream(name) is gen  # registered in its family
        assert _first_draws(gen) == _first_draws(ref)


def test_batch_streams_keep_a_stream_created_lazily():
    family = RngStreams(11)
    lazy = family.stream("cca-flow1")
    lazy.random(3)
    gens = batch_streams([(family, "cca-flow0"), (family, "cca-flow1"), (family, "cca-flow1")])
    assert gens[1] is lazy and gens[2] is lazy
    ref = RngStreams(11).stream("cca-flow1")
    ref.random(3)
    assert _first_draws(lazy) == _first_draws(ref)


def test_batch_streams_span_families():
    families = [RngStreams(s) for s in (5, 6, 5)]
    pairs = [(f, f"cca-flow{i}") for f in families for i in range(3)]
    for (f, name), gen in zip(pairs, batch_streams(pairs)):
        assert gen.bit_generator.state == RngStreams(f.seed).stream(name).bit_generator.state
    assert batch_streams([]) == []


def test_importing_the_streams_and_the_kernels_leaves_numpy_random_unloaded():
    """numpy.random costs a few MB of resident memory; a process that never
    draws (``repro serve`` answering from its cache) must not load it."""
    code = (
        "import sys, repro.sim.rng, repro.fluid.batched, repro.service; "
        "print('numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
