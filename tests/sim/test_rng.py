"""Unit tests for seeded RNG streams."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim.rng import RngStreams, StreamTable, batch_streams, spawn_words


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
    seeds = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1, 2**64 - 1,
             *draw.integers(0, 2**32, 300).tolist(), *draw.integers(0, 2**63, 100).tolist()]
    keys = [0, 2**32 - 1, 7, 1, 2, 3, 4, 5, *draw.integers(0, 2**32, 400).tolist()]
    words = spawn_words(seeds, keys)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, key, row in zip(seeds, keys, words):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, np.uint64)
        assert np.array_equal(row, want), (seed, key)


def _first_draws(gen):
    return gen.random(), int(gen.integers(2, 8)), gen.uniform(-0.5, 0.5)


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**70])
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
    draws (``repro serve`` answering from its cache) must not load it, and
    a stream table builds and draws without it."""
    code = (
        "import sys, repro.sim.rng, repro.fluid.batched, repro.service; "
        "t = repro.sim.rng.StreamTable([7, 2**40], ['cca-flow0', 'cca-flow1']); "
        "t.random([0, 1]); t.integers([1], 2, 8); t.uniform([0], -0.5, 0.5); "
        "print('numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# -- the stream table -----------------------------------------------------------


TABLE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1]


def _row_state(table, j):
    """Row ``j`` of ``table`` in ``Generator.bit_generator.state`` form."""
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": int(table.state_hi[j]) << 64 | int(table.state_lo[j]),
            "inc": int(table.inc_hi[j]) << 64 | int(table.inc_lo[j]),
        },
        "has_uint32": int(table.has_uint32[j]),
        "uinteger": int(table.uinteger[j]),
    }


def _table_and_refs(seed, n=6):
    names = [f"cca-flow{j}" for j in range(n)]
    return StreamTable([seed] * n, names), [RngStreams(seed).stream(name) for name in names]


def _draw(table, refs, rows, kind):
    """One array draw on ``rows`` and the same draw from each row's generator."""
    if kind == "random":
        return table.random(rows).tolist(), [refs[j].random() for j in rows]
    if kind == "integers":
        return table.integers(rows, 2, 8).tolist(), [int(refs[j].integers(2, 8)) for j in rows]
    return table.uniform(rows, -0.5, 0.5).tolist(), [refs[j].uniform(-0.5, 0.5) for j in rows]


@pytest.mark.parametrize("seed", TABLE_SEEDS)
def test_stream_table_rows_are_the_named_streams(seed):
    """Seeded rows hold the generators' states, and interleaved array draws
    on random subsets return each generator's own values, bit for bit."""
    table, refs = _table_and_refs(seed)
    assert len(table) == len(refs)
    for j, ref in enumerate(refs):
        assert _row_state(table, j) == ref.bit_generator.state
    draw = np.random.default_rng(seed % 2**32)
    for _ in range(60):
        rows = np.flatnonzero(draw.random(len(refs)) < 0.6)
        kind = ("random", "integers", "uniform")[int(draw.integers(0, 3))]
        got, want = _draw(table, refs, rows, kind)
        assert got == want, kind
    for j, ref in enumerate(refs):
        assert _row_state(table, j) == ref.bit_generator.state


def test_stream_table_spans_seeds_and_names():
    seeds = [5, 2**33, 5, 0]
    names = ["cca-flow0", "cca-flow0", "arrivals", "cca-flow9"]
    table = StreamTable(seeds, names)
    refs = [RngStreams(seed).stream(name) for seed, name in zip(seeds, names)]
    for kind in ("integers", "random", "integers", "uniform", "integers"):
        got, want = _draw(table, refs, np.arange(4), kind)
        assert got == want


def test_the_buffered_word_is_carried_between_integers_and_kept_by_random():
    """``integers`` keeps the high half of a fresh output for the next
    ``integers``; ``random`` draws a whole output and leaves the slot alone."""
    table, refs = _table_and_refs(2**40 + 3, n=2)
    rows = np.array([0, 1])
    _draw(table, refs, rows, "integers")
    assert table.has_uint32.tolist() == [True, True]
    held = table.uinteger.copy()
    _draw(table, refs, rows, "random")
    _draw(table, refs, rows, "uniform")
    assert table.has_uint32.tolist() == [True, True]
    assert np.array_equal(table.uinteger, held)
    before = table.state_hi.copy(), table.state_lo.copy()
    got, want = _draw(table, refs, rows, "integers")  # the held words: no step
    assert got == want
    assert np.array_equal(table.state_hi, before[0]) and np.array_equal(table.state_lo, before[1])
    assert table.has_uint32.tolist() == [False, False]
    for j in rows:
        assert _row_state(table, j) == refs[j].bit_generator.state


@pytest.mark.parametrize("low, high, forged", [
    (2, 8, [0, 3, 4, 2**32 - 1]),  # threshold 4: words 0 and 3 are rejected
    (0, 3 * 2**30, [5, 2**30 - 1, 2**30, 7 * 2**29]),  # threshold 2**30
])
def test_a_forged_buffered_word_that_lemire_rejects_is_redrawn(low, high, forged):
    """Rows whose held word Lemire rejects draw again (a fresh output),
    the others return at once; values and states stay numpy's."""
    table, refs = _table_and_refs(11, n=len(forged))
    span = high - low
    threshold = (2**32 - span) % span
    assert any(word * span % 2**32 < threshold for word in forged)
    assert any(word * span % 2**32 >= threshold for word in forged)
    for j, word in enumerate(forged):
        state = refs[j].bit_generator.state
        refs[j].bit_generator.state = {**state, "has_uint32": 1, "uinteger": word}
        table.has_uint32[j] = True
        table.uinteger[j] = word
    rows = np.arange(len(forged))
    got = table.integers(rows, low, high).tolist()
    assert got == [int(ref.integers(low, high)) for ref in refs]
    for j, ref in enumerate(refs):
        assert _row_state(table, j) == ref.bit_generator.state


def test_a_draw_on_some_rows_leaves_the_others_untouched():
    table, refs = _table_and_refs(2**32, n=5)
    table.integers([0, 2, 4], 2, 8)  # fill some buffered slots
    before = [_row_state(table, j) for j in range(5)]
    for kind in ("random", "integers", "uniform"):
        _draw(table, refs, np.array([1, 3]), kind)
    after = [_row_state(table, j) for j in range(5)]
    assert [after[j] for j in (0, 2, 4)] == [before[j] for j in (0, 2, 4)]
    assert after[1] != before[1] and after[3] != before[3]


def test_stream_table_integers_ranges():
    table, refs = _table_and_refs(3, n=3)
    rows = np.arange(3)
    before = [_row_state(table, j) for j in rows]
    assert table.integers(rows, 4, 5).tolist() == [4, 4, 4]  # numpy draws nothing
    assert [_row_state(table, j) for j in rows] == before
    got = table.integers(rows, -3, 2**32 - 4).tolist()  # the widest 32-bit range
    assert got == [int(ref.integers(-3, 2**32 - 4)) for ref in refs]
    for low, high in [(2, 2), (3, 2), (0, 2**32 + 1)]:
        with pytest.raises(ValueError):
            table.integers(rows, low, high)
