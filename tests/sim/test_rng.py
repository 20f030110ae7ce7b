"""Unit tests for seeded RNG streams.

The oracle is numpy's own generator for stream ``name`` of ``seed``:
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(name),))))``.
Both the scalar :class:`~repro.sim.rng.Stream` and the array forms in
:mod:`repro.fluid.streams` must reproduce it bit for bit.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fluid.streams import StreamTable, batch_streams, spawn_words
from repro.sim.rng import RngStreams, Stream


def _numpy_stream(seed, name):
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _randoms(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = _randoms(RngStreams(42).stream("red"), 10)
    b = _randoms(RngStreams(42).stream("red"), 10)
    assert a == b


def test_different_seeds_differ():
    a = _randoms(RngStreams(1).stream("red"), 10)
    b = _randoms(RngStreams(2).stream("red"), 10)
    assert a != b


def test_streams_are_independent():
    """Drawing from one stream must not perturb another."""
    ref = RngStreams(7)
    expected = _randoms(ref.stream("b"), 5)

    mixed = RngStreams(7)
    _randoms(mixed.stream("a"), 1000)  # interleaved consumption
    got = _randoms(mixed.stream("b"), 5)
    assert expected == got


def test_stream_is_cached():
    rngs = RngStreams(3)
    assert rngs.stream("x") is rngs.stream("x")


def test_different_names_different_draws():
    rngs = RngStreams(5)
    a = _randoms(rngs.stream("alpha"), 8)
    b = _randoms(rngs.stream("beta"), 8)
    assert a != b


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)


# -- the scalar stream is numpy's generator ----------------------------------------


SCALAR_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**70]
NAMES = ["red", "cca", "faults", "linkloss:r1-r2", "cca-flow7"]


def _interleaved(seed, n=400):
    """``n`` draws of every kind, with their arguments, in a seeded order."""
    order = np.random.default_rng(seed % 2**32)
    ranges = [(2, 8), (0, 2**31), (4, 5), (-3, 2**32 - 3), (0, 3 * 2**30), (7, 9)]
    for _ in range(n):
        kind = int(order.integers(0, 3))
        if kind == 0:
            yield "random", ()
        elif kind == 1:
            yield "integers", ranges[int(order.integers(0, len(ranges)))]
        else:
            yield "uniform", (-0.5, 0.5) if order.random() < 0.5 else (0.0, 1.0e8)


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_scalar_stream_is_numpys_generator(seed):
    """Seeded state, every interleaved ``random``/``integers``/``uniform``
    value, and the state after them equal numpy's, bit for bit."""
    for name in NAMES:
        stream, ref = RngStreams(seed).stream(name), _numpy_stream(seed, name)
        assert stream.state == ref.bit_generator.state
        for kind, args in _interleaved(seed):
            got, want = getattr(stream, kind)(*args), getattr(ref, kind)(*args)
            assert got == want, (name, kind, args)
        assert stream.state == ref.bit_generator.state


def test_integers_keep_the_high_half_and_random_leaves_it():
    """``integers`` draws the low half of a fresh output and keeps the high
    half for the next ``integers``; ``random`` and ``uniform`` between them
    draw whole outputs and leave the kept half alone."""
    stream, ref = Stream(2**40 + 3, "cca-flow0"), _numpy_stream(2**40 + 3, "cca-flow0")
    assert stream.integers(0, 2**31) == ref.integers(0, 2**31)  # FQ-CoDel's perturbation
    assert stream.state["has_uint32"] == 1
    kept = stream.state["uinteger"]
    assert stream.random() == ref.random()
    assert stream.uniform(-0.5, 0.5) == ref.uniform(-0.5, 0.5)
    assert stream.state["has_uint32"] == 1 and stream.state["uinteger"] == kept
    assert stream.integers(2, 8) == ref.integers(2, 8)  # the kept half: no step
    assert stream.state == ref.bit_generator.state
    assert stream.state["has_uint32"] == 0


def test_a_one_value_range_draws_nothing():
    stream, ref = Stream(3, "aqm"), _numpy_stream(3, "aqm")
    before = stream.state
    assert stream.integers(4, 5) == ref.integers(4, 5) == 4
    assert stream.state == before == ref.bit_generator.state


@pytest.mark.parametrize("low, high, forged", [
    (2, 8, [0, 3, 4]),  # threshold 4: words 0 and 3 are rejected
    (0, 3 * 2**30, [5, 2**30 - 1, 7 * 2**29]),  # threshold 2**30
])
def test_a_forged_buffered_word_that_lemire_rejects_is_redrawn_by_the_stream(low, high, forged):
    span = high - low
    threshold = (2**32 - span) % span
    for word in forged:
        stream, ref = Stream(11, "cca"), _numpy_stream(11, "cca")
        ref.bit_generator.state = {**ref.bit_generator.state, "has_uint32": 1, "uinteger": word}
        stream.state = ref.bit_generator.state
        rejected = word * span % 2**32 < threshold
        assert stream.integers(low, high) == ref.integers(low, high)
        assert stream.state == ref.bit_generator.state
        # a rejected word costs a fresh output, whose high half is kept
        assert stream.state["has_uint32"] == int(rejected)


def test_exponential_is_numpys_and_advances_the_stream():
    stream, ref = Stream(9, "mice"), _numpy_stream(9, "mice")
    for _ in range(50):
        assert stream.exponential(0.25) == ref.exponential(0.25)
        assert stream.integers(0, 6) == ref.integers(0, 6)
    assert stream.state == ref.bit_generator.state


def test_integers_range_errors():
    stream = Stream(3, "x")
    for low, high in [(2, 2), (3, 2), (0, 2**32 + 1)]:
        with pytest.raises(ValueError):
            stream.integers(low, high)
    assert stream.integers(0, 2**32) == _numpy_stream(3, "x").integers(0, 2**32)


def test_drawing_from_the_streams_loads_no_numpy():
    """A packet-DES process draws every value from these streams; neither
    building nor drawing may import numpy."""
    code = (
        "import sys, repro.sim.rng; "
        "s = repro.sim.rng.RngStreams(2**70).stream('red'); "
        "s.random(); s.integers(0, 2**31); s.uniform(-0.5, 0.5); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


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
    """Each generator is numpy's for its pair, seeded as the scalar stream
    of that name is, at one-, two- and three-word seeds."""
    names = [f"cca-flow{i}" for i in range(5)]
    gens = batch_streams([(seed, name) for name in names])
    for name, gen in zip(names, gens):
        ref, lazy = _numpy_stream(seed, name), RngStreams(seed).stream(name)
        assert gen.bit_generator.state == ref.bit_generator.state == lazy.state
        assert _first_draws(gen) == _first_draws(ref) == _first_draws(lazy)


def test_batch_streams_keep_a_stream_created_lazily():
    """A family's scalar stream is left as it is, and a pair named twice
    gets two fresh generators."""
    family = RngStreams(11)
    lazy = family.stream("cca-flow1")
    _randoms(lazy, 3)
    held = lazy.state
    gens = batch_streams([(11, "cca-flow0"), (11, "cca-flow1"), (11, "cca-flow1")])
    assert family.stream("cca-flow1") is lazy and lazy.state == held
    assert gens[1] is not gens[2]
    assert gens[1].bit_generator.state == gens[2].bit_generator.state
    gens[1].random(3)
    assert _first_draws(gens[1]) == _first_draws(lazy)


def test_batch_streams_span_families():
    pairs = [(seed, f"cca-flow{i}") for seed in (5, 6, 5) for i in range(3)]
    for (seed, name), gen in zip(pairs, batch_streams(pairs)):
        assert gen.bit_generator.state == _numpy_stream(seed, name).bit_generator.state
    assert batch_streams([]) == []


def test_importing_the_streams_and_the_kernels_leaves_numpy_random_unloaded():
    """numpy.random costs a few MB of resident memory; a process that never
    draws (``repro serve`` answering from its cache) must not load it, and
    a stream table builds and draws without it."""
    code = (
        "import sys, repro.fluid.streams, repro.fluid.batched, repro.service; "
        "t = repro.fluid.streams.StreamTable([7, 2**40], ['cca-flow0', 'cca-flow1']); "
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
    return StreamTable([seed] * n, names), [_numpy_stream(seed, name) for name in names]


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
    refs = [_numpy_stream(seed, name) for seed, name in zip(seeds, names)]
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
