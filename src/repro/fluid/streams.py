"""The array form of the seeded streams, for the batched fluid kernel.

:mod:`repro.sim.rng` gives every named consumer a scalar
:class:`~repro.sim.rng.Stream`; the batched kernel instead draws whole
tables at once, from the same streams:

- :func:`batch_streams` builds a numpy generator for each of many
  (seed, name) pairs — the per-config streams of a whole fluid shard —
  seeding them all in one pass of ``SeedSequence``'s hash as uint32 array
  arithmetic (:func:`spawn_words`).  Each is the generator numpy would
  seed from ``SeedSequence(entropy=seed, spawn_key=(crc32(name),))``, the
  one the scalar stream of that name reproduces.
- :class:`StreamTable` holds many streams without a generator object each
  — the per-lane BBR streams of a shard — as packed PCG64 words, and draws
  for an array of them in one pass, bit for bit what the scalar streams
  draw.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

# numpy's SeedSequence constants, shared with the scalar hash.
from repro.sim.rng import (
    _INIT_A, _INIT_B, _MASK32, _MIX_MULT_L, _MIX_MULT_R, _MULT_A, _MULT_B, name_key, seed_words,
)

_MIX_L, _MIX_R, _U16 = (np.array(v, dtype=np.uint32) for v in (_MIX_MULT_L, _MIX_MULT_R, 16))


def _hash_constants(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``calls`` successive hashmix calls,
    one row each: the multiplier advances on every call."""
    xors, mults = [], []
    for _ in range(calls):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


# mix_entropy's 20 hashmix calls (the pool's four words, the twelve cross
# mixes, the key for each pool word), then generate_state's eight.
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, 20)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> _U16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> _U16
    return r


def spawn_words(seeds: Sequence[int], keys: Sequence[int]) -> np.ndarray:
    """``(n, 4)`` uint64: row ``j`` is
    ``SeedSequence(entropy=seeds[j], spawn_key=(keys[j],)).generate_state(4, np.uint64)``.

    Seeds must be below 2**64 and keys below 2**32.  A seed is one or two
    uint32 entropy words and the pool has room for four, so every pair
    assembles the same five-word entropy ``[seed_lo, seed_hi, 0, 0, key]``
    (``seed_hi`` is 0 for a one-word seed, as numpy's zero padding makes
    it) and every hash step is uint32 array arithmetic over all pairs: the
    pool is a ``(4, n)`` array, and the hashmix calls that do not depend
    on one another run as one operation with a column of constants.
    """
    wide = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, len(wide)), dtype=np.uint32)
    pool[0] = wide & np.uint64(_MASK32)
    pool[1] = wide >> np.uint64(32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_XOR[calls], _POOL_MULT[calls]))
    key = np.asarray(keys, dtype=np.uint32)
    pool = _mix(pool, _hashmix(key, _POOL_XOR[16:], _POOL_MULT[16:]))

    # generate_state: eight uint32 words cycled from the pool, paired
    # little-endian into four uint64s.
    state = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MULT).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


@functools.lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands ``PCG64`` four seed words derived in
    advance; defined on first use, so importing this module does not
    import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for exactly these: four uint64s

    return SeedWords


def batch_streams(pairs: Sequence[Tuple[int, str]]) -> List[np.random.Generator]:
    """A fresh numpy generator for every ``(seed, name)`` pair, in order:
    the ``Generator`` whose draws ``Stream(seed, name)`` reproduces.

    Every pair is seeded in one :func:`spawn_words` pass; seeds of 2**64
    and above, which that pass does not take, get their words from the
    scalar hash, :func:`~repro.sim.rng.seed_words`.
    """
    from numpy.random import PCG64, Generator

    keys = [name_key(name) for _, name in pairs]
    words = spawn_words([seed if seed >> 64 == 0 else 0 for seed, _ in pairs], keys)
    for j, (seed, _) in enumerate(pairs):
        if seed >> 64:
            words[j] = seed_words(seed, keys[j])
    seed_words_type = _seed_words_type()
    return [Generator(PCG64(seed_words_type(row))) for row in words]


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with the XSL-RR
# output, held here as 64-bit words; the multiplier's low word is also
# split into 32-bit limbs for the high half of a 64 x 64-bit product.
# Constants are 0-d arrays: numpy applies them faster than scalars.
def _u64(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


_U1, _U11, _U32, _U58, _U63, _U64 = (_u64(v) for v in (1, 11, 32, 58, 63, 64))
_LIMB = _u64(_MASK32)
_MUL_HI = _u64(0x2360ED051FC65DA4)
_MUL_LO = _u64(0x4385DF649FCCF645)
_MUL_LO_1, _MUL_LO_0 = _u64(0x4385DF64), _u64(0x9FCCF645)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, numpy's next_double


class StreamTable:
    """``Stream(seed, name)`` for many (seed, name) pairs, as packed words
    drawn for an array of rows at once.

    Row ``j`` holds the PCG64 state and increment of stream ``names[j]``
    of seed ``seeds[j]`` (two uint64 words each) and numpy's
    buffered-uint32 slot.  :meth:`random`, :meth:`integers` and
    :meth:`uniform` advance exactly the rows they are given and return, per
    row, the value that stream's method of the same name would have
    returned, bit for bit.  The rows of one call must be distinct.  Building and
    drawing need no ``numpy.random``.
    """

    def __init__(self, seeds: Sequence[int], names: Sequence[str]):
        words = spawn_words(seeds, [name_key(name) for name in names])
        # PCG64 seeding from words (initstate, seq), high word first:
        # inc = (seq << 1) | 1; state = 0; step (state = inc);
        # state += initstate; step.
        seq_hi, seq_lo = words[:, 2], words[:, 3]
        self.inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
        self.inc_lo = (seq_lo << _U1) | _U1
        lo = self.inc_lo + words[:, 1]
        hi = self.inc_hi + words[:, 0] + (lo < words[:, 1])
        self.state_hi, self.state_lo = self._step(hi, lo, self.inc_hi, self.inc_lo)
        self.has_uint32 = np.zeros(len(words), dtype=bool)
        self.uinteger = np.zeros(len(words), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self.has_uint32)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """``state * MULT + inc`` mod 2**128, on (high, low) word arrays."""
        # The high word of lo * MUL_LO, schoolbook on 32-bit limbs; no sum
        # below exceeds 64 bits.
        a0, a1 = lo & _LIMB, lo >> _U32
        t = ((a0 * _MUL_LO_0) >> _U32) + a1 * _MUL_LO_0
        w = (t & _LIMB) + a0 * _MUL_LO_1
        carry = a1 * _MUL_LO_1 + (t >> _U32) + (w >> _U32)
        new_lo = lo * _MUL_LO + inc_lo
        new_hi = carry + lo * _MUL_HI + hi * _MUL_LO + inc_hi + (new_lo < inc_lo)
        return new_hi, new_lo

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """One PCG64 output per row: step, then XSL-RR of the new state."""
        hi, lo = self._step(
            self.state_hi[rows], self.state_lo[rows], self.inc_hi[rows], self.inc_lo[rows]
        )
        self.state_hi[rows] = hi
        self.state_lo[rows] = lo
        x, rot = hi ^ lo, hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63))

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """numpy's buffered next_uint32: the word a previous call kept, else
        the low half of a fresh output (keeping the high half)."""
        drawn = ~self.has_uint32[rows]
        out = self.uinteger[rows]
        fresh = rows[drawn]
        word = self._next64(fresh)
        out[drawn] = word & _LIMB
        self.uinteger[fresh] = word >> _U32
        self.has_uint32[rows] = drawn
        return out

    def random(self, rows) -> np.ndarray:
        """``Generator.random()`` per row (the buffered word is kept)."""
        return (self._next64(np.asarray(rows)) >> _U11).astype(np.float64) * _DOUBLE_UNIT

    def uniform(self, rows, low: float, high: float) -> np.ndarray:
        """``Generator.uniform(low, high)`` per row."""
        low, high = float(low), float(high)
        return low + (high - low) * self.random(rows)

    def integers(self, rows, low: int, high: int) -> np.ndarray:
        """``Generator.integers(low, high)`` per row: int64 in ``[low, high)``
        by Lemire's method on the buffered uint32, redrawing rejects."""
        rows = np.asarray(rows)
        span = int(high) - int(low)  # the range's size, rng + 1 in numpy
        if not 0 < span <= _MASK32:
            raise ValueError(f"integers needs 1 <= high - low < 2**32, got [{low}, {high})")
        if span == 1:  # numpy draws nothing for a one-value range
            return np.full(len(rows), int(low), dtype=np.int64)
        span_word = _u64(span)
        threshold = _u64((_MASK32 + 1 - span) % span)
        m = self._next32(rows) * span_word
        redraw = np.flatnonzero((m & _LIMB) < threshold)
        while redraw.size:  # about one row in 2**32 / threshold
            m[redraw] = self._next32(rows[redraw]) * span_word
            redraw = redraw[(m[redraw] & _LIMB) < threshold]
        return (m >> _U32).astype(np.int64) + int(low)
