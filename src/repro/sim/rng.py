"""Seeded random-number streams.

Every stochastic component in the simulator (RED's drop lottery, FQ_CoDel's
hash perturbation, flow start jitter, ...) pulls from its *own* named
stream derived from the experiment seed via ``numpy.random.SeedSequence``.
Adding a new consumer therefore never perturbs the draws seen by existing
ones, which keeps regression baselines stable.

:func:`batch_streams` creates many streams at once — the per-config
streams of a whole fluid shard — by running ``SeedSequence``'s hash over
all (seed, name) pairs as uint32 array arithmetic; each stream is bitwise
the generator :meth:`RngStreams.stream` would have built.
:class:`StreamTable` holds many streams without a generator object each —
the per-lane BBR streams of a shard — as packed PCG64 words, and draws
for an array of them in one pass, bit for bit what the generators draw.
"""

from __future__ import annotations

import functools
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np


def _name_key(name: str) -> int:
    """Stable 32-bit hash of a stream name: its child spawn key.  zlib.crc32
    is deterministic across processes (unlike builtin hash())."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngStreams:
    """A family of independent, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_name_key(name),))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R, _U16 = (np.array(v, dtype=np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))


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
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
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


def batch_streams(pairs: Sequence[Tuple[RngStreams, str]]) -> List[np.random.Generator]:
    """``streams.stream(name)`` for every ``(streams, name)`` pair.

    The streams not created yet are seeded in one :func:`spawn_words` pass
    and registered in their family, so a later ``stream(name)`` returns the
    same object.  A stream already created is returned as is; seeds of
    2**64 and above take :meth:`RngStreams.stream`'s own path.
    """
    fresh = [(s, name) for s, name in pairs if name not in s._streams and s.seed >> 64 == 0]
    if fresh:
        from numpy.random import PCG64, Generator

        seed_words = _seed_words_type()
        words = spawn_words([s.seed for s, _ in fresh], [_name_key(name) for _, name in fresh])
        for (s, name), row in zip(fresh, words):
            if name not in s._streams:  # a pair named twice
                s._streams[name] = Generator(PCG64(seed_words(row)))
    return [s.stream(name) for s, name in pairs]


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
    """``RngStreams(seed).stream(name)`` for many (seed, name) pairs, as
    packed words drawn for an array of rows at once.

    Row ``j`` holds the PCG64 state and increment of stream ``names[j]``
    of seed ``seeds[j]`` (two uint64 words each) and numpy's
    buffered-uint32 slot.  :meth:`random`, :meth:`integers` and
    :meth:`uniform` advance exactly the rows they are given and return, per
    row, the value that stream's ``Generator`` method would have returned,
    bit for bit.  The rows of one call must be distinct.  Building and
    drawing need no ``numpy.random``.
    """

    def __init__(self, seeds: Sequence[int], names: Sequence[str]):
        words = spawn_words(seeds, [_name_key(name) for name in names])
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
