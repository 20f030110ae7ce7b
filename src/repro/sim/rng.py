"""Seeded random-number streams.

Every stochastic component in the simulator (RED's drop lottery, FQ_CoDel's
hash perturbation, flow start jitter, ...) pulls from its *own* named
stream derived from the experiment seed via ``numpy.random.SeedSequence``.
Adding a new consumer therefore never perturbs the draws seen by existing
ones, which keeps regression baselines stable.

:func:`batch_streams` creates many streams at once — the per-lane BBR
streams of a whole fluid shard — by running ``SeedSequence``'s hash over
all (seed, name) pairs as uint32 array arithmetic; each stream is bitwise
the generator :meth:`RngStreams.stream` would have built.
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
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def spawn_words(seeds: Sequence[int], keys: Sequence[int]) -> np.ndarray:
    """``(n, 4)`` uint64: row ``j`` is
    ``SeedSequence(entropy=seeds[j], spawn_key=(keys[j],)).generate_state(4, np.uint64)``.

    Seeds and keys must be below 2**32: one entropy word each, so every
    pair assembles the same five-word entropy ``[seed, 0, 0, 0, key]``
    and every hash step is one uint32 array operation over all pairs.
    """
    seed = np.asarray(seeds, dtype=np.uint32)
    key = np.asarray(keys, dtype=np.uint32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> 16)

    zero = np.zeros_like(seed)
    pool = [hashmix(word) for word in (seed, zero, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(key))

    # generate_state: eight uint32 words cycled from the pool, paired
    # little-endian into four uint64s.
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * _MULT_B) & _MASK32
        value = value * const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)], axis=1)


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
    2**32 and above take :meth:`RngStreams.stream`'s own path.
    """
    fresh = [(s, name) for s, name in pairs if name not in s._streams and s.seed <= _MASK32]
    if fresh:
        from numpy.random import PCG64, Generator

        seed_words = _seed_words_type()
        words = spawn_words([s.seed for s, _ in fresh], [_name_key(name) for _, name in fresh])
        for (s, name), row in zip(fresh, words):
            if name not in s._streams:  # a pair named twice
                s._streams[name] = Generator(PCG64(seed_words(row)))
    return [s.stream(name) for s, name in pairs]
