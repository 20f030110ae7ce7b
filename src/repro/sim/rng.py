"""Seeded random-number streams.

Every stochastic component in the simulator (RED's drop lottery, FQ_CoDel's
hash perturbation, flow start jitter, ...) pulls from its *own* named
stream derived from the experiment seed, seeded the way
``numpy.random.SeedSequence(entropy=seed, spawn_key=(crc32(name),))``
seeds it.  Adding a new consumer therefore never perturbs the draws seen
by existing ones, which keeps regression baselines stable.

A :class:`Stream` is that seeding and numpy's PCG64 on Python ints: its
``random``, ``integers`` and ``uniform`` return bit for bit what
``numpy.random.Generator(PCG64(SeedSequence(...)))`` returns for the same
calls, and neither building nor drawing imports numpy, so a packet-DES
run never loads it.  The array form of the same streams, which the
batched fluid kernel draws whole tables from, is :mod:`repro.fluid.streams`.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple


def name_key(name: str) -> int:
    """Stable 32-bit hash of a stream name: its child spawn key.  zlib.crc32
    is deterministic across processes (unlike builtin hash())."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> List[int]:
    """numpy's little-endian uint32 split of a non-negative int (``[0]`` for 0)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def seed_words(seed: int, key: int) -> Tuple[int, int, int, int]:
    """``SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, np.uint64)``
    as four ints: numpy's hash, one uint32 at a time."""
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # numpy pads when a spawn key follows
    entropy += _uint32_words(key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: eight uint32 words cycled from the pool, paired
    # little-endian into four uint64s.
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    w0, w1, w2, w3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return w0, w1, w2, w3


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with the XSL-RR
# output.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, numpy's next_double


class Stream:
    """Stream ``name`` of ``seed``: numpy's seeded ``Generator`` on Python ints.

    The state is numpy's PCG64 state, increment and buffered-uint32 slot;
    :attr:`state` reads and writes it in ``Generator.bit_generator.state``
    form.  Each draw returns, bit for bit, what the generator's method of
    the same name returns when called with scalar arguments.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int, name: str):
        # PCG64 seeding from words (initstate, seq), high word first:
        # inc = (seq << 1) | 1; state = 0; step (state = inc);
        # state += initstate; step.
        w0, w1, w2, w3 = seed_words(seed, name_key(name))
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128
        self._has_uint32 = 0
        self._uinteger = 0

    @property
    def state(self) -> dict:
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    @state.setter
    def state(self, value: dict) -> None:
        self._state = value["state"]["state"]
        self._inc = value["state"]["inc"]
        self._has_uint32 = int(value["has_uint32"])
        self._uinteger = int(value["uinteger"])

    def _next64(self) -> int:
        """One PCG64 output: step, then XSL-RR of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        """numpy's buffered next_uint32: the word a previous call kept, else
        the low half of a fresh output (keeping the high half)."""
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``Generator.random()`` (the buffered word is kept)."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)``."""
        low = float(low)
        return low + (float(high) - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: an int in ``[low, high)`` by
        Lemire's method on the buffered uint32, redrawing rejects."""
        span = high - low  # the range's size, rng + 1 in numpy
        if not 0 < span <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got [{low}, {high})")
        if span == 1:  # numpy draws nothing for a one-value range
            return low
        threshold = ((1 << 32) - span) % span
        m = self._next32() * span
        while m & _MASK32 < threshold:  # about one draw in 2**32 / threshold
            m = self._next32() * span
        return (m >> 32) + low

    def exponential(self, scale: float = 1.0) -> float:
        """``Generator.exponential(scale)``.  numpy's ziggurat tables are
        not copied here: a numpy generator put in this stream's state draws
        the value, so this draw (Poisson mice arrivals) loads numpy."""
        from numpy.random import PCG64, Generator

        bits = PCG64(0)
        bits.state = self.state
        value = float(Generator(bits).exponential(scale))
        self.state = bits.state
        return value


class RngStreams:
    """A family of independent, reproducible named :class:`Stream`\\ s."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = Stream(self.seed, name)
        return gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
