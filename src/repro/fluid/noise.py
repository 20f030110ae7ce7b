"""Shared stochastic machinery of the fluid integrator.

Both fluid engines draw their packet-level randomness — Poisson burst
arrivals and the RED/PIE drop lotteries — from **positionally consumed
uniform tables**: each simulation step consumes exactly one uniform per
flow from a per-config stream, whether or not the value ends up used.
The uniform is turned into a Poisson variate by the inverse-CDF
transform in :func:`poisson_from_uniform`.

This layout is what makes a config's results independent of batch
composition — and so the vector kernels bit-for-bit reproducible
against the per-flow rules: a config's uniform sequence depends only on
its own seed and the step index, never on which other configs share the
batch, how wide the batch is, or how the table is chunked in memory.

Bitwise ground rules (verified on this numpy build, enforced by the
cross-validation suite):

- ``+ - * /`` and comparisons are IEEE-exact and therefore identical
  between python floats and numpy element-wise ops;
- ``np.exp/np.log/np.sqrt/np.cbrt/np.power`` are positionally
  consistent between scalar and array calls;
- python ``**`` is NOT bit-identical to numpy array ``**`` — neither
  round rule may use it where cross-rule equality matters.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

#: Above this rate the inverse-CDF counting loop is replaced by the
#: normal approximation (both paths, so they stay bit-identical).  Real
#: per-flow-per-step burst rates sit around 1-10; only the unmodelled
#: BBR cwnd-doubling transient ever exceeds this.
LAM_SWITCH = 32.0

#: Hard cap on the counting loop, shared by both implementations so a
#: pathological ``u`` ~ 1 resolves to the same value everywhere.
MAX_K = 1024.0
_COUNTS = tuple(float(k) for k in range(1, int(MAX_K) + 1))

_SMALL_N = 16

#: Counts in the first tile of the counting loop's sparse tail.
_TILE_COUNTS = 8

# Acklam's rational approximation of the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def norm_ppf(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam), numpy ops only."""
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    r = q * q
    central = (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )
    if ((u >= _P_LOW) & (u <= 1.0 - _P_LOW)).all():
        return central  # no u in either tail: the selection below picks central
    with np.errstate(divide="ignore", invalid="ignore"):
        ul = np.where(u > 0.0, u, 1.0)
        ql = np.sqrt(-2.0 * np.log(ul))
        low = (
            ((((_C[0] * ql + _C[1]) * ql + _C[2]) * ql + _C[3]) * ql + _C[4]) * ql + _C[5]
        ) / ((((_D[0] * ql + _D[1]) * ql + _D[2]) * ql + _D[3]) * ql + 1.0)
        uh = 1.0 - u
        uhg = np.where(uh > 0.0, uh, 1.0)
        qh = np.sqrt(-2.0 * np.log(uhg))
        high = -(
            ((((_C[0] * qh + _C[1]) * qh + _C[2]) * qh + _C[3]) * qh + _C[4]) * qh + _C[5]
        ) / ((((_D[0] * qh + _D[1]) * qh + _D[2]) * qh + _D[3]) * qh + 1.0)
    out = np.where(u < _P_LOW, low, np.where(u > 1.0 - _P_LOW, high, central))
    return np.where(u <= 0.0, -np.inf, out)


def _count_loop(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF Poisson for ``lam <= LAM_SWITCH``."""
    p = np.exp(-lam)
    cum = p.copy()
    k = np.zeros(lam.shape)
    kk = 0.0
    # Dense phase: full-array updates while most lanes are still counting.
    while kk < MAX_K:
        active = u >= cum
        n_act = np.count_nonzero(active)
        if n_act == 0:
            return k
        if n_act * 4 < active.size:
            break
        k += active
        kk += 1.0
        p *= lam / kk
        cum += p
    # Sparse tail: most lanes converged; the stragglers (each still at
    # k == kk) advance ``b`` counts per tile, ``b`` doubling from tile to
    # tile.  Row j of the lane-contiguous (b + 1, m) tile holds
    # lam / (kk + j), the dense loop's own division; accumulating down axis
    # 0 repeats each lane's sequential p and cum updates, so every lane sees
    # the identical IEEE sequence and stops at the same count.
    kf = k.ravel()
    idx = np.flatnonzero(u >= cum)
    if idx.size == 0:
        return k
    lam_a = lam.ravel()[idx]
    u_a = u.ravel()[idx]
    p_a = p.ravel()[idx]
    cum_a = cum.ravel()[idx]
    b = _TILE_COUNTS
    while idx.size and kk < MAX_K:
        b = min(b, int(MAX_K - kk))
        tile = np.empty((b + 1, idx.size))
        tile[0] = p_a
        np.divide(lam_a, kk + np.arange(1.0, b + 1.0)[:, None], out=tile[1:])
        np.multiply.accumulate(tile, axis=0, out=tile)  # row j: p at count kk + j
        p_a = tile[b].copy()
        tile[0] = cum_a
        np.add.accumulate(tile, axis=0, out=tile)  # row j: cum at count kk + j
        going = u_a >= tile[1:]
        still = going.all(axis=0)
        if not still.all():
            done = ~still
            kf[idx[done]] = kk + 1.0 + going[:, done].argmin(axis=0)
            idx = idx[still]
            lam_a = lam_a[still]
            u_a = u_a[still]
            p_a = p_a[still]
        cum_a = tile[b][still]
        kk += b
        b *= 2
    kf[idx] = kk
    return k


def _poisson_big(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Normal approximation for the rare huge-rate lanes."""
    z = norm_ppf(u)
    return np.maximum(0.0, np.floor(lam + np.sqrt(lam) * z))


def _poisson_vector(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    lam_f = lam.ravel()
    u_f = u.ravel()
    bi = np.nonzero(lam_f > LAM_SWITCH)[0]
    if bi.size:
        # Big lanes are rare (BBR slow-start transients).  Run the count
        # loop on the full array with those lanes zeroed — lam == 0 makes
        # them retire on the first compare, and per-lane sequences do not
        # depend on array composition — then overwrite them with the
        # normal approximation.  This avoids gathering the ~full-size
        # small-lane complement through a boolean mask every step.
        lam_z = lam_f.copy()
        lam_z[bi] = 0.0
        out = _count_loop(lam_z, u_f)
        out[bi] = _poisson_big(lam_f[bi], u_f[bi])
        return out.reshape(lam.shape)
    return _count_loop(lam_f, u_f).reshape(lam.shape)


def _poisson_small(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-element python loop — bit-identical to :func:`_poisson_vector`.

    The loop body uses only exact IEEE ops (``* / + >=``); the two
    transcendental seeds (``exp``, and ``norm_ppf`` for big lanes) go
    through the same numpy kernels the vector path uses.
    """
    fl, fu = lam.ravel(), u.ravel()
    counts = []
    big = []
    for l, uu, p in zip(fl.tolist(), fu.tolist(), np.exp(-fl).tolist()):
        if l > LAM_SWITCH:
            big.append(len(counts))
            counts.append(0.0)
            continue
        k = 0.0
        if uu >= p:
            cum = p
            for k in _COUNTS:  # k = 1.0, 2.0, ..., MAX_K
                p *= l / k
                cum += p
                if not uu >= cum:
                    break
        counts.append(k)
    out = np.array(counts)
    if big:
        out[big] = _poisson_big(fl[big], fu[big])
    return out.reshape(lam.shape)


def poisson_from_uniform(lam, u) -> np.ndarray:
    """Map uniforms in [0, 1) to Poisson(lam) variates, elementwise.

    Exact inverse-CDF for ``lam <= LAM_SWITCH``; a floor-of-normal
    approximation above (consistently in both fluid paths, which is
    what matters — the transform defines the model).  ``lam == 0``
    maps to 0 without consuming anything but the positional uniform.
    """
    lam = np.asarray(lam, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if lam.size <= _SMALL_N:
        return _poisson_small(lam, u)
    return _poisson_vector(lam, u)


#: Bytes of uniform tables (arrival noise plus drop lotteries) one
#: integration holds at a time.  A table refills every ``chunk`` steps;
#: sizing the chunk from this budget keeps the tables small and of one
#: size from shard to shard, instead of tens of MB reallocated per shard.
TABLE_BYTE_BUDGET = 2_000_000

#: Steps per refill when the budget allows (what one-config tables use).
CHUNK_STEPS = 512


def chunk_steps_for(lanes: int) -> int:
    """Steps per refill so tables over ``lanes`` lanes in all fit the budget."""
    return max(1, min(CHUNK_STEPS, TABLE_BYTE_BUDGET // (8 * lanes)))


class UniformTable:
    """Chunked per-step uniform rows over the flow lanes of one or more configs.

    ``next_row()`` returns the ``(sum(widths),)`` row for the current step
    and advances.  Config ``c``'s slice of the row is filled from
    ``rngs[c]`` alone over its own flow count, so the value at (config,
    step, flow) depends only on that generator's seed — the chunk size is
    a pure performance knob: refilling in blocks of ``chunk`` steps yields
    the same row-major sequence per config as any other chunking, and a
    shard's table hands each config bitwise the rows a one-config table
    does.
    """

    def __init__(
        self,
        rngs: Sequence[np.random.Generator],
        widths: Sequence[int],
        chunk_steps: int = CHUNK_STEPS,
    ):
        if chunk_steps <= 0 or not widths or min(widths) <= 0:
            raise ValueError("widths and chunk_steps must be positive")
        edges = [0, *accumulate(widths)]
        self._fills = list(zip(rngs, edges[:-1], edges[1:]))
        self.chunk = int(chunk_steps)
        self._buf = np.empty((self.chunk, edges[-1]))
        self._i = self.chunk

    @property
    def nbytes(self) -> int:
        """Bytes the table holds between refills."""
        return self._buf.nbytes

    def next_row(self) -> np.ndarray:
        """The next step's row of uniforms, in table order."""
        if self._i >= self.chunk:
            for rng, lo, hi in self._fills:
                self._buf[:, lo:hi] = rng.random((self.chunk, hi - lo))
            self._i = 0
        row = self._buf[self._i]
        self._i += 1
        return row
