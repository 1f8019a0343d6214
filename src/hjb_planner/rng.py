"""Counter-based normal draws for schedule-independent simulation.

Every standard-normal variate is a pure function of
(seed, path_index, step, component): the tuple is packed into the counter
and key of a Philox-4x32 block cipher (10 rounds, the constants of the
Random123 reference implementation), and each 128-bit output block is
turned into two doubles and then two normals by Box-Muller.  Paths can
therefore be simulated in any order, in any batch shape, or re-run in
isolation, and always see identical noise.  For the same reason a block of
consecutive steps can be drawn in one call: its rows are bit for bit the
draws of the single steps.

Reference: Salmon, Moraes, Dror, Shaw, "Parallel random numbers: as easy
as 1, 2, 3" (SC 2011).
"""

from __future__ import annotations

import operator

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

_TWO_POW_NEG64 = 2.0**-64


def _philox_4x32(c0, c1, c2, c3, k0, k1, p0, p1):
    """Philox-4x32-10 in place: the uint64 arrays c0..c3 hold one 32-bit
    counter word each on entry and the output words on return; p0 and p1
    are scratch of the same shape."""
    for _ in range(_ROUNDS):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        # c0, c1, c2, c3 <- hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32


def normals(
    seed: int, path_index, step: int, n_components: int, n_steps: int | None = None
) -> np.ndarray:
    """Standard normals for steps step..step+n_steps-1 of each path.

    Shape (len(path_index), n_steps, n_components); with n_steps None the
    single step's (len(path_index), n_components), which equals the block
    of one.  The counter words are (step, path low 32, pair, path high 32)
    and the key words are the seed halves; pair enumerates component
    pairs, which Box-Muller maps to components (2k, 2k+1).  Row k of a
    block is therefore bit for bit the draw of step + k alone.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    k_steps = 1 if n_steps is None else operator.index(n_steps)
    if k_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if step < 0 or step + k_steps > 2**32:
        raise ValueError("steps must fit in 32 bits")
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    paths = np.atleast_1d(np.asarray(path_index, dtype=np.uint64))
    n_pairs = (n_components + 1) // 2
    shape = (paths.size, k_steps, n_pairs)

    c0, c1, c2, c3, p0, p1 = (np.empty(shape, dtype=np.uint64) for _ in range(6))
    c0[...] = np.arange(step, step + k_steps, dtype=np.uint64)[:, None]
    c1[...] = (paths & _MASK32)[:, None, None]
    c2[...] = np.arange(n_pairs, dtype=np.uint64)
    c3[...] = (paths >> _SHIFT32)[:, None, None]
    _philox_4x32(
        c0, c1, c2, c3, np.uint64(seed) & _MASK32, np.uint64(seed) >> _SHIFT32, p0, p1
    )

    # two 64-bit words -> u1 in (0, 1] (safe for log), u2 in [0, 1); the
    # scratch words p0, p1 and, once consumed, c1 are reused as doubles
    c0 <<= _SHIFT32
    c0 |= c1
    c2 <<= _SHIFT32
    c2 |= c3
    u1 = p0.view(np.float64)
    u2 = p1.view(np.float64)
    trig = c1.view(np.float64)
    u1[...] = c0
    u1 += 1.0
    u1 *= _TWO_POW_NEG64
    u2[...] = c2
    u2 *= _TWO_POW_NEG64

    radius = np.log(u1, out=u1)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(u2, 2.0 * np.pi, out=u2)
    # cos and sin write a contiguous buffer, not the interleaved view: numpy
    # may choose its kernel by stride, and a different kernel could move the
    # last bit of a draw
    z = np.empty((paths.size, k_steps, 2 * n_pairs))
    np.multiply(radius, np.cos(angle, out=trig), out=z[..., 0::2])
    np.multiply(radius, np.sin(angle, out=trig), out=z[..., 1::2])
    z = z[..., :n_components]
    return z[:, 0] if n_steps is None else z
