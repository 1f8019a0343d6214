"""Counter-based normal draws for schedule-independent simulation.

Every standard-normal variate is a pure function of
(seed, path_index, step, component): the tuple is packed into the counter
and key of a Philox-4x32 block cipher (10 rounds, the constants of the
Random123 reference implementation), and each 128-bit output block is
turned into two doubles and then two normals by Box-Muller.  Paths can
therefore be simulated in any order, in any batch shape, or re-run in
isolation, and always see identical noise.  Every call draws a block of
consecutive steps, shape (paths, steps, components); for the same reason
its rows are bit for bit the draws of the single steps.  normals checks
none of its arguments: its one caller, the Euler loop of simulate, passes
only values that the package's entry points have already accepted.

Before round 1 each counter word varies along one axis of the block only
(step, path or component pair), so round 1 runs on those broadcast words
and full-shape buffers are needed from round 2 on.  Each 64-bit integer
is converted to a double from its two 32-bit halves, hi * 2**32 + lo,
which rounds once and so equals the correctly rounded uint64 cast.  Wide
draws run in groups of paths small enough for the word buffers to stay in
cache; every operation is elementwise, so grouping moves no bit.

Reference: Salmon, Moraes, Dror, Shaw, "Parallel random numbers: as easy
as 1, 2, 3" (SC 2011).
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

_TWO_POW_32 = 2.0**32
_TWO_POW_NEG64 = 2.0**-64
# u2 * 2 pi with u2 = w * 2**-64: both scalings by 2**-64 are exact, so
# w * (2 pi * 2**-64) rounds exactly as (w * 2**-64) * 2 pi
_ANGLE_PER_WORD = 2.0 * np.pi * _TWO_POW_NEG64
# Philox blocks per pass through the kernel: the six uint64 words of a pass
# (1.5 MB) stay in a core's L2 cache between the ~100 array operations
_PASS_BLOCKS = 1 << 15


def _philox_4x32(c0, c1, c2, c3, k0, k1, out):
    """Philox-4x32-10 of uint64 arrays that each hold one 32-bit word.

    The counter words c0..c3 may have any shapes that broadcast to the
    shape of out, six uint64 arrays, as long as c0 and c3 are constant
    along the last axis; round 1 runs on the words as given, so its
    products cost one multiply per distinct word.  Rounds 2..10 run in
    place in out: the output words land in out[0..3], and out[4], out[5]
    are scratch that the caller may reuse.
    """
    o0, o1, o2, o3, p0, p1 = out
    # each round: c0, c1, c2, c3 <- hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    # with (hi0, lo0) = c0 * M0 and (hi1, lo1) = c2 * M1; round 1's c0 and
    # c2 may land in o0 and o2, because round 2 reads them before writing
    # there
    q0 = c0 * _M0
    q1 = c2 * _M1
    c0 = np.bitwise_xor((q1 >> _SHIFT32) ^ k0, c1, out=o0)
    c2 = np.bitwise_xor((q0 >> _SHIFT32) ^ k1, c3, out=o2[..., :1])
    c1 = q1 & _MASK32
    c3 = q0 & _MASK32
    for _ in range(1, _ROUNDS):
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=o0)
        o0 ^= c1
        o0 ^= k0
        np.bitwise_and(p1, _MASK32, out=o1)
        np.right_shift(p0, _SHIFT32, out=o2)
        o2 ^= c3
        o2 ^= k1
        np.bitwise_and(p0, _MASK32, out=o3)
        c0, c1, c2, c3 = o0, o1, o2, o3


def _words_to_float(hi, lo, out=None):
    """The 64-bit integers hi * 2**32 + lo as doubles, from uint64 arrays
    of 32-bit halves.

    hi * 2**32 and lo are exact doubles, so the sum rounds once and equals
    the correctly rounded uint64 -> float64 cast of the whole word.  Each
    cast sees a value below 2**32, whose top bit never selects a slow path.
    """
    out = np.multiply(hi, _TWO_POW_32, out=out)
    out += lo
    return out


def normals(seed: int, path_index, step: int, n_components: int, n_steps: int) -> np.ndarray:
    """Standard normals for steps step..step+n_steps-1 of each path.

    Shape (len(path_index), n_steps, n_components), a view of step-major
    storage; a single step is the block of one, [:, 0].  The counter words
    are (step, path low 32, pair, path high 32) and the key words are the
    seed halves; pair enumerates component pairs, which Box-Muller maps to
    components (2k, 2k+1).  Row k of a block is therefore bit for bit the
    draw of step + k alone.

    The arguments are trusted, not checked: seed is an int in [0, 2**64),
    path_index holds ints in [0, 2**64), n_components and n_steps are
    >= 1, and step + n_steps <= 2**32.  The Euler loop meets this because
    the entry points refuse anything else: SimConfig the seed and
    max_steps, ModelParams N, and euler_path the path index.

    Paths are drawn in groups of as many as fit in _PASS_BLOCKS Philox
    blocks, at least one.  In each group, Philox round 1 runs on the
    counter words broadcast along their own axes, and rounds 2..10 in six
    uint64 buffers of the group's shape.  Each output pair of 32-bit words
    becomes a double as hi * 2**32 + lo, and the scratch and consumed word
    buffers are reused as the float scratch of Box-Muller.
    """
    paths = np.atleast_1d(np.asarray(path_index, dtype=np.uint64))
    n_pairs = (n_components + 1) // 2

    # the word buffers are allocated once and reused by every group
    row_blocks = n_steps * n_pairs
    rows = max(1, _PASS_BLOCKS // row_blocks)
    scratch = [
        np.empty(min(rows, paths.size) * row_blocks, dtype=np.uint64) for _ in range(6)
    ]
    # stored step-major, so that a step's (paths, N) slab is contiguous
    z = np.empty((n_steps, paths.size, 2 * n_pairs)).transpose(1, 0, 2)
    steps = np.arange(step, step + n_steps, dtype=np.uint64)[:, None]
    pairs = np.arange(n_pairs, dtype=np.uint64)
    k0 = np.uint64(seed) & _MASK32
    k1 = np.uint64(seed) >> _SHIFT32
    for first in range(0, paths.size, rows):
        group = paths[first : first + rows]
        shape = (group.size, n_steps, n_pairs)
        words = [w[: group.size * row_blocks].reshape(shape) for w in scratch]
        _philox_4x32(
            steps, (group & _MASK32)[:, None, None], pairs, (group >> _SHIFT32)[:, None, None],
            k0, k1, words,
        )
        c0, c1, c2, c3, p0, p1 = words

        # two 64-bit words -> u1 in (0, 1] (safe for log) and the angle
        # 2 pi u2 with u2 in [0, 1); the scratch words p0, p1 and, once
        # consumed, c1 are reused as doubles
        u1 = _words_to_float(c0, c1, out=p0.view(np.float64))
        u1 += 1.0
        u1 *= _TWO_POW_NEG64
        angle = _words_to_float(c2, c3, out=p1.view(np.float64))
        angle *= _ANGLE_PER_WORD
        trig = c1.view(np.float64)

        radius = np.log(u1, out=u1)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # cos and sin write a contiguous buffer, not the interleaved view:
        # numpy may choose its kernel by stride, and a different kernel
        # could move the last bit of a draw
        zg = z[first : first + rows]
        np.multiply(radius, np.cos(angle, out=trig), out=zg[..., 0::2])
        np.multiply(radius, np.sin(angle, out=trig), out=zg[..., 1::2])
    return z[..., :n_components]
