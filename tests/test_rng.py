import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjb_planner.rng import _philox_4x32, _words_to_float, normals

_MASK = 0xFFFFFFFF


def test_deterministic():
    a = normals(987654321, np.arange(100), 13, 4, 1)
    b = normals(987654321, np.arange(100), 13, 4, 1)
    assert np.array_equal(a, b)


def test_pure_function_of_key_tuple():
    base = normals(1, [7], 3, 2, 1)
    assert not np.array_equal(base, normals(2, [7], 3, 2, 1))  # seed
    assert not np.array_equal(base, normals(1, [8], 3, 2, 1))  # path
    assert not np.array_equal(base, normals(1, [7], 4, 2, 1))  # step


def test_path_rows_independent_of_batch_shape():
    batch = normals(42, np.arange(1000), 5, 3, 1)
    for path in (0, 17, 999):
        alone = normals(42, [path], 5, 3, 1)
        assert np.array_equal(batch[path], alone[0])


def test_shapes_and_odd_component_count():
    z = normals(0, np.arange(10), 0, 5, 1)
    assert z.shape == (10, 1, 5)
    z7 = normals(0, np.arange(3), 0, 7, 2)
    assert z7.shape == (3, 2, 7)
    # odd counts are a truncation of the next even draw
    z8 = normals(0, np.arange(3), 0, 8, 2)
    assert np.array_equal(z7, z8[..., :7])


def test_moments_and_tail():
    z = normals(2024, np.arange(100_000), 1, 4, 1).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(n)
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0 / n)
    # P(|Z| < 1) = 0.6827
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.005
    assert np.all(np.isfinite(z))


def test_weak_correlations():
    # across steps within one path, and across adjacent paths within a step
    across_steps = normals(7, [123], 0, 2, 4000)[0]
    corr = np.corrcoef(across_steps[:-1, 0], across_steps[1:, 0])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(4000)

    block = normals(7, np.arange(4001), 9, 2, 1)[:, 0]
    corr_paths = np.corrcoef(block[:-1, 0], block[1:, 0])[0, 1]
    assert abs(corr_paths) < 4.0 / np.sqrt(4001)


@given(
    seed=st.integers(0, 2**64 - 1),
    paths=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    n_components=st.integers(1, 7),
    n_steps=st.integers(1, 64),
    start=st.integers(0, 2**32 - 1),
    at_end=st.booleans(),
)
@example(
    seed=2**64 - 1, paths=[2**32, 2**64 - 1, 5], n_components=5, n_steps=64,
    start=0, at_end=True,
)
@settings(max_examples=150, deadline=None)
def test_step_block_rows_are_the_single_step_draws(
    seed, paths, n_components, n_steps, start, at_end
):
    # path indices reach past 2^32 (the counter's high word) and, with
    # at_end, the block's last step is 2^32 - 1
    step = 2**32 - n_steps if at_end else min(start, 2**32 - n_steps)
    block = normals(seed, paths, step, n_components, n_steps=n_steps)
    assert block.shape == (len(paths), n_steps, n_components)
    for k in range(n_steps):
        single = normals(seed, paths, step + k, n_components, 1)[:, 0]
        assert np.array_equal(block[:, k], single)


def test_step_block_of_one_is_the_single_step():
    block = normals(3, np.arange(5), 11, 3, n_steps=1)
    assert block.shape == (5, 1, 3)
    assert np.array_equal(block[:, 0], normals(3, np.arange(5), 10, 3, 2)[:, 1])


def test_step_block_validation():
    with pytest.raises(TypeError):
        normals(0, [0], 0, 2)  # n_steps is required
    assert normals(0, [0], 2**32 - 3, 2, n_steps=3).shape == (1, 3, 2)


def _philox_reference(ctr, key):
    """Philox-4x32-10 on Python ints, one block, as the Random123 paper
    states it."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(10):
        p0 = c0 * 0xD2511F53
        p1 = c2 * 0xCD9E8D57
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK
        k0 = (k0 + 0x9E3779B9) & _MASK
        k1 = (k1 + 0xBB67AE85) & _MASK
    return c0, c1, c2, c3


# Known-answer vectors of the Random123 distribution (kat_vectors,
# philox4x32_10): counter words, key words, output words
_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((_MASK,) * 4, (_MASK,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("ctr, key, expected", _KAT)
def test_philox_known_answers(ctr, key, expected):
    words = np.empty((6, 1), dtype=np.uint64)
    _philox_4x32(
        *(np.array([c], dtype=np.uint64) for c in ctr),
        *(np.uint64(k) for k in key),
        words,
    )
    assert [int(w) for w in words[:4, 0]] == list(expected)
    assert _philox_reference(ctr, key) == expected


def _normals_reference(seed, paths, step, n_components, n_steps):
    """normals() built the plain way: one Philox block per (path, step,
    pair) from the reference above, each 64-bit word cast to a double
    whole, and Box-Muller on contiguous arrays."""
    key = (seed & _MASK, seed >> 32)
    n_pairs = (n_components + 1) // 2
    blocks = [
        _philox_reference((s, p & _MASK, j, p >> 32), key)
        for p in paths
        for s in range(step, step + n_steps)
        for j in range(n_pairs)
    ]
    w1 = np.array([(b[0] << 32) | b[1] for b in blocks], dtype=np.uint64)
    w2 = np.array([(b[2] << 32) | b[3] for b in blocks], dtype=np.uint64)
    u1 = (w1.astype(np.float64) + 1.0) * 2.0**-64
    u2 = w2.astype(np.float64) * 2.0**-64
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = u2 * (2.0 * np.pi)
    z = np.empty((len(blocks), 2))
    z[:, 0] = radius * np.cos(angle)
    z[:, 1] = radius * np.sin(angle)
    return z.reshape(len(paths), n_steps, 2 * n_pairs)[..., :n_components]


@given(
    seed=st.integers(0, 2**64 - 1),
    paths=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n_components=st.integers(1, 7),
    n_steps=st.integers(1, 4),
    start=st.integers(0, 2**32 - 1),
)
@example(seed=2**64 - 1, paths=[2**64 - 1, 0, 2**32], n_components=5, n_steps=3, start=2**32 - 3)
@settings(max_examples=100, deadline=None)
def test_normals_equal_the_plain_construction(seed, paths, n_components, n_steps, start):
    # round 1 on broadcast words and the two-half conversion change how
    # the bits are computed, never the bits
    step = min(start, 2**32 - n_steps)
    got = normals(seed, paths, step, n_components, n_steps=n_steps)
    want = _normals_reference(seed, paths, step, n_components, n_steps)
    assert got.tobytes() == want.tobytes()


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_pinned_wide_one_step_draw():
    # N=100 over 1,200 paths, one step: the shape of the many-goods workload
    z = normals(20261018, np.arange(1200), 7, 100, 1)[:, 0]
    assert z.shape == (1200, 100)
    pinned = {
        (0, 0): 1.2002725519492516,
        (0, 99): -2.2060761463568657,
        (1, 1): 0.21532999810835404,
        (599, 50): -0.1993374588173214,
        (1199, 0): 0.7502879081727374,
        (1199, 98): 1.6576818232784367,
        (1199, 99): -0.8627601335182696,
    }
    assert {ij: float(z[ij]) for ij in pinned} == pinned
    assert _sha256(z) == "f4c86f922776ccdfb17294c50be3e53cdce1dd613d74236ca6a948255e315509"


def test_pinned_odd_n_step_block():
    # both halves of the path counter and the seed at their extremes, and
    # the last three 32-bit steps
    z = normals(2**64 - 1, [0, 2**32 - 1, 2**32, 2**64 - 1], 2**32 - 3, 5, n_steps=3)
    assert z.shape == (4, 3, 5)
    pinned = {
        (0, 0, 0): 1.478260367858593,
        (0, 2, 4): 0.26945908018015385,
        (1, 1, 2): 0.8045370038390628,
        (2, 0, 3): -0.8314982780575232,
        (2, 2, 4): -0.34328349161448646,
        (3, 0, 1): -1.3031625914454739,
        (3, 2, 4): 0.6832277849942543,
    }
    assert {ijk: float(z[ijk]) for ijk in pinned} == pinned
    assert _sha256(z) == "af35fac2f79531ddf6d46eefe79a383ab8ec51b314abdb75918f8bf172780bc8"


def test_two_half_conversion_equals_uint64_cast():
    words = [
        0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53 + 1, 2**63,
        2**63 + 2**10,  # a tie, rounds down to the even 2^63
        2**63 + 3 * 2**10,  # a tie, rounds up to the even 2^63 + 2^12
        2**64 - 2**10,  # a tie, rounds up to 2^64
        2**64 - 1,
    ]
    w = np.array(words, dtype=np.uint64)
    got = _words_to_float(w >> np.uint64(32), w & np.uint64(_MASK))
    assert got.tobytes() == w.astype(np.float64).tobytes()
    assert got[7] == 2.0**63 and got[8] == 2.0**63 + 2.0**12 and got[9] == 2.0**64
