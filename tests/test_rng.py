import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjb_planner.rng import normals


def test_deterministic():
    a = normals(987654321, np.arange(100), 13, 4)
    b = normals(987654321, np.arange(100), 13, 4)
    assert np.array_equal(a, b)


def test_pure_function_of_key_tuple():
    base = normals(1, [7], 3, 2)
    assert not np.array_equal(base, normals(2, [7], 3, 2))  # seed
    assert not np.array_equal(base, normals(1, [8], 3, 2))  # path
    assert not np.array_equal(base, normals(1, [7], 4, 2))  # step


def test_path_rows_independent_of_batch_shape():
    batch = normals(42, np.arange(1000), 5, 3)
    for path in (0, 17, 999):
        alone = normals(42, [path], 5, 3)
        assert np.array_equal(batch[path], alone[0])


def test_shapes_and_odd_component_count():
    z = normals(0, np.arange(10), 0, 5)
    assert z.shape == (10, 5)
    z7 = normals(0, np.arange(3), 0, 7)
    assert z7.shape == (3, 7)
    # odd counts are a truncation of the next even draw
    z8 = normals(0, np.arange(3), 0, 8)
    assert np.array_equal(z7, z8[:, :7])


def test_moments_and_tail():
    z = normals(2024, np.arange(100_000), 1, 4).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(n)
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0 / n)
    # P(|Z| < 1) = 0.6827
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.005
    assert np.all(np.isfinite(z))


def test_weak_correlations():
    # across steps within one path, and across adjacent paths within a step
    across_steps = np.asarray([normals(7, [123], s, 2)[0] for s in range(4000)])
    corr = np.corrcoef(across_steps[:-1, 0], across_steps[1:, 0])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(4000)

    block = normals(7, np.arange(4001), 9, 2)
    corr_paths = np.corrcoef(block[:-1, 0], block[1:, 0])[0, 1]
    assert abs(corr_paths) < 4.0 / np.sqrt(4001)


def test_validation():
    with pytest.raises(ValueError):
        normals(-1, [0], 0, 2)
    with pytest.raises(ValueError):
        normals(2**64, [0], 0, 2)
    with pytest.raises(ValueError):
        normals(0, [0], -1, 2)
    with pytest.raises(ValueError):
        normals(0, [0], 0, 0)


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
        single = normals(seed, paths, step + k, n_components)
        assert np.array_equal(block[:, k], single)


def test_step_block_of_one_is_the_single_step():
    block = normals(3, np.arange(5), 11, 3, n_steps=1)
    assert np.array_equal(block[:, 0], normals(3, np.arange(5), 11, 3))


def test_step_block_validation():
    with pytest.raises(ValueError):
        normals(0, [0], 2**32 - 2, 2, n_steps=3)  # steps 2^32-2 .. 2^32
    with pytest.raises(ValueError):
        normals(0, [0], 0, 2, n_steps=0)
    assert normals(0, [0], 2**32 - 3, 2, n_steps=3).shape == (1, 3, 2)
