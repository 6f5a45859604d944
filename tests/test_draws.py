"""A shot's draws: numpy's own stream, computed for a block of shots at once."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermiqec import draws
from fermiqec.draws import shot_draws


def _numpy_doubles(seed, point, shot, width):
    """The oracle: a shot's first ``width`` doubles from numpy's own seeding."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, point, shot]))
    return rng.random(width).tolist()


@pytest.mark.parametrize(
    "seed, point, start, stop",
    [
        (0, 0, 0, 600),  # three seed blocks
        (2**32 + 7, 0, 0, 5),  # a two-word seed
        (2**64 + 7, 0, 3, 8),  # a three-word seed
        (5, 3, 100, 110),
        (5, 2**40, 100, 103),  # a two-word point
        (1, 1, 2**32 - 4, 2**32 + 4),  # one- then two-word shots
        (1, 0, 2**64 - 2, 2**64 + 2),  # two- then three-word shots
    ],
)
def test_batched_draws_are_numpys_per_shot_draws(seed, point, start, stop):
    blocks = list(shot_draws(seed, point, start, stop, 11))
    assert all(0 < len(b) <= draws._SEED_BLOCK for b in blocks)
    assert all(b.dtype == np.float64 and b.shape == (len(b), 11) for b in blocks)
    got = np.concatenate(blocks).tolist()
    assert got == [_numpy_doubles(seed, point, s, 11) for s in range(start, stop)]


@pytest.mark.parametrize("width", [28, 46, 76])  # the three shot plans' widths
@pytest.mark.parametrize(
    "seed, point, start, stop",
    [
        (3, 1, 0, 300),  # a full seed block and a short one
        (2**70 + 5, 2**33, 2**32 - 200, 2**32 + 100),  # across 2**32
        (9, 0, 2**64 - 40, 2**64 + 30),  # across 2**64
    ],
)
def test_plan_width_blocks_are_numpys_draws(width, seed, point, start, stop):
    blocks = list(shot_draws(seed, point, start, stop, width))
    assert all(b.dtype == np.float64 and b.shape == (len(b), width) for b in blocks)
    first = start
    for block in blocks:  # one seed block at most, in one 2**32-aligned window
        assert 0 < len(block) <= draws._SEED_BLOCK
        assert first >> 32 == first + len(block) - 1 >> 32
        first += len(block)
    got = np.concatenate(blocks).tolist()
    assert got == [_numpy_doubles(seed, point, s, width) for s in range(start, stop)]


def test_an_empty_range_draws_no_block():
    assert list(shot_draws(0, 0, 5, 5, 28)) == []


@given(
    seed=st.integers(0, 2**96),
    point=st.integers(0, 2**40),
    start=st.integers(0, 2**70),
)
def test_any_shot_draws_what_numpy_draws(seed, point, start):
    blocks = list(shot_draws(seed, point, start, start + 3, 4))
    assert all(b.dtype == np.float64 and b.shape == (len(b), 4) for b in blocks)
    got = np.concatenate(blocks).tolist()
    assert got == [_numpy_doubles(seed, point, s, 4) for s in range(start, start + 3)]
