"""Library-kernel-vs-oracle equivalence: bit-identical, not just close.

The library kernels (broadcast dominance matrix, 2-objective sweep,
segmented crowding, fused truncate+re-rank) must return *exactly* the
arrays the textbook loops in ``tests/core/reference_kernels.py`` return
— same fronts, same member order, same integer ranks, same IEEE-754
crowding floats.  Anything weaker would let the kernels drift from the
algorithm they implement and silently change optimizer trajectories.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import (
    _segmented_crowding,
    constrained_fronts,
    crowding_distance,
    local_rank_and_crowd,
    nds_fronts_blocked,
    nds_fronts_sweep,
    rank_and_crowd,
    truncate_and_rank,
)
from repro.core.nds import crowded_truncate
from tests.core import reference_kernels as ref

#: Row-block sizes of the blocked dominance matrix to exercise (the
#: library default among them), so block boundaries fall inside fronts.
BLOCK_SIZES = (1, 3, 64, kernels._BLOCK_SIZE)


@contextmanager
def block_size(rows):
    """Run the blocked dominance matrix with *rows* per block."""
    saved = kernels._BLOCK_SIZE
    kernels._BLOCK_SIZE = rows
    try:
        yield
    finally:
        kernels._BLOCK_SIZE = saved


def random_case(seed, n_max=50, m_choices=(1, 2, 3, 4), tie_prob=0.6):
    """Objectives/violations with heavy ties — where order bugs hide."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, n_max))
    m = int(rng.choice(m_choices))
    objs = rng.random((n, m))
    if rng.random() < tie_prob:
        objs = np.round(objs * 4) / 4
    viol = np.where(rng.random(n) < 0.3, np.round(rng.random(n) * 4) / 4, 0.0)
    return objs, viol


def assert_fronts_equal(a, b):
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)


# ------------------------------------------------- seeded NDS equivalence


@pytest.mark.parametrize("seed", range(40))
def test_unconstrained_fronts_bit_identical(seed):
    objs, _ = random_case(seed)
    if objs.shape[0] == 0:
        return
    expected = ref.nds_fronts_reference(objs)
    for bs in BLOCK_SIZES:
        with block_size(bs):
            assert_fronts_equal(nds_fronts_blocked(objs), expected)
    if objs.shape[1] <= 2:
        assert_fronts_equal(nds_fronts_sweep(objs), expected)


@pytest.mark.parametrize("seed", range(40))
def test_constrained_fronts_bit_identical(seed):
    objs, viol = random_case(seed)
    expected = ref.constrained_fronts(objs, viol)
    for bs in BLOCK_SIZES:
        with block_size(bs):
            assert_fronts_equal(constrained_fronts(objs, viol), expected)


@pytest.mark.parametrize("seed", range(40))
def test_rank_and_crowd_bit_identical(seed):
    objs, viol = random_case(seed)
    rank_ref, crowd_ref = ref.rank_and_crowd(objs, viol)
    rank_blk, crowd_blk = rank_and_crowd(objs, viol)
    np.testing.assert_array_equal(rank_blk, rank_ref)
    # Bitwise: equal_nan not needed (no NaN), inf compares equal, and any
    # ULP drift in the accumulation order would fail here.
    np.testing.assert_array_equal(crowd_blk, crowd_ref)


@pytest.mark.parametrize("seed", range(40))
def test_truncate_and_rank_bit_identical(seed):
    objs, viol = random_case(seed)
    n = objs.shape[0]
    rng = np.random.default_rng(seed + 1000)
    for k in {0, n // 2, max(n - 1, 0), n, n + 3} | {int(rng.integers(0, n + 1))}:
        keep_r, rank_r, crowd_r = ref.truncate_and_rank(objs, viol, k)
        keep_b, rank_b, crowd_b = truncate_and_rank(objs, viol, k)
        np.testing.assert_array_equal(keep_b, keep_r)
        np.testing.assert_array_equal(rank_b, rank_r)
        np.testing.assert_array_equal(crowd_b, crowd_r)


@pytest.mark.parametrize("seed", range(40))
def test_crowded_truncate_bit_identical(seed):
    objs, viol = random_case(seed)
    n = objs.shape[0]
    for k in {0, n // 2, max(n - 1, 0), n, n + 3}:
        np.testing.assert_array_equal(
            crowded_truncate(objs, viol, k), ref.truncate_indices(objs, viol, k)
        )


@pytest.mark.parametrize("seed", range(40))
def test_local_rank_and_crowd_bit_identical(seed):
    objs, viol = random_case(seed)
    n = objs.shape[0]
    rng = np.random.default_rng(seed + 2000)
    n_partitions = int(rng.integers(1, 8))
    partition = rng.integers(0, n_partitions, size=n)
    rank_ref, crowd_ref = ref.local_rank_and_crowd(
        objs, viol, partition, n_partitions
    )
    for bs in BLOCK_SIZES:
        with block_size(bs):
            rank_blk, crowd_blk = local_rank_and_crowd(
                objs, viol, partition, n_partitions
            )
        np.testing.assert_array_equal(rank_blk, rank_ref)
        np.testing.assert_array_equal(crowd_blk, crowd_ref)


def test_local_rank_matches_reference_per_partition_loop():
    # Spell the contract out once without the oracle's own partition
    # loop: library local ranks equal running the constrained sort
    # partition by partition.
    objs, viol = random_case(7, n_max=40, m_choices=(2,))
    n = objs.shape[0]
    partition = np.arange(n) % 3
    rank, crowd = local_rank_and_crowd(objs, viol, partition, 3)
    for p in range(3):
        members = np.flatnonzero(partition == p)
        fronts = ref.constrained_fronts(objs[members], viol[members])
        for level, front in enumerate(fronts):
            idx = members[front]
            np.testing.assert_array_equal(rank[idx], level)
            np.testing.assert_array_equal(crowd[idx], crowding_distance(objs[idx]))


# ------------------------------------------------------ segmented crowding


@pytest.mark.parametrize("seed", range(25))
def test_segmented_crowding_bitwise_matches_per_group(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 4))
    objs = np.round(rng.random((n, m)) * 4) / 4
    n_seg_starts = sorted(
        set([0]) | set(rng.integers(0, n, size=rng.integers(0, 6)).tolist())
    )
    new_seg = np.zeros(n, dtype=bool)
    new_seg[n_seg_starts] = True
    got = _segmented_crowding(objs, new_seg)
    starts = np.flatnonzero(new_seg)
    ends = np.append(starts[1:], n)
    for s, e in zip(starts, ends):
        np.testing.assert_array_equal(got[s:e], crowding_distance(objs[s:e]))


# --------------------------------------------------- hypothesis properties


@st.composite
def objective_cases(draw):
    n = draw(st.integers(0, 30))
    m = draw(st.integers(1, 3))
    grid = draw(st.integers(2, 8))  # coarse grid forces many exact ties
    objs = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(0, grid), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    ).reshape(n, m)
    viol = np.asarray(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float
    )
    return objs, viol


class TestKernelProperties:
    @given(objective_cases())
    @settings(max_examples=60, deadline=None)
    def test_fronts_identical_under_heavy_ties(self, case):
        objs, viol = case
        assert_fronts_equal(
            constrained_fronts(objs, viol), ref.constrained_fronts(objs, viol)
        )

    @given(
        objective_cases(),
        st.integers(0, 35),
        st.sampled_from([1, 2, 5, kernels._BLOCK_SIZE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncate_identical_under_heavy_ties(self, case, k, rows):
        objs, viol = case
        keep_r, rank_r, crowd_r = ref.truncate_and_rank(objs, viol, k)
        with block_size(rows):
            keep_b, rank_b, crowd_b = truncate_and_rank(objs, viol, k)
        np.testing.assert_array_equal(keep_b, keep_r)
        np.testing.assert_array_equal(rank_b, rank_r)
        np.testing.assert_array_equal(crowd_b, crowd_r)

    @given(objective_cases(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_local_rank_identical_under_heavy_ties(self, case, n_partitions):
        objs, viol = case
        rng = np.random.default_rng(objs.shape[0])
        partition = rng.integers(0, n_partitions, size=objs.shape[0])
        expected = ref.local_rank_and_crowd(objs, viol, partition, n_partitions)
        got = local_rank_and_crowd(objs, viol, partition, n_partitions)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
