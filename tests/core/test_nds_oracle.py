"""Brute-force oracle for constrained non-dominated sorting.

``fast_non_dominated_sort`` (the library kernel, ``"blocked"``) and the
textbook loop in ``tests/core/reference_kernels.py`` (``"reference"``)
are both checked against an independent O(N^2 M) implementation built
straight from the definition of constrained dominance (Deb 2002):

* a feasible point dominates every infeasible point;
* between feasible points, Pareto dominance on the objectives;
* between infeasible points, strictly smaller aggregate violation wins.

Front level is the longest dominator chain ending at the point, computed
by repeated peeling of the currently-undominated set — no shared code
with either sort, so an agreeing bug would have to be invented twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nds import fast_non_dominated_sort
from tests.core import reference_kernels

SORTS = {
    "blocked": fast_non_dominated_sort,
    "reference": reference_kernels.constrained_fronts,
}


def constrained_dominates(oi, oj, vi, vj):
    """Definition-level constrained dominance between two points."""
    if vi <= 0.0 and vj > 0.0:
        return True
    if vi > 0.0 and vj <= 0.0:
        return False
    if vi > 0.0 and vj > 0.0:
        return vi < vj
    return bool(np.all(oi <= oj) and np.any(oi < oj))


def oracle_fronts(objs, viol):
    """Peel the dominance relation by brute force."""
    n = objs.shape[0]
    dom = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                dom[i, j] = constrained_dominates(
                    objs[i], objs[j], viol[i], viol[j]
                )
    unassigned = np.ones(n, dtype=bool)
    fronts = []
    while unassigned.any():
        alive = np.flatnonzero(unassigned)
        undominated = [
            j for j in alive if not dom[np.ix_(alive, [j])].any()
        ]
        fronts.append(np.asarray(undominated, dtype=int))
        unassigned[undominated] = False
    return fronts


def random_mix(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    m = int(rng.integers(1, 4))
    objs = np.round(rng.random((n, m)) * 4) / 4
    infeasible_frac = rng.choice([0.0, 0.3, 1.0])
    viol = np.where(
        rng.random(n) < infeasible_frac, np.round(rng.random(n) * 4) / 4, 0.0
    )
    return objs, viol


@pytest.mark.parametrize("kernel", ["blocked", "reference"])
@pytest.mark.parametrize("seed", range(30))
def test_fast_sort_matches_bruteforce_oracle(kernel, seed):
    objs, viol = random_mix(seed)
    expected = oracle_fronts(objs, viol)
    got = SORTS[kernel](objs, viol)
    assert len(got) == len(expected)
    for fg, fe in zip(got, expected):
        np.testing.assert_array_equal(np.sort(fg), np.sort(fe))
    # Members must also come out in ascending original index (the order
    # crowding and serialization rely on).
    for front in got:
        assert np.all(np.diff(front) > 0) or front.size <= 1


@st.composite
def mixes(draw):
    n = draw(st.integers(0, 25))
    m = draw(st.integers(1, 3))
    objs = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(0, 5), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    ).reshape(n, m)
    viol = np.asarray(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float
    )
    return objs, viol


@pytest.mark.parametrize("kernel", ["blocked", "reference"])
@given(mixes())
@settings(max_examples=40, deadline=None)
def test_fast_sort_matches_oracle_property(kernel, case):
    objs, viol = case
    expected = oracle_fronts(objs, viol)
    got = SORTS[kernel](objs, viol)
    assert len(got) == len(expected)
    for fg, fe in zip(got, expected):
        np.testing.assert_array_equal(np.sort(fg), np.sort(fe))
