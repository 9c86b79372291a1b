"""Fast non-dominated sorting and crowding distance (Deb et al., 2002).

Both routines honour constrained dominance: every feasible solution
outranks every infeasible one, and infeasible solutions are layered by
total violation.  This is the constraint handling used by NSGA-II and,
per the paper, by all three compared algorithms.

The heavy lifting lives in :mod:`repro.core.kernels` (vectorized
sweeps and blocked dominance matrices, bit-identical to Deb's per-row
loops).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.kernels import (
    _crowded_selection,
    constrained_fronts,
    crowding_distance,
)

__all__ = [
    "fast_non_dominated_sort",
    "assign_ranks",
    "crowding_distance",
    "crowded_truncate",
]


def fast_non_dominated_sort(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Partition points into Pareto fronts F1, F2, ...

    Returns a list of index arrays; ``fronts[0]`` is the non-dominated
    set, ``fronts[1]`` the set dominated only by ``fronts[0]``, etc.

    Feasible points are sorted by objective dominance; infeasible points
    are appended afterwards in layers of equal aggregate violation
    (smaller violation = earlier front), which realizes Deb's
    constrained-dominance ordering without an O(n^2) pass over the
    infeasible subset.
    """
    return constrained_fronts(objectives, violations)


def assign_ranks(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-point front index (0 = non-dominated) from the fast sort."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    ranks = np.full(objs.shape[0], -1, dtype=int)
    for level, front in enumerate(fast_non_dominated_sort(objs, violations)):
        ranks[front] = level
    return ranks


def crowded_truncate(
    objectives: np.ndarray,
    violations: Optional[np.ndarray],
    k: int,
) -> np.ndarray:
    """Select *k* indices by (rank, crowding) — NSGA-II environmental selection.

    Whole fronts are taken while they fit; the first front that overflows
    is truncated by descending crowding distance.  Returns the selected
    indices (rank-major order).
    """
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k >= objs.shape[0]:
        return np.arange(objs.shape[0])
    return _crowded_selection(objs, violations, k)[0]
