"""Textbook per-row / per-partition kernel loops: the oracle.

These are the loops :mod:`repro.core.kernels` replaced, kept verbatim
so the library's vectorized kernels can be checked against them
bit-for-bit — fronts, member order, integer ranks and IEEE-754 crowding
floats.  Each function here has the signature of its library namesake.

:func:`use_reference_kernels` swaps the oracle into every module of the
library that looks a kernel up, so a whole optimizer run can be
repeated on the loops and compared byte-for-byte with the library run.
"""

import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.kernels import crowding_distance


def nds_fronts_reference(objs: np.ndarray) -> List[np.ndarray]:
    """Deb's fast non-dominated sort, one Python-loop row at a time."""
    n = objs.shape[0]
    domination_count = np.zeros(n, dtype=int)
    dominated_by: List[np.ndarray] = [np.zeros(0, dtype=int)] * n
    for i in range(n):
        le = np.all(objs[i] <= objs, axis=1)
        lt = np.any(objs[i] < objs, axis=1)
        dom = le & lt  # i dominates these
        dom[i] = False
        dominated_by[i] = np.flatnonzero(dom)
        domination_count[dom] += 1

    fronts: List[np.ndarray] = []
    current = np.flatnonzero(domination_count == 0)
    remaining = domination_count.copy()
    while current.size:
        fronts.append(current)
        # Mark processed so they never reappear.
        remaining[current] = -1
        for i in current:
            remaining[dominated_by[i]] -= 1
        current = np.flatnonzero(remaining == 0)
    return fronts


def constrained_fronts(
    objectives: np.ndarray, violations: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Feasible points by dominance, then infeasible by violation."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    if n == 0:
        return []
    if violations is None:
        violations = np.zeros(n)
    violations = np.asarray(violations, dtype=float).reshape(n)
    feasible = violations <= 0.0

    fronts: List[np.ndarray] = []
    feas_idx = np.flatnonzero(feasible)
    if feas_idx.size:
        for front in nds_fronts_reference(objs[feas_idx]):
            fronts.append(feas_idx[front])

    infeas_idx = np.flatnonzero(~feasible)
    if infeas_idx.size:
        v = violations[infeas_idx]
        order = np.argsort(v, kind="stable")
        sorted_idx = infeas_idx[order]
        sorted_v = v[order]
        start = 0
        for i in range(1, sorted_idx.size + 1):
            if i == sorted_idx.size or sorted_v[i] > sorted_v[start]:
                fronts.append(sorted_idx[start:i])
                start = i
    return fronts


def rank_and_crowd(
    objectives: np.ndarray, violations: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Constrained sort, then crowding front by front."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    for level, front in enumerate(constrained_fronts(objs, violations)):
        rank[front] = level
        crowd[front] = crowding_distance(objs[front])
    return rank, crowd


def local_rank_and_crowd(
    objectives: np.ndarray,
    violations: np.ndarray,
    partition: np.ndarray,
    n_partitions: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The constrained sort and crowding, partition by partition."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    if n == 0:
        return rank, crowd
    viol = np.asarray(violations, dtype=float).reshape(n)
    pid = np.asarray(partition, dtype=int).reshape(n)
    for p in range(n_partitions):
        members = np.flatnonzero(pid == p)
        if members.size == 0:
            continue
        for level, front in enumerate(
            constrained_fronts(objs[members], viol[members])
        ):
            idx = members[front]
            rank[idx] = level
            crowd[idx] = crowding_distance(objs[idx])
    return rank, crowd


def truncate_indices(
    objs: np.ndarray, violations: Optional[np.ndarray], k: int
) -> np.ndarray:
    """``crowded_truncate``: whole fronts while they fit, then the
    overflowing front by descending crowding distance."""
    n = objs.shape[0]
    if k >= n:
        return np.arange(n)
    chosen: List[np.ndarray] = []
    taken = 0
    for front in constrained_fronts(objs, violations):
        if taken + front.size <= k:
            chosen.append(front)
            taken += front.size
            if taken == k:
                break
        else:
            dist = crowding_distance(objs[front])
            order = np.argsort(-dist, kind="stable")
            chosen.append(front[order[: k - taken]])
            break
    return np.concatenate(chosen) if chosen else np.zeros(0, dtype=int)


def truncate_and_rank(
    objectives: np.ndarray, violations: Optional[np.ndarray], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncate, then re-sort the survivors: two full sorts."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    keep = truncate_indices(objs, violations, k)
    viol = None
    if violations is not None:
        viol = np.asarray(violations, dtype=float).reshape(n)[keep]
    rank, crowd = rank_and_crowd(objs[keep], viol)
    return keep, rank, crowd


#: Library kernel -> oracle, for :func:`use_reference_kernels`.
ORACLE = {
    kernels.constrained_fronts: constrained_fronts,
    kernels.rank_and_crowd: rank_and_crowd,
    kernels.local_rank_and_crowd: local_rank_and_crowd,
    kernels.truncate_and_rank: truncate_and_rank,
}


def use_reference_kernels(monkeypatch) -> int:
    """Point every ``repro`` module attribute bound to a library kernel at
    its oracle, for the rest of the test.  Returns how many it replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            for library, oracle in ORACLE.items():
                if value is library:
                    monkeypatch.setattr(module, attr, oracle)
                    replaced += 1
    return replaced
