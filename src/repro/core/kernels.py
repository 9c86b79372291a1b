"""Vectorized dominance/selection kernels for the GA hot paths.

Every generation of NSGA-II, SACGA and MESACGA is dominated by three
operations: non-dominated sorting of the merged parent+offspring pool,
per-partition local ranking, and crowded environmental truncation.  The
kernels here replace the textbook per-row / per-partition Python loops
with full-matrix broadcast comparisons evaluated in row blocks:

* :func:`nds_fronts_blocked` — Deb's fast non-dominated sort built from
  a blocked ``(B, N, M)`` dominance comparison.  The full ``(N, N)``
  boolean dominance matrix is materialized (2.5 MB at N = 1600); the
  block size only bounds the *comparison* temporaries.
* :func:`nds_fronts_sweep` — for one or two objectives (this library's
  problems are all 2-objective) an ``O(N log N)`` sweep is used
  instead: in lexicographic objective order, a point's front level is
  found by binary search over the per-front minimum of the second
  objective (a patience-sorting argument).  The quadratic matrix is
  skipped entirely.
* :func:`local_rank_and_crowd` — ranks **all** partitions in one pass.
  For two objectives a single partition-major lexsort lines every
  partition up as a contiguous segment and one sweep with per-segment
  resets assigns every local front level; for three or more, the
  partition id is appended to the objectives as a ``(+pid, -pid)``
  column pair, which makes members of different partitions mutually
  non-dominating, so a single global sort yields every partition's local
  front levels at once.  Crowding is then computed for every
  (partition, front) group simultaneously by :func:`_segmented_crowding`.
* :func:`truncate_and_rank` — NSGA-II environmental selection that sorts
  the merged pool **once**: survivors of complete fronts provably keep
  their front level after truncation (every front-``L`` member has a
  dominator in front ``L-1``, which is always kept), so a second sort
  of the survivor subset is redundant and is replaced by a
  segment-batched crowding pass.

Semantics contract: every kernel returns *bit-identical* outputs to the
textbook loops — fronts, ranks **and** crowding floats (the segmented
crowding applies the same IEEE operations in the same per-objective
order as :func:`crowding_distance`).  The loops live on as the oracle in
``tests/core/reference_kernels.py``; ``tests/core/test_kernels.py``,
the brute-force oracle in ``tests/core/test_nds_oracle.py`` and the
whole-run byte comparison in ``tests/core/test_determinism_regression.py``
lock the contract in.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "crowding_distance",
    "nds_fronts_blocked",
    "nds_fronts_sweep",
    "constrained_fronts",
    "rank_and_crowd",
    "local_rank_and_crowd",
    "truncate_and_rank",
    "crowded_compare",
    "kernel_call_counts",
    "reset_kernel_call_counts",
]

#: Rows per block of :func:`nds_fronts_blocked`'s broadcast comparison;
#: bounds its ``(B, N, M)`` temporaries.
_BLOCK_SIZE = 256

# Process-wide call counters, keyed by function name.  A plain dict bump
# per *public* kernel call (nested calls count too: rank_and_crowd
# includes its inner constrained_fronts) — cheap enough to be
# unconditional, and the telemetry layer exports per-generation deltas.
_CALL_COUNTS: "dict[str, int]" = {}


def _count_call(fn: str) -> None:
    _CALL_COUNTS[fn] = _CALL_COUNTS.get(fn, 0) + 1


def kernel_call_counts() -> "dict[str, int]":
    """Snapshot of cumulative kernel call counts (``{"fn": n}``)."""
    return dict(_CALL_COUNTS)


def reset_kernel_call_counts() -> None:
    """Zero the process-wide kernel call counters."""
    _CALL_COUNTS.clear()


# --------------------------------------------------------------- crowding


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each point within one front.

    Boundary points of every objective get ``inf``.  Objectives with zero
    range contribute nothing.  Empty and singleton inputs are handled
    (singleton gets ``inf``).
    """
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n, m = objs.shape
    if n == 0:
        return np.zeros(0)
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (col[2:] - col[:-2]) / span
        inner = order[1:-1]
        finite = ~np.isinf(distance[inner])
        distance[inner[finite]] += gaps[finite]
    return distance


def _segmented_crowding(objs: np.ndarray, new_seg: np.ndarray) -> np.ndarray:
    """Crowding distance over many contiguous row segments in one pass.

    *objs* rows must be grouped so that each front is a contiguous
    segment; ``new_seg[i]`` is True where row *i* starts a segment.
    Returns the distance per row, bit-identical per segment to
    :func:`crowding_distance` applied to the same rows in the same order
    (same stable sort, same per-objective accumulation order, same IEEE
    operations on the same operands).
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    n, m = objs.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    seg_ord = np.cumsum(new_seg) - 1
    starts = np.flatnonzero(new_seg)
    ends = np.append(starts[1:], n)
    sizes = ends - starts
    size_row = sizes[seg_ord]
    start_row = starts[seg_ord]
    small = size_row <= 2
    dist[small] = np.inf
    if small.all():
        return dist
    positions = np.arange(n)
    for j in range(m):
        col = objs[:, j]
        # Primary key: segment; secondary: objective value; ties keep the
        # in-segment row order — exactly argsort(col, kind="stable") run
        # independently inside every segment.  Because the primary key is
        # the (sorted) segment ordinal, each segment occupies its original
        # [start, end) slice of the sorted arrangement.
        order = np.lexsort((col, seg_ord))
        scol = col[order]
        seg_sorted = seg_ord[order]
        within = positions - start_row[order]
        big = ~small[order]
        first = (within == 0) & big
        last = (within == size_row[order] - 1) & big
        dist[order[first]] = np.inf
        dist[order[last]] = np.inf
        span = scol[ends - 1] - scol[starts]
        interior = big & (within > 0) & (within < size_row[order] - 1)
        ip = np.flatnonzero(interior)
        if ip.size == 0:
            continue
        ip = ip[span[seg_sorted[ip]] > 0]
        if ip.size == 0:
            continue
        rows = order[ip]
        gaps = (scol[ip + 1] - scol[ip - 1]) / span[seg_sorted[ip]]
        finite = ~np.isinf(dist[rows])
        dist[rows[finite]] += gaps[finite]
    return dist


# ------------------------------------------------------ dominance sorting


def nds_fronts_blocked(objs: np.ndarray) -> List[np.ndarray]:
    """Deb's fast non-dominated sort via a blocked dominance matrix.

    Computes the full ``(N, N)`` boolean matrix ``dom[i, j] = i dominates
    j`` with broadcast ``(B, N, M)`` comparisons (``_BLOCK_SIZE`` rows at
    a time), then peels fronts with whole-array updates.  Front contents
    and order are identical to Deb's per-row loop.
    """
    n = objs.shape[0]
    if n == 0:
        return []
    dom = np.empty((n, n), dtype=bool)
    for s in range(0, n, _BLOCK_SIZE):
        e = min(s + _BLOCK_SIZE, n)
        blk = objs[s:e, None, :]
        le = (blk <= objs[None, :, :]).all(axis=2)
        lt = (blk < objs[None, :, :]).any(axis=2)
        np.logical_and(le, lt, out=dom[s:e])
    remaining = dom.sum(axis=0).astype(int)  # dominator count per column
    fronts: List[np.ndarray] = []
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current)
        # Front members are mutually non-dominating, so the decrement is
        # zero on `current` and the -1 marker survives exactly as in the
        # per-row peel.
        decrement = dom[current].sum(axis=0)
        remaining[current] = -1
        remaining -= decrement
        current = np.flatnonzero(remaining == 0)
    return fronts


def _sweep_levels(f1: list, f2: list, reset: list) -> list:
    """Front level per row of a lexicographically pre-sorted 2-objective
    block, one or more independent segments.

    Rows must be sorted by ``(segment, f1, f2)``; ``reset[i]`` is True
    where a new segment starts.  ``mins[k]`` holds the minimum ``f2``
    seen so far in front *k* of the current segment — a nondecreasing
    list, because a point is placed in the first front whose minimum
    exceeds its own ``f2``.  For a first-occurrence point *p*, front *j*
    contains a dominator of *p* exactly when ``mins[j] <= p.f2`` (the
    minimizing point precedes *p* lexicographically and differs from it,
    hence dominates), so *p*'s peel depth is the insertion index found by
    binary search.  Exact duplicates are adjacent after the sort and
    share the first occurrence's level.
    """
    levels = [0] * len(f1)
    mins: list = []
    prev_a = prev_b = None
    prev_level = 0
    for i, a in enumerate(f1):
        if reset[i]:
            mins = []
            prev_a = None
        b = f2[i]
        if a == prev_a and b == prev_b:
            k = prev_level
        else:
            k = bisect_right(mins, b)
            if k == len(mins):
                mins.append(b)
            else:
                mins[k] = b
            prev_a, prev_b, prev_level = a, b, k
        levels[i] = k
    return levels


def nds_fronts_sweep(objs: np.ndarray) -> List[np.ndarray]:
    """Non-dominated sort for one or two objectives in ``O(N log N)``.

    Used whenever ``M <= 2`` (always, for this library's problems):
    front levels come from :func:`_sweep_levels` instead of the quadratic
    dominance matrix.  Front contents and order are identical to Deb's
    per-row loop — peel depth is a property of the dominance relation,
    not of the algorithm, and members are emitted in ascending original
    index.
    """
    n, m = objs.shape
    if n == 0:
        return []
    if m > 2:
        raise ValueError(f"sweep kernel handles at most 2 objectives, got {m}")
    f2col = objs[:, 1] if m == 2 else np.zeros(n)
    order = np.lexsort((f2col, objs[:, 0]))
    reset = [True] + [False] * (n - 1)
    lev_sorted = _sweep_levels(
        objs[order, 0].tolist(), f2col[order].tolist(), reset
    )
    levels = np.empty(n, dtype=np.intp)
    levels[order] = lev_sorted
    by_level = np.argsort(levels, kind="stable")  # ascending index per level
    bounds = np.cumsum(np.bincount(levels))[:-1]
    return list(np.split(by_level, bounds))


def _unconstrained_fronts(objs: np.ndarray) -> List[np.ndarray]:
    if objs.shape[1] <= 2:
        return nds_fronts_sweep(objs)
    return nds_fronts_blocked(objs)


def constrained_fronts(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Constrained-dominance Pareto fronts (feasible first, then
    infeasible layered by aggregate violation).

    This is the core of :func:`repro.core.nds.fast_non_dominated_sort`;
    see there for the full semantics description.
    """
    _count_call("constrained_fronts")
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
        for front in _unconstrained_fronts(objs[feas_idx]):
            fronts.append(feas_idx[front])

    infeas_idx = np.flatnonzero(~feasible)
    if infeas_idx.size:
        v = violations[infeas_idx]
        order = np.argsort(v, kind="stable")
        sorted_idx = infeas_idx[order]
        sorted_v = v[order]
        # Group ties in violation into a single front.
        start = 0
        for i in range(1, sorted_idx.size + 1):
            if i == sorted_idx.size or sorted_v[i] > sorted_v[start]:
                fronts.append(sorted_idx[start:i])
                start = i
    return fronts


# --------------------------------------------------- rank + crowd kernels


def rank_and_crowd(
    objectives: np.ndarray,
    violations: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Global constrained front level and per-front crowding per point.

    Equivalent to running the constrained sort and then
    :func:`crowding_distance` front by front, with the crowding of all
    fronts batched into one segmented pass.
    """
    _count_call("rank_and_crowd")
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    if n == 0:
        return rank, crowd
    for level, front in enumerate(constrained_fronts(objs, violations)):
        rank[front] = level
    order = np.lexsort((rank,))  # stable: fronts contiguous, rows ascending
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = rank[order][1:] != rank[order][:-1]
    crowd[order] = _segmented_crowding(objs[order], new_seg)
    return rank, crowd


def local_rank_and_crowd(
    objectives: np.ndarray,
    violations: np.ndarray,
    partition: np.ndarray,
    n_partitions: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-partition constrained front level and crowding, all partitions
    in one pass.

    Within every partition, feasible members are layered by objective
    dominance and infeasible members follow in groups of equal aggregate
    violation; crowding is computed inside each (partition, level) group.

    For one or two objectives the feasible rows are sorted
    partition-major (one lexsort) and a single :func:`_sweep_levels`
    pass runs with a reset at every partition boundary — each partition
    is a contiguous segment, so one ``O(N log N)`` sweep assigns every
    local front level at once.  For three or more objectives a
    ``(+pid, -pid)`` column pair is appended to the objectives, which
    makes rows of different partitions mutually non-dominating (each is
    strictly smaller than the other on one of the two columns), so one
    global non-dominated sort peels every partition's local fronts
    simultaneously: a row's global peel depth equals its depth within
    its own partition because dominance edges never cross partitions.
    """
    _count_call("local_rank_and_crowd")
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    rank = np.zeros(n, dtype=int)
    crowd = np.zeros(n, dtype=float)
    if n == 0:
        return rank, crowd
    viol = np.asarray(violations, dtype=float).reshape(n)
    pid = np.asarray(partition, dtype=int).reshape(n)

    feasible = viol <= 0.0
    feas_idx = np.flatnonzero(feasible)
    n_feas_fronts = np.zeros(n_partitions, dtype=int)
    if feas_idx.size:
        if objs.shape[1] <= 2:
            fobjs = objs[feas_idx]
            fpid = pid[feas_idx]
            f1 = fobjs[:, 0]
            f2 = fobjs[:, 1] if objs.shape[1] == 2 else np.zeros(f1.size)
            order = np.lexsort((f2, f1, fpid))  # partition-major segments
            ps = fpid[order]
            reset = np.ones(order.size, dtype=bool)
            reset[1:] = ps[1:] != ps[:-1]
            rank[feas_idx[order]] = _sweep_levels(
                f1[order].tolist(), f2[order].tolist(), reset.tolist()
            )
        else:
            fpid = pid[feas_idx].astype(float)
            aug = np.concatenate(
                [objs[feas_idx], fpid[:, None], -fpid[:, None]], axis=1
            )
            for level, front in enumerate(nds_fronts_blocked(aug)):
                rank[feas_idx[front]] = level
        np.maximum.at(n_feas_fronts, pid[feas_idx], rank[feas_idx] + 1)

    infeas_idx = np.flatnonzero(~feasible)
    if infeas_idx.size:
        v = viol[infeas_idx]
        p = pid[infeas_idx]
        order = np.lexsort((v, p))  # partition-major, violation ascending
        ps = p[order]
        vs = v[order]
        new_group = np.ones(order.size, dtype=bool)
        new_group[1:] = (ps[1:] != ps[:-1]) | (vs[1:] > vs[:-1])
        gid = np.cumsum(new_group) - 1
        part_start = np.ones(order.size, dtype=bool)
        part_start[1:] = ps[1:] != ps[:-1]
        # Group index of each partition's first violation group, spread to
        # every row of that partition; subtracting it makes gid local.
        base = gid[part_start][np.cumsum(part_start) - 1]
        rank[infeas_idx[order]] = n_feas_fronts[ps] + gid - base

    # One segmented crowding pass over every (partition, level) group;
    # ties keep ascending row order, matching a per-partition loop.
    order = np.lexsort((rank, pid))
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = (pid[order][1:] != pid[order][:-1]) | (
        rank[order][1:] != rank[order][:-1]
    )
    crowd[order] = _segmented_crowding(objs[order], new_seg)
    return rank, crowd


# ------------------------------------------------- environmental selection


def _crowded_selection(
    objs: np.ndarray, violations: Optional[np.ndarray], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The *k* survivors of NSGA-II environmental selection and their
    front levels, for ``0 <= k < len(objs)``.

    Whole fronts are taken while they fit; the first front that
    overflows is truncated by descending crowding distance.  Survivors
    come in rank-major order.
    """
    keep_parts: List[np.ndarray] = []
    level_parts: List[np.ndarray] = []
    taken = 0
    for level, front in enumerate(constrained_fronts(objs, violations)):
        if taken + front.size > k:
            dist = crowding_distance(objs[front])
            front = front[np.argsort(-dist, kind="stable")[: k - taken]]
        keep_parts.append(front)
        level_parts.append(np.full(front.size, level, dtype=int))
        taken += front.size
        if taken == k:
            break
    return np.concatenate(keep_parts), np.concatenate(level_parts)


def truncate_and_rank(
    objectives: np.ndarray,
    violations: Optional[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NSGA-II environmental selection fused with survivor re-ranking.

    Returns ``(keep, rank, crowding)``: the *k* selected indices in
    rank-major order (the overflowing front truncated by descending
    crowding distance, exactly as ``crowded_truncate``), plus the front
    level and crowding each survivor would get from re-sorting the
    selected subset.

    The merged pool is sorted **once**: complete surviving fronts keep
    their levels (each front-``L`` member has a dominator in front
    ``L-1``, all of which survive, so peel depths are unchanged), and
    only the crowding of the partially-kept front differs from the
    merged-pool values — recomputed for all fronts in one segmented
    pass over the survivors in selection order, which is the row order a
    re-sort of the subset would visit.
    """
    _count_call("truncate_and_rank")
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = objs.shape[0]
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k >= n:
        rank, crowd = rank_and_crowd(objs, violations)
        return np.arange(n), rank, crowd
    keep, rank = _crowded_selection(objs, violations, k)
    new_seg = np.ones(keep.size, dtype=bool)
    new_seg[1:] = rank[1:] != rank[:-1]
    crowd = _segmented_crowding(objs[keep], new_seg)
    return keep, rank, crowd


# --------------------------------------------------------- mating kernels


def crowded_compare(
    rank_i: np.ndarray,
    crowd_i: np.ndarray,
    rank_j: np.ndarray,
    crowd_j: np.ndarray,
    coin: np.ndarray,
) -> np.ndarray:
    """Vectorized crowded-comparison operator (Deb's ``<_c``).

    Returns a boolean mask picking *i* over *j*: lower rank wins, equal
    ranks are broken by larger crowding distance, exact ties fall back to
    the caller-supplied *coin* mask.
    """
    better_rank = rank_i < rank_j
    worse_rank = rank_i > rank_j
    tie = ~(better_rank | worse_rank)
    more_crowded = crowd_i > crowd_j
    less_crowded = crowd_i < crowd_j
    return better_rank | (tie & more_crowded) | (
        tie & ~more_crowded & ~less_crowded & coin
    )
