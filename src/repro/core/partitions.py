"""Objective-space partitioning (Section 4.3 of the paper).

The objective-function space is split into ``m`` equal slices induced by
dividing the *range space of one objective* (for the integrator problem:
the load capacitance) into ``m`` equal, disjoint intervals.  Local
competition then ranks individuals only against members of the same
slice.

:class:`PartitionGrid` is the static grid used by SACGA;
:func:`expanding_schedule` produces the shrinking partition counts of
MESACGA (e.g. 20 → 13 → 8 → 5 → 3 → 2 → 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.individual import Population
from repro.core.kernels import local_rank_and_crowd
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PartitionGrid:
    """Equal-width partitioning of one objective's range.

    Parameters
    ----------
    axis:
        Index of the partitioning objective.
    low, high:
        Range of that objective that the grid covers.  Values outside are
        clamped into the first/last partition (the paper's integrator
        problem has a hard physical range, 0–5 pF of load capacitance).
    n_partitions:
        Number of equal slices ``m``.
    """

    axis: int
    low: float
    high: float
    n_partitions: int

    def __post_init__(self) -> None:
        if self.axis < 0:
            raise ValueError(f"axis must be >= 0, got {self.axis}")
        if not self.high > self.low:
            raise ValueError(
                f"high ({self.high}) must exceed low ({self.low})"
            )
        check_positive("n_partitions", self.n_partitions)

    @property
    def width(self) -> float:
        return (self.high - self.low) / self.n_partitions

    @property
    def edges(self) -> np.ndarray:
        """Partition boundaries, ``n_partitions + 1`` values."""
        return np.linspace(self.low, self.high, self.n_partitions + 1)

    def assign(self, objectives: np.ndarray) -> np.ndarray:
        """Partition index of each objective row (clamped into range)."""
        objs = np.atleast_2d(np.asarray(objectives, dtype=float))
        if self.axis >= objs.shape[1]:
            raise ValueError(
                f"axis {self.axis} out of range for {objs.shape[1]} objectives"
            )
        coord = objs[:, self.axis]
        raw = np.floor((coord - self.low) / self.width).astype(int)
        return np.clip(raw, 0, self.n_partitions - 1)

    def with_partitions(self, n_partitions: int) -> "PartitionGrid":
        """Same range/axis, different slice count (MESACGA phase change)."""
        return PartitionGrid(
            axis=self.axis, low=self.low, high=self.high, n_partitions=n_partitions
        )

    def centers(self) -> np.ndarray:
        edges = self.edges
        return 0.5 * (edges[:-1] + edges[1:])


def expanding_schedule(
    start: int,
    n_phases: Optional[int] = None,
    ratio: float = 0.64,
) -> List[int]:
    """Geometric-ish shrinking partition counts ending at 1.

    With the paper's ``start=20`` and default ratio this yields
    ``[20, 13, 8, 5, 3, 2, 1]`` — exactly the 7-phase schedule used in
    Section 4.5.

    Parameters
    ----------
    start:
        Partition count of the first phase.
    n_phases:
        If given, the schedule is resampled/truncated to this many phases
        (still strictly decreasing, still ending at 1).
    ratio:
        Multiplicative shrink factor per phase, in (0, 1).
    """
    check_positive("start", start)
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    counts = [int(start)]
    while counts[-1] > 1:
        nxt = max(1, int(round(counts[-1] * ratio)))
        if nxt >= counts[-1]:
            nxt = counts[-1] - 1
        counts.append(nxt)
    if n_phases is not None:
        if n_phases < 1:
            raise ValueError(f"n_phases must be >= 1, got {n_phases}")
        if n_phases == 1:
            return [1]
        # Resample indices evenly over the generated schedule.
        idx = np.linspace(0, len(counts) - 1, n_phases)
        resampled = [counts[int(round(i))] for i in idx]
        # Enforce strict decrease and terminal 1.
        out: List[int] = []
        for c in resampled:
            if out and c >= out[-1]:
                c = max(1, out[-1] - 1)
            out.append(c)
        out[-1] = 1
        return out
    return counts


class PartitionedPopulation:
    """A population organized into partitions with local rankings.

    This is the data structure at the heart of SACGA: it knows, for each
    partition, which members are *locally superior* (the partition's own
    non-dominated feasible front) and maintains the local (rank, crowding)
    attributes used for local environmental selection.
    """

    def __init__(
        self,
        population: Population,
        grid: PartitionGrid,
    ) -> None:
        self.population = population
        self.grid = grid
        self._assign_partitions()
        self._rank_locally()

    # ----------------------------------------------------------- internals

    def _assign_partitions(self) -> None:
        pop = self.population
        if pop.size:
            pop.partition = self.grid.assign(pop.objectives)
        else:
            pop.partition = np.zeros(0, dtype=int)

    def _rank_locally(self) -> None:
        """Local constrained NDS + crowding within every partition.

        All partitions are ranked in one batched kernel call, which
        peels every partition's fronts from a single sort.
        """
        pop = self.population
        rank, crowding = local_rank_and_crowd(
            pop.objectives,
            pop.violation,
            pop.partition,
            self.grid.n_partitions,
        )
        pop.rank[:] = rank
        pop.crowding[:] = crowding

    # ----------------------------------------------------------- accessors

    def members_of(self, p: int) -> np.ndarray:
        """Indices of partition *p*'s members."""
        return np.flatnonzero(self.population.partition == p)

    def locally_superior(self, p: int) -> np.ndarray:
        """Indices of partition *p*'s local Pareto front (rank 0 members)."""
        members = self.members_of(p)
        return members[self.population.rank[members] == 0]

    def partitions_with_feasible(self) -> np.ndarray:
        """Partition ids that contain at least one constraint-satisfying member."""
        pop = self.population
        ids = np.unique(pop.partition[pop.feasible])
        return ids

    def occupancy(self) -> np.ndarray:
        """Member count per partition, shape ``(n_partitions,)``."""
        return np.bincount(
            self.population.partition, minlength=self.grid.n_partitions
        )

    # ----------------------------------------------------------- selection

    def local_truncate(
        self,
        capacity: int,
        live_partitions: Optional[Sequence[int]] = None,
    ) -> Population:
        """Environmental selection per partition (the "Local Selection" box).

        Each live partition keeps at most *capacity* members by local
        (rank, crowding) order.  Members of non-live partitions are
        dropped.  Returns the truncated population (re-partitioned and
        re-ranked by constructing a new :class:`PartitionedPopulation` is
        the caller's job — typically via :meth:`rebuild`).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        pop = self.population
        live = (
            set(int(p) for p in live_partitions)
            if live_partitions is not None
            else set(range(self.grid.n_partitions))
        )
        keep: List[np.ndarray] = []
        for p in range(self.grid.n_partitions):
            if p not in live:
                continue
            members = self.members_of(p)
            if members.size == 0:
                continue
            if members.size <= capacity:
                keep.append(members)
                continue
            order = np.lexsort(
                (-pop.crowding[members], pop.rank[members])
            )
            keep.append(members[order[:capacity]])
        if not keep:
            return pop.subset(np.zeros(0, dtype=int))
        return pop.subset(np.concatenate(keep))

    def rebuild(self, population: Population) -> "PartitionedPopulation":
        """New partitioned view of *population* under the same grid."""
        return PartitionedPopulation(population, self.grid)
