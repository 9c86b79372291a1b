"""Unequal (quantile-based) objective-space partitions — an extension.

The paper (Section 4.4) names the open problem directly: "A prominent
issue which affects the efficiency of SACGA is the problem of selecting
the optimal number of partitions with respect to each objective function
and determining their (generally, unequal) sizes.  They are dependent
upon the solution space and no method is known of finding them.  A
simplified approach may be to choose partitions of equal sizes."

This module implements the natural data-driven answer: partition edges
placed at *quantiles* of the current population's partitioning-objective
values, so every slice holds roughly the same number of individuals —
narrow slices where the population is dense, wide slices where it is
sparse.  :class:`QuantilePartitionGrid` is a drop-in replacement for
:class:`~repro.core.partitions.PartitionGrid` (same interface), and
:class:`AdaptiveSACGA` re-fits the edges periodically during evolution.

The ablation bench ``benchmarks/test_ablation_quantile_partitions.py``
compares equal-width vs quantile partitioning on the sizing problem.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.partitions import PartitionedPopulation
from repro.core.sacga import SACGA
from repro.utils.validation import check_positive


class QuantilePartitionGrid:
    """Partitioning with data-driven, generally unequal slice widths.

    Parameters
    ----------
    axis:
        Index of the partitioning objective.
    edges:
        Strictly increasing interior + outer boundaries,
        ``n_partitions + 1`` values.  Use :meth:`fit` to derive them from
        data.  Values outside ``[edges[0], edges[-1]]`` are clamped into
        the first/last slice, as in the equal-width grid.
    """

    def __init__(self, axis: int, edges: np.ndarray) -> None:
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        edges = np.asarray(edges, dtype=float).ravel()
        if edges.size < 2:
            raise ValueError("need at least 2 edges (one partition)")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.axis = int(axis)
        self._edges = edges

    # ------------------------------------------------------------- factory

    @classmethod
    def fit(
        cls,
        objectives: np.ndarray,
        axis: int,
        n_partitions: int,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "QuantilePartitionGrid":
        """Edges at equal-occupancy quantiles of ``objectives[:, axis]``.

        *low*/*high* pin the outer boundaries (e.g. the physical 0-5 pF
        range); interior edges come from the data.  Duplicate quantiles
        (heavily clustered data) are spread minimally to keep the edges
        strictly increasing.
        """
        check_positive("n_partitions", n_partitions)
        objs = np.atleast_2d(np.asarray(objectives, dtype=float))
        if axis >= objs.shape[1]:
            raise ValueError(
                f"axis {axis} out of range for {objs.shape[1]} objectives"
            )
        values = objs[:, axis]
        if values.size == 0:
            raise ValueError("cannot fit quantile partitions to an empty set")
        lo = float(values.min() if low is None else low)
        hi = float(values.max() if high is None else high)
        if not hi > lo:
            hi = lo + 1.0
        qs = np.linspace(0.0, 1.0, n_partitions + 1)[1:-1]
        interior = np.quantile(np.clip(values, lo, hi), qs)
        edges = np.concatenate([[lo], interior, [hi]])
        # Repair duplicates from clustered data.
        min_step = (hi - lo) * 1e-9 + 1e-30
        for i in range(1, edges.size):
            if edges[i] <= edges[i - 1]:
                edges[i] = edges[i - 1] + max(min_step, (hi - lo) / 1e6)
        edges[-1] = max(edges[-1], hi)
        return cls(axis=axis, edges=edges)

    # ----------------------------------------------------------- interface

    @property
    def n_partitions(self) -> int:
        return self._edges.size - 1

    @property
    def edges(self) -> np.ndarray:
        return self._edges.copy()

    @property
    def low(self) -> float:
        return float(self._edges[0])

    @property
    def high(self) -> float:
        return float(self._edges[-1])

    def widths(self) -> np.ndarray:
        """Per-slice widths (generally unequal)."""
        return np.diff(self._edges)

    def assign(self, objectives: np.ndarray) -> np.ndarray:
        objs = np.atleast_2d(np.asarray(objectives, dtype=float))
        if self.axis >= objs.shape[1]:
            raise ValueError(
                f"axis {self.axis} out of range for {objs.shape[1]} objectives"
            )
        coord = objs[:, self.axis]
        idx = np.searchsorted(self._edges, coord, side="right") - 1
        return np.clip(idx, 0, self.n_partitions - 1)

    def with_partitions(self, n_partitions: int) -> "QuantilePartitionGrid":
        """Re-slice the same range into *n_partitions* equal-width slices.

        Without data there is no quantile information, so expansion falls
        back to equal widths over the same range (MESACGA phase change).
        """
        edges = np.linspace(self.low, self.high, n_partitions + 1)
        return QuantilePartitionGrid(axis=self.axis, edges=edges)

    def centers(self) -> np.ndarray:
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantilePartitionGrid(axis={self.axis}, "
            f"n_partitions={self.n_partitions}, "
            f"range=[{self.low:.3g}, {self.high:.3g}])"
        )


class AdaptiveSACGA(SACGA):
    """SACGA that periodically re-fits quantile partition edges.

    Every ``refit_every`` Phase-II iterations, the partition edges are
    re-derived from the current population so that slices track where
    the front actually lives.  The outer range stays pinned to the
    original grid's ``[low, high]``.

    This addresses the paper's open problem of "determining their
    (generally, unequal) sizes" with the obvious population-quantile
    heuristic; the ablation bench quantifies what it buys.
    """

    algorithm_name = "AdaptiveSACGA"

    def __init__(self, *args, refit_every: int = 25, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.refit_every = int(refit_every)
        self._steps_since_refit = 0

    def _live_after_phase1(self, parted):
        """As SACGA, but every partition stays live: quantile slices are
        equal-occupancy by construction, so an id that is feasibility-free
        now may cover a completely different region after the next refit."""
        return list(range(self.grid.n_partitions))

    def _sync_loop_state(self, state):
        super()._sync_loop_state(state)
        state["refit_steps"] = self._steps_since_refit

    def _restore_loop_state(self, state):
        self._steps_since_refit = int(state.get("refit_steps", 0))
        super()._restore_loop_state(state)

    def _generation(self, parted, live, gate, gen_offset):
        out = super()._generation(parted, live, gate, gen_offset)
        if gate is None:
            return out
        self._steps_since_refit += 1
        if self._steps_since_refit >= self.refit_every and out.population.size:
            self._steps_since_refit = 0
            new_grid = QuantilePartitionGrid.fit(
                out.population.objectives,
                axis=self.grid.axis,
                n_partitions=self.grid.n_partitions,
                low=self.grid.low,
                high=self.grid.high,
            )
            self.grid = new_grid
            out = PartitionedPopulation(out.population, new_grid)
        return out
