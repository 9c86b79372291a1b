"""Island-model multi-objective GA — the alternative the paper cites.

Paper §4.1: "A known method of diversity preservation is parallel
population GA with inter-population migration controlled in a tribe or
island based framework [7], which can be extended for Multi-objective
GA.  However, in this work, we try to establish that this objective can
be accomplished by a simple modification in the traditional
single-population GA."

This module provides that cited alternative so the claim can be tested:
:class:`IslandNSGA2` runs several independent NSGA-II sub-populations
(islands) with periodic ring migration of elite individuals, and reports
the global non-dominated front of the union.  Unlike SACGA's partitions
(slices of *objective* space), islands are unstructured — diversity
preservation comes only from isolation plus limited gene flow.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base_optimizer import BaseOptimizer
from repro.core.individual import Population
from repro.core.kernels import rank_and_crowd, truncate_and_rank
from repro.core.operators import variation
from repro.core.selection import binary_tournament, shuffle_for_mating
from repro.problems.base import Problem
from repro.utils.rng import RngLike


class IslandNSGA2(BaseOptimizer):
    """Parallel-population NSGA-II with ring migration.

    Parameters
    ----------
    problem, population_size, crossover, mutation, seed:
        As in :class:`BaseOptimizer`; *population_size* is the **total**
        across islands (divided as evenly as possible).
    n_islands:
        Number of independent sub-populations.
    migration_interval:
        Every this many generations, each island sends its elite to the
        next island on the ring.
    n_migrants:
        Individuals sent per migration event (clamped to island size - 1).
    """

    algorithm_name = "Island-NSGA-II"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 100,
        n_islands: int = 4,
        migration_interval: int = 10,
        n_migrants: int = 2,
        crossover=None,
        mutation=None,
        seed: RngLike = None,
        metrics=None,
        tracer=None,
    ) -> None:
        super().__init__(
            problem,
            population_size=population_size,
            crossover=crossover,
            mutation=mutation,
            seed=seed,
            metrics=metrics,
            tracer=tracer,
        )
        if n_islands < 1:
            raise ValueError(f"n_islands must be >= 1, got {n_islands}")
        if population_size < 4 * n_islands:
            raise ValueError(
                f"population_size {population_size} too small for "
                f"{n_islands} islands (need >= 4 each)"
            )
        if migration_interval < 1:
            raise ValueError(
                f"migration_interval must be >= 1, got {migration_interval}"
            )
        if n_migrants < 1:
            raise ValueError(f"n_migrants must be >= 1, got {n_migrants}")
        self.n_islands = int(n_islands)
        self.migration_interval = int(migration_interval)
        self.n_migrants = int(n_migrants)

    # ----------------------------------------------------------- internals

    def _island_sizes(self) -> List[int]:
        base = self.population_size // self.n_islands
        sizes = [base] * self.n_islands
        for i in range(self.population_size - base * self.n_islands):
            sizes[i] += 1
        return sizes

    def _rank_and_crowd(self, pop: Population) -> None:
        rank, crowding = rank_and_crowd(pop.objectives, pop.violation)
        pop.rank[:] = rank
        pop.crowding[:] = crowding

    def _evolve_island(self, island: Population, size: int) -> Population:
        with self.tracer.span("select"):
            parents_idx = binary_tournament(
                island.rank, island.crowding, size, self.rng
            )
            parents_idx = shuffle_for_mating(parents_idx, self.rng)
        with self.tracer.span("mate"):
            offspring_x = variation(
                island.x[parents_idx],
                self.problem.lower,
                self.problem.upper,
                self.rng,
                self.crossover,
                self.mutation,
            )
        offspring = self._evaluate_population(offspring_x)
        merged = island.concat(offspring)
        with self.tracer.span("rank"):
            with self.tracer.span("kernel:truncate_and_rank"):
                keep, rank, crowding = truncate_and_rank(
                    merged.objectives, merged.violation, size
                )
            survivor = merged.subset(keep)
            survivor.rank[:] = rank
            survivor.crowding[:] = crowding
        return survivor

    def _migrate(self, islands: List[Population]) -> List[Population]:
        """Ring migration: each island's elite replaces the next's worst."""
        if len(islands) < 2:
            return islands
        elites = []
        for island in islands:
            k = min(self.n_migrants, island.size - 1)
            order = np.lexsort((-island.crowding, island.rank))
            elites.append(island.subset(order[:k]))
        out = []
        for i, island in enumerate(islands):
            incoming = elites[(i - 1) % len(islands)]
            k = incoming.size
            order = np.lexsort((-island.crowding, island.rank))
            keep = island.subset(order[: island.size - k])
            merged = keep.concat(incoming)
            self._rank_and_crowd(merged)
            out.append(merged)
        return out

    # ------------------------------------------------------ loop state hooks

    def _loop_init(
        self, n_generations: int, initial_x: Optional[np.ndarray]
    ) -> Dict[str, Any]:
        whole = self._initial_population(initial_x)
        sizes = self._island_sizes()
        islands: List[Population] = []
        start = 0
        for size in sizes:
            island = whole.subset(np.arange(start, start + size))
            self._rank_and_crowd(island)
            islands.append(island)
            start += size

        self.history.record(0, whole, self._n_evaluations, force=True)
        self.callbacks(0, whole)
        return {
            "generation": 0,
            "islands": islands,
            "sizes": sizes,
            "union": whole,
            "n_migrations": 0,
        }

    def _loop_step(self, state: Dict[str, Any], n_generations: int) -> None:
        gen = state["generation"] + 1
        islands = [
            self._evolve_island(island, size)
            for island, size in zip(state["islands"], state["sizes"])
        ]
        if gen % self.migration_interval == 0:
            with self.tracer.span("migrate"):
                islands = self._migrate(islands)
            state["n_migrations"] += 1
        union = islands[0]
        for island in islands[1:]:
            union = union.concat(island)
        state["islands"] = islands
        state["union"] = union
        state["generation"] = gen
        self.history.record(
            gen,
            union,
            self._n_evaluations,
            extras={"n_islands": float(self.n_islands)},
            force=(gen == n_generations),
        )
        self.callbacks(gen, union)

    def _loop_finish(
        self, state: Dict[str, Any], n_generations: int
    ) -> Tuple[Population, Dict]:
        union: Population = state["union"]
        self._rank_and_crowd(union)
        meta = {
            "n_islands": self.n_islands,
            "migration_interval": self.migration_interval,
            "n_migrants": self.n_migrants,
            "n_migrations": state["n_migrations"],
            "island_sizes": state["sizes"],
        }
        return union, meta
