"""Elitist non-dominated sorting GA (NSGA-II, Deb et al. 2002).

This is the paper's baseline — "Traditional Purely Global competition
based GA" (TPG).  Every individual competes in a single global
non-dominated ranking each generation; selection pressure alone decides
survival, which is precisely what Section 3 of the paper shows causes
Pareto-front clustering on the analog sizing problem.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.base_optimizer import BaseOptimizer
from repro.core.individual import Population
from repro.core.kernels import rank_and_crowd, truncate_and_rank
from repro.core.nds import assign_ranks
from repro.core.operators import variation
from repro.core.selection import binary_tournament, shuffle_for_mating


class NSGA2(BaseOptimizer):
    """NSGA-II with constrained dominance, SBX and polynomial mutation.

    Usage::

        result = NSGA2(problem, population_size=200, seed=1).run(800)
        result.front_objectives   # (k, n_obj) feasible Pareto front
    """

    algorithm_name = "NSGA-II"

    def _rank_and_crowd(self, population: Population) -> None:
        """Assign global rank and per-front crowding distance in place."""
        rank, crowding = rank_and_crowd(population.objectives, population.violation)
        population.rank[:] = rank
        population.crowding[:] = crowding

    def _loop_init(
        self, n_generations: int, initial_x: Optional[np.ndarray]
    ) -> Dict[str, Any]:
        population = self._initial_population(initial_x)
        self._rank_and_crowd(population)
        self._record(0, population)
        self.callbacks(0, population)
        return {"generation": 0, "population": population}

    def _loop_step(self, state: Dict[str, Any], n_generations: int) -> None:
        population: Population = state["population"]
        gen = state["generation"] + 1
        with self.tracer.span("select"):
            parents_idx = binary_tournament(
                population.rank,
                population.crowding,
                self.population_size,
                self.rng,
            )
            parents_idx = shuffle_for_mating(parents_idx, self.rng)
        with self.tracer.span("mate"):
            offspring_x = variation(
                population.x[parents_idx],
                self.problem.lower,
                self.problem.upper,
                self.rng,
                self.crossover,
                self.mutation,
            )
        offspring = self._evaluate_population(offspring_x)

        merged = population.concat(offspring)
        # Fused environmental selection: one non-dominated sort picks
        # the survivors AND yields their post-truncation (rank,
        # crowding).
        with self.tracer.span("rank"):
            with self.tracer.span("kernel:truncate_and_rank"):
                keep, rank, crowding = truncate_and_rank(
                    merged.objectives, merged.violation, self.population_size
                )
            population = merged.subset(keep)
        population.rank[:] = rank
        population.crowding[:] = crowding
        state["population"] = population
        state["generation"] = gen

        self._record(gen, population)
        self.callbacks(gen, population)

    def _loop_finish(
        self, state: Dict[str, Any], n_generations: int
    ) -> Tuple[Population, Dict]:
        return state["population"], {"selection": "crowded binary tournament"}


def nsga2_ranks(objectives: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """Convenience wrapper: global constrained non-dominated ranks."""
    return assign_ranks(objectives, violations)
