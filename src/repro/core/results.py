"""Run records: per-generation history and final optimization results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.core.individual import Population


@dataclass
class GenerationRecord:
    """Snapshot of one generation.

    Attributes
    ----------
    generation:
        Zero-based generation counter (0 = initial population).
    n_feasible:
        Number of feasible members.
    front_objectives:
        Objectives of the current global non-dominated feasible set
        (``(k, n_obj)``); empty when nothing is feasible yet.
    n_evaluations:
        Cumulative problem evaluations at snapshot time.
    extras:
        Algorithm-specific scalars (e.g. annealing temperature, live
        partition count, mean global-participation probability).
    """

    generation: int
    n_feasible: int
    front_objectives: np.ndarray
    n_evaluations: int
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass
class OptimizationResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm label ("NSGA-II", "SACGA", "MESACGA").
    problem_name:
        The problem's ``name``.
    population:
        Final population.
    front_x / front_objectives:
        The final (feasible, constraint-aware) Pareto set and front.
    n_generations:
        Number of generations executed.
    n_evaluations:
        Total design-point evaluations consumed.
    wall_time:
        Seconds of wall-clock time in the main loop.
    history:
        One snapshot per generation, generation 0 included.
    metadata:
        Free-form configuration echo (population size, partition counts,
        annealing parameters, seed) for provenance.
    """

    algorithm: str
    problem_name: str
    population: Population
    front_x: np.ndarray
    front_objectives: np.ndarray
    n_generations: int
    n_evaluations: int
    wall_time: float
    history: List[GenerationRecord] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def front_size(self) -> int:
        return int(self.front_objectives.shape[0])

    def feasible_front(self) -> np.ndarray:
        """Alias kept for API clarity — the stored front is feasible-only."""
        return self.front_objectives

    def summary(self) -> Dict[str, Any]:
        """Compact scalar summary used by reports and serialization."""
        return {
            "algorithm": self.algorithm,
            "problem": self.problem_name,
            "front_size": self.front_size,
            "n_generations": self.n_generations,
            "n_evaluations": self.n_evaluations,
            "wall_time_s": round(self.wall_time, 4),
        }


def extract_feasible_front(population: Population) -> "tuple[np.ndarray, np.ndarray]":
    """Decision vectors and objectives of the feasible non-dominated set.

    Returns empty arrays (with correct trailing dimensions) when the
    population holds no feasible member.
    """
    feas = np.flatnonzero(population.feasible)
    if feas.size == 0:
        return (
            np.zeros((0, population.n_var)),
            np.zeros((0, population.n_obj)),
        )
    sub = population.subset(feas)
    idx = sub.pareto_front_indices()
    return sub.x[idx].copy(), sub.objectives[idx].copy()
