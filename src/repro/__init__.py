"""repro - SACGA / MESACGA analog design-space exploration (DATE 2005).

Reproduction of Somani, Chakrabarti & Patra, "Mixing Global and Local
Competition in Genetic Optimization based Design Space Exploration of
Analog Circuits", DATE 2005.

Public API highlights::

    from repro import NSGA2, SACGA, MESACGA, PartitionGrid
    from repro.circuits import IntegratorSizingProblem, published_spec
    from repro.metrics import hypervolume_paper

    problem = IntegratorSizingProblem(published_spec())
    grid = problem.partition_grid(n_partitions=8)
    result = SACGA(problem, grid, population_size=200, seed=1).run(800)
    result.front_objectives    # the power / load-capacitance design surface
"""

from repro.core import (
    NSGA2,
    EvaluationBackend,
    IslandNSGA2,
    ParetoArchive,
    QuantilePartitionGrid,
    AdaptiveSACGA,
    SACGA,
    SACGAConfig,
    MESACGA,
    PartitionGrid,
    PartitionedPopulation,
    Population,
    SBXCrossover,
    PolynomialMutation,
    CompetitionGate,
    AnnealingSchedule,
    shape_parameters,
    expanding_schedule,
    OptimizationResult,
    PAPER_SCHEDULE,
)
from repro.problems import Problem, Evaluation

__version__ = "1.0.0"

__all__ = [
    "NSGA2",
    "EvaluationBackend",
    "IslandNSGA2",
    "ParetoArchive",
    "QuantilePartitionGrid",
    "AdaptiveSACGA",
    "SACGA",
    "SACGAConfig",
    "MESACGA",
    "PartitionGrid",
    "PartitionedPopulation",
    "Population",
    "SBXCrossover",
    "PolynomialMutation",
    "CompetitionGate",
    "AnnealingSchedule",
    "shape_parameters",
    "expanding_schedule",
    "OptimizationResult",
    "PAPER_SCHEDULE",
    "Problem",
    "Evaluation",
    "__version__",
]
