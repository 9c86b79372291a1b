"""The paper's algorithmic contribution and its GA substrate.

Public surface:

* :class:`NSGA2` — the "Traditional Purely Global" baseline.
* :class:`SACGA` / :class:`SACGAConfig` — partitioned GA with
  SA-controlled mixing of local and global competition.
* :class:`MESACGA` — multi-phase expanding-partitions SACGA.
* :class:`PartitionGrid`, :func:`expanding_schedule` — objective-space
  partitioning.
* :func:`shape_parameters`, :class:`CompetitionGate`,
  :class:`AnnealingSchedule` — eqns (2)-(4).
"""

from repro.core.individual import Population, IndividualView
from repro.core.evaluation import BackendStats, EvaluationBackend
from repro.core.kernels import (
    local_rank_and_crowd,
    rank_and_crowd,
    truncate_and_rank,
)
from repro.core.operators import SBXCrossover, PolynomialMutation, variation
from repro.core.selection import binary_tournament, linear_rank_selection
from repro.core.nds import (
    fast_non_dominated_sort,
    assign_ranks,
    crowding_distance,
    crowded_truncate,
)
from repro.core.annealing import AnnealingSchedule, CompetitionGate, shape_parameters
from repro.core.partitions import (
    PartitionGrid,
    PartitionedPopulation,
    expanding_schedule,
)
from repro.core.quantile_partitions import QuantilePartitionGrid, AdaptiveSACGA
from repro.core.archive import ParetoArchive
from repro.core.nsga2 import NSGA2
from repro.core.islands import IslandNSGA2
from repro.core.sacga import SACGA, SACGAConfig
from repro.core.mesacga import MESACGA, PAPER_SCHEDULE, paper_schedule
from repro.core.results import OptimizationResult, GenerationRecord
from repro.core.callbacks import (
    HistoryRecorder,
    RunTimeoutError,
    StagnationStop,
    WallClockTimeout,
)
from repro.core.checkpoint import (
    CheckpointCallback,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Population",
    "IndividualView",
    "BackendStats",
    "EvaluationBackend",
    "SBXCrossover",
    "PolynomialMutation",
    "variation",
    "binary_tournament",
    "linear_rank_selection",
    "fast_non_dominated_sort",
    "assign_ranks",
    "crowding_distance",
    "crowded_truncate",
    "local_rank_and_crowd",
    "rank_and_crowd",
    "truncate_and_rank",
    "AnnealingSchedule",
    "CompetitionGate",
    "shape_parameters",
    "PartitionGrid",
    "PartitionedPopulation",
    "expanding_schedule",
    "QuantilePartitionGrid",
    "AdaptiveSACGA",
    "ParetoArchive",
    "NSGA2",
    "IslandNSGA2",
    "SACGA",
    "SACGAConfig",
    "MESACGA",
    "PAPER_SCHEDULE",
    "paper_schedule",
    "OptimizationResult",
    "GenerationRecord",
    "HistoryRecorder",
    "StagnationStop",
    "RunTimeoutError",
    "WallClockTimeout",
    "CheckpointCallback",
    "load_checkpoint",
    "save_checkpoint",
]
