"""SACGA — Simulated Annealing driven Competition in Genetic Algorithm.

The paper's core algorithm (Section 4.4, flow in Fig. 3).  Two phases:

Phase I — *pure local competition*: the objective space is partitioned
along one objective; non-dominated ranking happens only within each
partition.  The phase ends when every partition holds at least one
constraint-satisfying solution, or after ``phase1_max_iterations``, after
which partitions still lacking feasible members are discarded (they lie
in the infeasible region of the objective space).

Phase II — *SA-mixed competition* for ``span`` iterations: each
iteration, every live partition's locally superior solutions are
considered in random order and exposed to global competition with the
annealing-gated probability of eqns (2)-(4).  Exposed candidates are
re-ranked by a global non-dominated sort over all exposed candidates
("rank revision"); unexposed solutions keep their local rank, protecting
weak-but-diverse regions.  The Global Mating Pool is then drawn from the
*entire* population by rank-based selection, offspring are created by
global crossover + mutation, and each partition performs local
environmental selection.

At the end, one global competition over the final population yields the
Global Pareto Front (this is what :class:`OptimizationResult` stores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.annealing import CompetitionGate, shape_parameters
from repro.core.base_optimizer import BaseOptimizer
from repro.core.individual import Population
from repro.core.nds import assign_ranks
from repro.core.operators import variation
from repro.core.partitions import PartitionGrid, PartitionedPopulation
from repro.core.selection import (
    binary_tournament,
    linear_rank_selection,
    shuffle_for_mating,
)
from repro.problems.base import Problem
from repro.utils.rng import RngLike


@dataclass
class SACGAConfig:
    """Tunable knobs of SACGA beyond the generic GA settings.

    Attributes
    ----------
    n_per_partition:
        ``n`` of eqn (2) — desired number of globally superior solutions
        per partition at the end of Phase II.
    phase1_max_iterations:
        Upper limit on Phase-I iterations (after which infeasible
        partitions are discarded).
    p_mid_first, p_mid_last, p_end:
        Anchor probabilities for :func:`shape_parameters`.
    selection_pressure:
        Linear-ranking pressure of the Global Mating Pool.
    demote_dominated:
        Whether globally dominated participants have their rank demoted
        (the paper's "rank revision"); disabling this is an ablation.
    mating_selection:
        ``"linear_rank"`` (the paper's rank-based Global Mating Pool) or
        ``"tournament"`` (crowded binary tournament — an ablation that
        replaces the paper's choice with NSGA-II's).
    """

    n_per_partition: int = 5
    phase1_max_iterations: int = 100
    p_mid_first: float = 0.5
    p_mid_last: float = 0.1
    p_end: float = 0.95
    selection_pressure: float = 1.8
    demote_dominated: bool = True
    mating_selection: str = "linear_rank"

    def __post_init__(self) -> None:
        if self.mating_selection not in ("linear_rank", "tournament"):
            raise ValueError(
                f"mating_selection must be 'linear_rank' or 'tournament', "
                f"got {self.mating_selection!r}"
            )


class SACGA(BaseOptimizer):
    """Partition-based GA with SA-controlled local/global competition.

    Parameters
    ----------
    problem:
        Problem to optimize.
    grid:
        Objective-space partitioning (axis + range + partition count).
        For the integrator problem this is the load-capacitance axis.
    population_size, crossover, mutation, seed:
        As in :class:`BaseOptimizer`.
    config:
        SACGA-specific knobs; see :class:`SACGAConfig`.

    The total generation budget passed to :meth:`run` covers Phase I +
    Phase II; Phase II's ``span`` is whatever remains after Phase I
    terminates.
    """

    algorithm_name = "SACGA"

    def __init__(
        self,
        problem: Problem,
        grid: PartitionGrid,
        population_size: int = 100,
        crossover=None,
        mutation=None,
        seed: RngLike = None,
        config: Optional[SACGAConfig] = None,
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
        self.grid = grid
        self.config = config or SACGAConfig()
        if self.config.n_per_partition < 2:
            raise ValueError("n_per_partition must be >= 2")
        # Cumulative SA-gate outcomes (plain ints, read by the telemetry
        # layer; never serialized, never fed back into the algorithm).
        self._gate_considered = 0
        self._gate_exposed = 0

    # ----------------------------------------------------------- mechanics

    def _capacity(self, n_live: int) -> int:
        """Per-partition member budget given *n_live* live partitions."""
        return max(2, int(np.ceil(self.population_size / max(n_live, 1))))

    def _phase1_step(
        self, parted: PartitionedPopulation, live: List[int]
    ) -> PartitionedPopulation:
        """One pure-local-competition generation (also used before gating)."""
        return self._generation(parted, live, gate=None, gen_offset=0)

    def _generation(
        self,
        parted: PartitionedPopulation,
        live: List[int],
        gate: Optional[CompetitionGate],
        gen_offset: int,
    ) -> PartitionedPopulation:
        """One SACGA generation; *gate* None means pure local competition."""
        pop = parted.population
        mating_rank = pop.rank.astype(float).copy()

        demotion = np.zeros(pop.size)
        if gate is not None:
            with self.tracer.span("gate"):
                mating_rank, _ = self._revise_ranks(
                    parted, live, gate, gen_offset
                )
            demotion = np.maximum(mating_rank - pop.rank, 0.0)

        # Global Mating Pool: rank-based selection over the whole population
        # (or crowded tournament when ablating the paper's choice).
        with self.tracer.span("select"):
            if self.config.mating_selection == "linear_rank":
                parents_idx = linear_rank_selection(
                    mating_rank,
                    self.population_size,
                    self.rng,
                    selection_pressure=self.config.selection_pressure,
                )
            else:
                parents_idx = binary_tournament(
                    mating_rank, pop.crowding, self.population_size, self.rng
                )
            parents_idx = shuffle_for_mating(parents_idx, self.rng)
        with self.tracer.span("mate"):
            offspring_x = variation(
                pop.x[parents_idx],
                self.problem.lower,
                self.problem.upper,
                self.rng,
                self.crossover,
                self.mutation,
            )
        offspring = self._evaluate_population(offspring_x)

        with self.tracer.span("rank"):
            merged = pop.concat(offspring)
            with self.tracer.span("kernel:local_rank_and_crowd"):
                merged_view = PartitionedPopulation(merged, self.grid)
            # Carry the global-competition demotions into survival: a
            # dominated participant keeps its elimination risk even after
            # local re-ranking of the merged pool (parent rows come first
            # in `merged`).
            if gate is not None and demotion.any():
                merged_view.population.rank[: pop.size] += demotion.astype(int)
            survivors = merged_view.local_truncate(
                self._capacity(len(live)), live
            )
            with self.tracer.span("kernel:local_rank_and_crowd"):
                return PartitionedPopulation(survivors, self.grid)

    def _revise_ranks(
        self,
        parted: PartitionedPopulation,
        live: List[int],
        gate: CompetitionGate,
        gen_offset: int,
    ) -> Tuple[np.ndarray, int]:
        """Gate locally superior solutions into global competition (eqns 2-4).

        Returns the revised rank vector (float; lower = fitter) and the
        number of participants this iteration.
        """
        pop = parted.population
        revised = pop.rank.astype(float).copy()

        participants: List[np.ndarray] = []
        for p in live:
            superior = parted.locally_superior(p)
            if superior.size == 0:
                continue
            order = self.rng.permutation(superior.size)
            mask = gate.sample_mask(superior.size, gen_offset, self.rng)
            self._gate_considered += int(superior.size)
            participants.append(superior[order][mask])
        if not participants:
            return revised, 0
        pool = np.concatenate(participants)
        self._gate_exposed += int(pool.size)
        if pool.size == 0:
            return revised, 0

        global_rank = assign_ranks(pop.objectives[pool], pop.violation[pool])
        if self.config.demote_dominated:
            # Globally superior keep rank 0; dominated participants are
            # demoted below every locally-superior non-participant.
            revised[pool] = global_rank.astype(float)
        else:
            revised[pool] = np.minimum(revised[pool], global_rank)
        return revised, int(pool.size)

    def _make_gate(self, span: int) -> CompetitionGate:
        """Annealing gate shaped for a Phase II of *span* iterations."""
        return shape_parameters(
            n=self.config.n_per_partition,
            span=span,
            p_mid_first=self.config.p_mid_first,
            p_mid_last=self.config.p_mid_last,
            p_end=self.config.p_end,
        )

    def _live_after_phase1(
        self, parted: PartitionedPopulation
    ) -> List[int]:
        """Partitions that survive into Phase II."""
        covered = parted.partitions_with_feasible()
        if covered.size:
            return [int(p) for p in covered]
        # Nothing feasible anywhere yet: keep every partition alive and
        # let Phase II's constrained dominance pull toward feasibility.
        return list(range(self.grid.n_partitions))

    # ------------------------------------------------------ loop state hooks

    def _loop_init(
        self, n_generations: int, initial_x: Optional[np.ndarray]
    ) -> Dict[str, Any]:
        self._gate_considered = 0
        self._gate_exposed = 0
        population = self._initial_population(initial_x)
        parted = PartitionedPopulation(population, self.grid)
        self.history.record(0, parted.population, self._n_evaluations, force=True)
        self.callbacks(0, parted.population)
        return {
            "generation": 0,
            "parted": parted,
            "grid": self.grid,
            "phase": 1,
            "gen_t": None,
            "span": None,
            "live": None,
            "gate": None,
        }

    def _phase1_active(self, state: Dict[str, Any], n_generations: int) -> bool:
        """Phase I continues until feasible coverage or the iteration cap."""
        limit = min(self.config.phase1_max_iterations, n_generations)
        if state["generation"] >= limit:
            return False
        covered = state["parted"].partitions_with_feasible()
        return covered.size < self.grid.n_partitions

    def _phase1_generation(self, state: Dict[str, Any]) -> None:
        """One pure-local-competition generation (every partition live)."""
        all_parts = list(range(self.grid.n_partitions))
        parted = self._phase1_step(state["parted"], all_parts)
        gen = state["generation"] + 1
        state["parted"] = parted
        state["generation"] = gen
        self._sync_loop_state(state)
        self.history.record(
            gen,
            parted.population,
            self._n_evaluations,
            extras={"phase": 1.0, "live_partitions": float(len(all_parts))},
        )
        self.callbacks(gen, parted.population)

    def _finish_phase1(self, state: Dict[str, Any], n_generations: int) -> None:
        """Transition to Phase II: fix ``gen_t``, live partitions and gate.

        When Phase I consumed the whole budget the Phase II that never
        ran is recorded honestly: ``span`` is 0 and no annealing gate is
        constructed (metadata reports ``gate: None``).
        """
        gen_t = state["generation"]
        span = n_generations - gen_t
        state["phase"] = 2
        state["gen_t"] = gen_t
        state["span"] = span
        state["live"] = self._live_after_phase1(state["parted"])
        state["gate"] = self._make_gate(span) if span > 0 else None

    def _phase2_generation(self, state: Dict[str, Any], n_generations: int) -> None:
        """One SA-mixed-competition generation."""
        gen = state["generation"] + 1
        step = gen - state["gen_t"]
        gate = state["gate"]
        live = state["live"]
        parted = self._generation(state["parted"], live, gate, gen_offset=step)
        state["parted"] = parted
        state["generation"] = gen
        self._sync_loop_state(state)
        self.history.record(
            gen,
            parted.population,
            self._n_evaluations,
            extras={
                "phase": 2.0,
                "temperature": float(gate.schedule.temperature(step)),
                "live_partitions": float(len(live)),
            },
            force=(gen == n_generations),
        )
        self.callbacks(gen, parted.population)

    def _sync_loop_state(self, state: Dict[str, Any]) -> None:
        """Mirror optimizer-held mutable attributes into the loop state so
        checkpoints capture them (subclasses re-fit/expand ``self.grid``)."""
        state["grid"] = self.grid

    def _restore_loop_state(self, state: Dict[str, Any]) -> None:
        self.grid = state["grid"]
        super()._restore_loop_state(state)

    def _loop_step(self, state: Dict[str, Any], n_generations: int) -> None:
        if state["phase"] == 1:
            if self._phase1_active(state, n_generations):
                self._phase1_generation(state)
                return
            # Phase transitions happen lazily at the *start* of the next
            # step, so the state seen by end-of-generation callbacks (and
            # therefore by checkpoints) is always self-consistent.
            self._finish_phase1(state, n_generations)
        self._phase2_generation(state, n_generations)

    def _loop_finish(
        self, state: Dict[str, Any], n_generations: int
    ) -> Tuple[Population, Dict]:
        if state["phase"] == 1:
            # The run ended inside Phase I (budget exhausted or stop
            # requested); settle the Phase II bookkeeping for metadata.
            self._finish_phase1(state, n_generations)
        gate = state["gate"]
        meta = {
            "n_partitions": self.grid.n_partitions,
            "partition_axis": self.grid.axis,
            "gen_t": state["gen_t"],
            "span": state["span"],
            "live_partitions": state["live"],
            "gate": None
            if gate is None
            else {
                "k1": gate.k1,
                "k2": gate.k2,
                "alpha": gate.alpha,
                "t_init": gate.schedule.t_init,
                "n": gate.n,
            },
        }
        return state["parted"].population, meta
