"""MESACGA — Multi-phase Expanding-partitions SACGA (Section 4.5, Fig. 7).

SACGA needs the "right" number of partitions (Fig. 6 shows a clear
optimum at m = 16 for the paper's circuit), but no method short of full
experimentation finds that number.  MESACGA sidesteps the choice: it
starts with many small partitions and, at the end of each phase,
*expands* the partitions (reduces their count, increases their capacity),
ending with a single partition covering the whole objective space — at
which point local competition has smoothly become global competition.

Each phase runs the SACGA Phase-II machinery (annealing gate reset per
phase) for ``span`` iterations.  The paper's example schedule is 7 phases
of 20, 13, 8, 5, 3, 2, 1 partitions preceded by a pure-local phase.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.individual import Population
from repro.core.partitions import PartitionGrid, PartitionedPopulation, expanding_schedule
from repro.core.sacga import SACGA, SACGAConfig
from repro.problems.base import Problem
from repro.utils.rng import RngLike

PAPER_SCHEDULE = (20, 13, 8, 5, 3, 2, 1)


class MESACGA(SACGA):
    """Multi-phase expanding-partitions SACGA.

    Parameters
    ----------
    problem, population_size, crossover, mutation, seed, config:
        As in :class:`SACGA` (``config.phase1_max_iterations`` caps the
        initial pure-local phase).
    axis, low, high:
        The partitioning objective and its range (shared by all phases).
    partition_schedule:
        Strictly decreasing partition counts, ending in 1.  Defaults to
        the paper's ``(20, 13, 8, 5, 3, 2, 1)``.
    span_per_phase:
        Iterations per phase.  ``None`` (default) splits whatever remains
        of :meth:`run`'s generation budget equally across phases (the
        remainder goes to the last phase).  When set, each phase runs
        exactly this long and :meth:`run` should be given
        ``total_generations(span_per_phase)`` generations — extra budget
        is appended to the final (single-partition) phase, and a smaller
        budget truncates the tail phases.
    """

    algorithm_name = "MESACGA"

    def __init__(
        self,
        problem: Problem,
        axis: int,
        low: float,
        high: float,
        partition_schedule: Optional[Sequence[int]] = None,
        span_per_phase: Optional[int] = None,
        population_size: int = 100,
        crossover=None,
        mutation=None,
        seed: RngLike = None,
        config: Optional[SACGAConfig] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        schedule = list(partition_schedule or PAPER_SCHEDULE)
        _validate_schedule(schedule)
        first_grid = PartitionGrid(
            axis=axis, low=low, high=high, n_partitions=schedule[0]
        )
        super().__init__(
            problem,
            grid=first_grid,
            population_size=population_size,
            crossover=crossover,
            mutation=mutation,
            seed=seed,
            config=config,
            metrics=metrics,
            tracer=tracer,
        )
        self.partition_schedule = schedule
        self.span_per_phase = None if span_per_phase is None else int(span_per_phase)
        if self.span_per_phase is not None and self.span_per_phase < 1:
            raise ValueError(
                f"span_per_phase must be >= 1, got {self.span_per_phase}"
            )

    # ------------------------------------------------------------- helpers

    def total_generations(self, span_per_phase: Optional[int] = None) -> int:
        """Natural budget: Phase-I cap plus span x number of phases."""
        span = span_per_phase or self.span_per_phase
        if span is None:
            raise ValueError("no span_per_phase configured")
        return self.config.phase1_max_iterations + span * len(self.partition_schedule)

    def run_full(self):
        """Run with the natural budget implied by ``span_per_phase``."""
        return self.run(self.total_generations())

    def _phase_spans(self, remaining: int) -> List[int]:
        n_phases = len(self.partition_schedule)
        if self.span_per_phase is not None:
            spans: List[int] = []
            left = remaining
            for k in range(n_phases):
                take = min(self.span_per_phase, left)
                spans.append(take)
                left -= take
            if left > 0:
                spans[-1] += left
            return spans
        base = remaining // n_phases
        spans = [base] * n_phases
        spans[-1] += remaining - base * n_phases
        return spans

    def _live_partitions(self, parted: PartitionedPopulation) -> List[int]:
        covered = parted.partitions_with_feasible()
        if covered.size:
            return [int(p) for p in covered]
        return list(range(parted.grid.n_partitions))

    # ------------------------------------------------------ loop state hooks

    def _loop_init(
        self, n_generations: int, initial_x: Optional[np.ndarray]
    ) -> Dict[str, Any]:
        state = super()._loop_init(n_generations, initial_x)
        state.update(
            spans=None,
            phase_idx=-1,
            step_in_phase=0,
            phase_log=[],
        )
        return state

    def _finish_phase1(self, state: Dict[str, Any], n_generations: int) -> None:
        """Transition out of the pure-local phase: fix the per-phase spans
        and enter the first phase of the expanding schedule."""
        gen_t = state["generation"]
        state["phase"] = 2
        state["gen_t"] = gen_t
        state["spans"] = self._phase_spans(max(n_generations - gen_t, 0))
        self._advance_phase(state)

    def _advance_phase(self, state: Dict[str, Any]) -> None:
        """Enter the next schedule phase with a positive span (if any)."""
        spans: List[int] = state["spans"]
        idx = state["phase_idx"] + 1
        while idx < len(self.partition_schedule) and spans[idx] <= 0:
            idx += 1
        if self._stop_requested or idx >= len(self.partition_schedule):
            state["phase_idx"] = len(self.partition_schedule)
            state["step_in_phase"] = 0
            state["gate"] = None
            self._sync_loop_state(state)
            return
        # Expand partitions: same range, fewer slices, larger capacity.
        self.grid = self.grid.with_partitions(self.partition_schedule[idx])
        with self.tracer.span("expand_partitions"):
            parted = PartitionedPopulation(state["parted"].population, self.grid)
        state["parted"] = parted
        state["phase_idx"] = idx
        state["step_in_phase"] = 0
        state["live"] = self._live_partitions(parted)
        state["gate"] = self._make_gate(spans[idx])
        self._sync_loop_state(state)

    def _close_phase(self, state: Dict[str, Any]) -> None:
        idx = state["phase_idx"]
        state["phase_log"].append(
            {
                "phase": idx + 1,
                "n_partitions": self.partition_schedule[idx],
                "span": state["spans"][idx],
                "end_generation": state["generation"],
            }
        )

    def _phase2_generation(self, state: Dict[str, Any], n_generations: int) -> None:
        """One SA-mixed generation inside the current schedule phase."""
        gen = state["generation"] + 1
        idx = state["phase_idx"]
        step = state["step_in_phase"] + 1
        gate = state["gate"]
        live = state["live"]
        parted = self._generation(state["parted"], live, gate, gen_offset=step)
        state["parted"] = parted
        state["generation"] = gen
        state["step_in_phase"] = step
        self._sync_loop_state(state)
        self.history.record(
            gen,
            parted.population,
            self._n_evaluations,
            extras={
                "phase": float(idx + 1),
                "n_partitions": float(self.partition_schedule[idx]),
                "temperature": float(gate.schedule.temperature(step)),
                "live_partitions": float(len(live)),
            },
            force=(gen == n_generations),
        )
        self.callbacks(gen, parted.population)

    def _loop_step(self, state: Dict[str, Any], n_generations: int) -> None:
        if state["phase"] == 1:
            if self._phase1_active(state, n_generations):
                self._phase1_generation(state)
                return
            self._finish_phase1(state, n_generations)
        elif state["step_in_phase"] >= state["spans"][state["phase_idx"]]:
            # Phase boundaries are crossed lazily at the start of the next
            # step, keeping checkpointed states self-consistent.
            self._close_phase(state)
            self._advance_phase(state)
        self._phase2_generation(state, n_generations)

    def _loop_finish(
        self, state: Dict[str, Any], n_generations: int
    ) -> Tuple[Population, Dict]:
        if state["phase"] == 1:
            self._finish_phase1(state, n_generations)
        elif (
            state["phase_idx"] < len(self.partition_schedule)
            and state["step_in_phase"] > 0
        ):
            # Stopped (or completed) mid-phase: log the in-flight phase.
            self._close_phase(state)
        meta = {
            "partition_schedule": list(self.partition_schedule),
            "partition_axis": self.grid.axis,
            "gen_t": state["gen_t"],
            "phase_log": state["phase_log"],
        }
        return state["parted"].population, meta


def _validate_schedule(schedule: Sequence[int]) -> None:
    if not schedule:
        raise ValueError("partition schedule must be non-empty")
    for a, b in zip(schedule, schedule[1:]):
        if b >= a:
            raise ValueError(
                f"partition schedule must be strictly decreasing, got {schedule}"
            )
    if schedule[-1] != 1:
        raise ValueError(
            f"partition schedule must end with a single partition, got {schedule}"
        )
    if any(m < 1 for m in schedule):
        raise ValueError(f"partition counts must be >= 1, got {schedule}")


def paper_schedule(start: int = 20) -> List[int]:
    """The paper's expanding schedule; ``start=20`` yields 20,13,8,5,3,2,1."""
    return expanding_schedule(start)
