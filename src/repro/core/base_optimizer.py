"""Shared scaffolding for the three optimizers (NSGA-II, SACGA, MESACGA).

The base class owns everything that is identical across algorithms —
operator configuration, RNG plumbing, history recording, timing, result
packaging — so that the algorithm subclasses contain only the logic the
paper actually differentiates.

The generational loop is structured as an explicit, picklable **state
machine** rather than a monolithic ``for`` loop: subclasses implement
``_loop_init`` (build the initial loop state), ``_loop_step`` (advance
exactly one generation, recording history and firing callbacks), and
``_loop_finish`` (package the final population + metadata).  Everything
the loop needs between generations lives in the state dict, which is
what makes crash-safe checkpointing possible: ``capture_checkpoint``
snapshots the state (plus RNG, history, evaluation stats) at any generation
boundary, and ``run(..., resume_from=ckpt)`` restores it so a resumed
run is byte-identical to an uninterrupted one (see
:mod:`repro.core.checkpoint`).
"""

from __future__ import annotations

import copy
import time
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.callbacks import CallbackList, HistoryRecorder, ProgressCallback
from repro.core.checkpoint import CHECKPOINT_VERSION, load_checkpoint
from repro.core.evaluation import BackendStats, EvaluationBackend
from repro.core.individual import Population
from repro.core.operators import PolynomialMutation, SBXCrossover
from repro.core.results import OptimizationResult, extract_feasible_front
from repro.obs.registry import NULL_METRICS
from repro.obs.tracing import NULL_TRACE_RECORDER
from repro.problems.base import Problem
from repro.utils.rng import RngLike, as_rng


class BaseOptimizer:
    """Common machinery for generational multi-objective GAs.

    Parameters
    ----------
    problem:
        The (vectorized) problem to optimize.
    population_size:
        Number of individuals maintained per generation.
    crossover, mutation:
        Variation operators; defaults are SBX(eta=15, p=0.9) and
        polynomial mutation(eta=20, p=1/n_var) as in NSGA-II practice.
    seed:
        Anything :func:`repro.utils.rng.as_rng` accepts.
    metrics:
        A :class:`repro.obs.registry.MetricsRegistry` receiving
        evaluation counters and latency histograms; ``None`` (the
        default) installs the true no-op
        :data:`~repro.obs.registry.NULL_METRICS`.  Instrument handles
        are resolved here, once — the hot loop never calls the registry.
    tracer:
        A :class:`repro.obs.tracing.TraceRecorder` recording the
        hierarchical wall-clock profile (run → generation → evaluate);
        ``None`` installs the no-op
        :data:`~repro.obs.tracing.NULL_TRACE_RECORDER`.  Instrumentation
        is read-only: instrumented runs are byte-identical to
        uninstrumented ones.
    """

    algorithm_name = "BaseOptimizer"

    def __init__(
        self,
        problem: Problem,
        population_size: int = 100,
        crossover: Optional[SBXCrossover] = None,
        mutation: Optional[PolynomialMutation] = None,
        seed: RngLike = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if population_size < 4:
            raise ValueError(
                f"population_size must be >= 4, got {population_size}"
            )
        self.problem = problem
        self.population_size = int(population_size)
        self.crossover = crossover or SBXCrossover()
        self.mutation = mutation or PolynomialMutation()
        self.rng = as_rng(seed)
        self.backend = EvaluationBackend()
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.tracer = NULL_TRACE_RECORDER if tracer is None else tracer
        # Instrument handles are fixed at construction so the generational
        # loop touches no registry state — with NULL_METRICS every update
        # is a shared no-op.  They count the batches this process ran; the
        # result and the ledger count the whole run from backend.stats.
        self._m_eval_batches = self.metrics.counter(
            "repro_backend_batches_total", "Evaluation batches served"
        )
        self._m_eval_rows = self.metrics.counter(
            "repro_backend_rows_total", "Design rows submitted for evaluation"
        )
        self._m_batch_seconds = self.metrics.histogram(
            "repro_backend_batch_seconds",
            "Wall-clock seconds per evaluation batch",
        )
        self.history = HistoryRecorder()
        self.callbacks = CallbackList()
        # stats.eval_time when the last history record was written.
        self._recorded_eval_time = 0.0
        self._stop_requested = False
        self._loop_state: Optional[Dict[str, Any]] = None
        self._target_generations: Optional[int] = None
        self._run_started: Optional[float] = None
        self._prior_wall_time = 0.0

    # ------------------------------------------------------------- plumbing

    def add_callback(self, callback: ProgressCallback) -> None:
        self.callbacks.append(callback)

    def request_stop(self) -> None:
        """Ask the optimizer to stop after the current generation.

        Intended for termination-criterion callbacks (see
        :class:`repro.core.callbacks.StagnationStop`); the run returns
        normally with everything produced so far.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def _evaluate_population(self, x: np.ndarray) -> Population:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with self.tracer.span("evaluate"):
            evaluation = self.backend.evaluate(self.problem, x)
        pop = Population(x, evaluation)
        self._m_eval_batches.inc()
        self._m_eval_rows.inc(pop.size)
        self._m_batch_seconds.observe(self.backend.stats.last_batch_time)
        return pop

    def _record(
        self,
        generation: int,
        population: Population,
        extras: Optional[Dict[str, float]] = None,
    ) -> None:
        """Append *generation*'s history record.

        Its ``eval_time_s`` is the evaluation seconds of this generation
        alone; the backend's ``eval_time`` is the run's total so far.
        """
        stats = self.backend.stats
        eval_time_s = stats.eval_time - self._recorded_eval_time
        self._recorded_eval_time = stats.eval_time
        self.history.record(
            generation,
            population,
            stats.n_evaluations,
            {"eval_time_s": eval_time_s, **(extras or {})},
        )

    def _initial_population(
        self, initial_x: Optional[np.ndarray] = None
    ) -> Population:
        if initial_x is not None:
            x = np.atleast_2d(np.asarray(initial_x, dtype=float))
            if x.shape[0] != self.population_size:
                raise ValueError(
                    f"initial population has {x.shape[0]} rows, expected "
                    f"{self.population_size}"
                )
            return self._evaluate_population(self.problem.clip(x))
        x = self.problem.sample(self.population_size, self.rng)
        return self._evaluate_population(x)

    def _package_result(
        self,
        population: Population,
        n_generations: int,
        wall_time: float,
        metadata: Optional[Dict] = None,
    ) -> OptimizationResult:
        front_x, front_f = extract_feasible_front(population)
        meta = {
            "population_size": self.population_size,
            "crossover": repr(self.crossover),
            "mutation": repr(self.mutation),
            "backend_stats": self.backend.stats.as_dict(),
        }
        meta.update(metadata or {})
        return OptimizationResult(
            algorithm=self.algorithm_name,
            problem_name=self.problem.name,
            population=population,
            front_x=front_x,
            front_objectives=front_f,
            n_generations=n_generations,
            n_evaluations=self.backend.stats.n_evaluations,
            wall_time=wall_time,
            history=list(self.history.records),
            metadata=meta,
        )

    # ---------------------------------------------------------------- run

    def run(
        self,
        n_generations: int,
        initial_x: Optional[np.ndarray] = None,
        resume_from: Union[None, str, Dict[str, Any]] = None,
    ) -> OptimizationResult:
        """Execute the optimizer for *n_generations* and package the result.

        Parameters
        ----------
        n_generations:
            Total generation budget of the run (when resuming: of the
            *whole* run, not of the remainder).
        initial_x:
            Optional explicit initial population (fresh runs only).
        resume_from:
            A checkpoint path or already-loaded payload produced by
            :class:`repro.core.checkpoint.CheckpointCallback` /
            :meth:`capture_checkpoint`.  The optimizer must be configured
            identically to the one that wrote the checkpoint (same
            algorithm, problem, population size, operators); the stored
            RNG state makes the original seed irrelevant.  The resumed
            run continues at the checkpointed generation and produces a
            result byte-identical (modulo wall-clock fields) to an
            uninterrupted run.
        """
        if n_generations < 0:
            raise ValueError(f"n_generations must be >= 0, got {n_generations}")
        if resume_from is not None and initial_x is not None:
            raise ValueError("initial_x cannot be combined with resume_from")
        self._run_started = time.perf_counter()
        self._target_generations = int(n_generations)
        with self.tracer.span("run"):
            if resume_from is not None:
                self._prior_wall_time = self._restore_checkpoint(
                    resume_from, n_generations
                )
            else:
                self.history.clear()
                self.backend.stats = BackendStats()
                self._recorded_eval_time = 0.0
                self._stop_requested = False
                self._prior_wall_time = 0.0
                self._loop_state = self._loop_init(n_generations, initial_x)
            state = self._loop_state
            while not self._loop_done(state, n_generations):
                if self._stop_requested:
                    break
                with self.tracer.span("generation"):
                    self._loop_step(state, n_generations)
            elapsed = self._prior_wall_time + (
                time.perf_counter() - self._run_started
            )
            population, meta = self._loop_finish(state, n_generations)
        return self._package_result(population, n_generations, elapsed, meta)

    # ----------------------------------------------------- loop state hooks

    def _loop_init(
        self, n_generations: int, initial_x: Optional[np.ndarray]
    ) -> Dict[str, Any]:
        """Evaluate generation 0 and return the initial loop state.

        The returned dict must contain at least ``"generation"`` and be
        picklable — it *is* the checkpointable core of the run.
        """
        raise NotImplementedError

    def _loop_done(self, state: Dict[str, Any], n_generations: int) -> bool:
        return state["generation"] >= n_generations

    def _loop_step(self, state: Dict[str, Any], n_generations: int) -> None:
        """Advance exactly one generation (record history, fire callbacks)."""
        raise NotImplementedError

    def _loop_finish(
        self, state: Dict[str, Any], n_generations: int
    ) -> "tuple[Population, Dict]":
        """Final (population, metadata) once the loop has ended."""
        raise NotImplementedError

    # --------------------------------------------------------- checkpointing

    def capture_checkpoint(
        self, extra: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Snapshot the in-flight run as a picklable checkpoint payload.

        Only meaningful between generations of an active :meth:`run`
        (progress callbacks fire at exactly those boundaries).  The loop
        state is deep-copied, so the payload stays frozen even if it is
        held in memory while the run continues.
        """
        if self._loop_state is None or self._target_generations is None:
            raise RuntimeError(
                "capture_checkpoint() is only valid during run() — attach a "
                "CheckpointCallback instead of calling it directly"
            )
        elapsed = self._prior_wall_time
        if self._run_started is not None:
            elapsed += time.perf_counter() - self._run_started
        return {
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm_name,
            "problem": self.problem.name,
            "n_generations": int(self._target_generations),
            "generation": int(self._loop_state["generation"]),
            "rng_state": self.rng.bit_generator.state,
            "loop_state": copy.deepcopy(self._loop_state),
            "history": list(self.history.records),
            "n_evaluations": int(self.backend.stats.n_evaluations),
            "backend_stats": self.backend.stats.as_dict(),
            "wall_time": float(elapsed),
            "extra": dict(extra or {}),
        }

    def _restore_checkpoint(
        self,
        source: Union[str, Dict[str, Any]],
        n_generations: int,
    ) -> float:
        """Rehydrate evaluation stats, RNG, history and loop state from a
        checkpoint.  Any other keys, such as the counters that older
        checkpoints also carry, are ignored.

        Returns the wall-clock seconds already spent before the crash
        (folded into the resumed result's ``wall_time``).
        """
        payload = load_checkpoint(source)
        if payload["algorithm"] != self.algorithm_name:
            raise ValueError(
                f"checkpoint was written by {payload['algorithm']!r}, "
                f"cannot resume with {self.algorithm_name!r}"
            )
        if payload["problem"] != self.problem.name:
            raise ValueError(
                f"checkpoint was written for problem {payload['problem']!r}, "
                f"cannot resume on {self.problem.name!r}"
            )
        if int(payload["n_generations"]) != int(n_generations):
            raise ValueError(
                f"checkpoint targets {payload['n_generations']} generations; "
                f"resume with the same budget (got {n_generations}) so the "
                "annealing schedules stay consistent"
            )
        self.rng.bit_generator.state = payload["rng_state"]
        self.history.records = list(payload["history"])
        saved = payload["backend_stats"]
        self.backend.stats = BackendStats(
            n_evaluations=int(payload["n_evaluations"]),
            n_batches=int(saved["n_batches"]),
            eval_time=float(saved["eval_time"]),
        )
        # Checkpoints are taken right after a generation is recorded.
        self._recorded_eval_time = self.backend.stats.eval_time
        self._stop_requested = False
        self._restore_loop_state(copy.deepcopy(payload["loop_state"]))
        return float(payload["wall_time"])

    def _restore_loop_state(self, state: Dict[str, Any]) -> None:
        """Install a checkpointed loop state (subclasses may sync derived
        attributes, e.g. MESACGA's phase-expanded partition grid)."""
        self._loop_state = state
