"""History recording and progress callbacks for optimizer runs."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.core.individual import Population
from repro.core.results import GenerationRecord, extract_feasible_front


class HistoryRecorder:
    """Collects one :class:`GenerationRecord` per generation of a run."""

    def __init__(self) -> None:
        self.records: List[GenerationRecord] = []

    def record(
        self,
        generation: int,
        population: Population,
        n_evaluations: int,
        extras: Optional[Dict[str, float]] = None,
    ) -> None:
        """Snapshot *population*'s feasible front and counters."""
        _, front = extract_feasible_front(population)
        self.records.append(
            GenerationRecord(
                generation=generation,
                n_feasible=int(population.feasible.sum()),
                front_objectives=front,
                n_evaluations=n_evaluations,
                extras=dict(extras or {}),
            )
        )

    def clear(self) -> None:
        self.records = []


ProgressCallback = Callable[[int, Population], None]


class CallbackList:
    """Compose several per-generation callbacks into one callable."""

    def __init__(self, callbacks: Optional[List[ProgressCallback]] = None) -> None:
        self.callbacks: List[ProgressCallback] = list(callbacks or [])

    def append(self, callback: ProgressCallback) -> None:
        self.callbacks.append(callback)

    def __call__(self, generation: int, population: Population) -> None:
        for callback in self.callbacks:
            callback(generation, population)


class RunTimeoutError(RuntimeError):
    """Raised by :class:`WallClockTimeout` when a run exceeds its budget."""


class WallClockTimeout:
    """Cooperative per-run wall-clock limit, checked at generation ends.

    Attach with ``algorithm.add_callback(WallClockTimeout(timeout_s))``;
    once the elapsed time since construction exceeds *timeout_s*, the
    next generation boundary raises :class:`RunTimeoutError`.  Being
    cooperative, it cannot interrupt a single evaluation batch that
    hangs forever — but for the GA workloads here a generation is the
    natural preemption point, and raising (rather than requesting a
    graceful stop) lets the experiment runner treat a too-slow seed
    exactly like a crashed one: record it in the ledger, retry or move
    on (see :func:`repro.experiments.runner.run_many`).
    """

    def __init__(self, timeout_s: float) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.timeout_s = float(timeout_s)
        self.started = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started

    def __call__(self, generation: int, population: Population) -> None:
        elapsed = self.elapsed_s
        if elapsed > self.timeout_s:
            raise RunTimeoutError(
                f"run exceeded wall-clock budget at generation {generation} "
                f"({elapsed:.1f}s > {self.timeout_s:.1f}s)"
            )


class StagnationStop:
    """Termination callback: stop when a front metric stops improving.

    Attach with ``algorithm.add_callback(StagnationStop(algorithm, ...))``.
    Every *check_every* generations the metric of the current feasible
    front is compared against the best seen; after *patience* consecutive
    checks without at least *min_delta* improvement,
    ``algorithm.request_stop()`` is called.

    Parameters
    ----------
    optimizer:
        The optimizer to stop (anything with ``request_stop()``).
    metric_fn:
        ``front_objectives -> float``; larger is better (negate a
        lower-is-better metric).  Defaults to front size.
    patience:
        Consecutive stagnant checks tolerated before stopping.
    min_delta:
        Minimum improvement that resets the patience counter.
    check_every:
        Check cadence in generations.
    warmup:
        Generations before checks begin (feasibility may take a while).
    """

    def __init__(
        self,
        optimizer,
        metric_fn=None,
        patience: int = 5,
        min_delta: float = 0.0,
        check_every: int = 5,
        warmup: int = 10,
    ) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.optimizer = optimizer
        self.metric_fn = metric_fn or (lambda front: float(front.shape[0]))
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.check_every = int(check_every)
        self.warmup = int(warmup)
        self.best: Optional[float] = None
        self.stagnant_checks = 0
        self.stopped_at: Optional[int] = None

    def __call__(self, generation: int, population: Population) -> None:
        if self.stopped_at is not None:
            return
        if generation < self.warmup or generation % self.check_every:
            return
        from repro.core.results import extract_feasible_front

        _, front = extract_feasible_front(population)
        if front.shape[0] == 0:
            return
        value = float(self.metric_fn(front))
        if self.best is None or value > self.best + self.min_delta:
            self.best = value
            self.stagnant_checks = 0
            return
        self.stagnant_checks += 1
        if self.stagnant_checks >= self.patience:
            self.stopped_at = generation
            self.optimizer.request_stop()
