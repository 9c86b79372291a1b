"""The evaluation backend: one call site for all fitness work.

Every optimizer funnels fitness work through
:meth:`BaseOptimizer._evaluate_population`, and campaign shards through
:func:`repro.campaign.shards.evaluate_shard`; both hand the whole
``(n, n_var)`` decision batch to :meth:`Problem.evaluate_batch` in one
vectorized call via :class:`EvaluationBackend`.  The backend's
:class:`BackendStats` is the one count and clock of a run's evaluation
work: the optimizer resets it when a fresh run starts, restores it on
resume, and every report of evaluations, batches or evaluation seconds
reads it.

Evaluation is serial and in-process.  At this library's scale (one
population of tens to hundreds of designs per generation on analytic
circuit models) worker pools, shared-memory transports and memoization
were measured no faster than this one call (``docs/architecture.md``,
"Evaluation backend"); campaigns that need several cores run as
durable shard jobs spread over ``repro workers`` processes instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.problems.base import Evaluation, Problem

__all__ = ["BackendStats", "EvaluationBackend"]


@dataclass
class BackendStats:
    """Counters accumulated by a backend across a run.

    Attributes
    ----------
    n_evaluations:
        Design rows evaluated.
    n_batches:
        ``evaluate`` calls served.
    eval_time:
        Cumulative wall-clock seconds spent inside ``evaluate``.
    last_batch_time:
        Wall-clock of the most recent batch only.  Deliberately not part
        of :meth:`as_dict`: it feeds the observability latency
        histograms, and serializing it would break the byte-identical
        ``result_to_dict(include_timing=False)`` contract.
    """

    n_evaluations: int = 0
    n_batches: int = 0
    eval_time: float = 0.0
    last_batch_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Batches and seconds, for result metadata and ``run_finished``.

        The row count is not repeated here: the result and the ledger
        event each carry it as their own ``n_evaluations``.
        """
        return {"n_batches": int(self.n_batches), "eval_time": float(self.eval_time)}


class EvaluationBackend:
    """Turn a decision batch into an :class:`Evaluation`, with stats."""

    def __init__(self) -> None:
        self.stats = BackendStats()

    def evaluate(self, problem: Problem, x: np.ndarray) -> Evaluation:
        """Evaluate ``(n, n_var)`` decision vectors under *problem*."""
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        start = time.perf_counter()
        evaluation = problem.evaluate_batch(arr)
        self.stats.last_batch_time = time.perf_counter() - start
        self.stats.eval_time += self.stats.last_batch_time
        self.stats.n_batches += 1
        self.stats.n_evaluations += arr.shape[0]
        return evaluation
