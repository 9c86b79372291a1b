"""Problem abstraction for constrained multi-objective optimization.

A :class:`Problem` is a vectorized black box: given a ``(n, n_var)`` batch
of decision vectors it returns an :class:`Evaluation` holding objectives
(minimization convention), raw constraint values (``g(x) <= 0`` feasible),
and the aggregate violation used by constrained dominance.

The GA layers never look inside a problem beyond this interface, so the
analog sizing engine and the synthetic test suite are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_bounds


@dataclass
class Evaluation:
    """Result of evaluating a batch of decision vectors.

    Attributes
    ----------
    objectives:
        ``(n, n_obj)`` array, minimization convention.
    constraints:
        ``(n, n_con)`` array of constraint values; ``g <= 0`` is feasible.
        Empty second axis for unconstrained problems.
    violation:
        ``(n,)`` aggregate violation: sum of positive parts of the
        (optionally normalized) constraint values.  Zero iff feasible.
    """

    objectives: np.ndarray
    constraints: np.ndarray
    violation: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.objectives = np.atleast_2d(np.asarray(self.objectives, dtype=float))
        n = self.objectives.shape[0]
        cons = np.asarray(self.constraints, dtype=float)
        # An explicit 2-D shape is kept as-is even when empty, so an N=0
        # batch still reports (0, n_con) and not (0, 0); only shapeless
        # empties (e.g. a bare []) fall back to zero constraint columns.
        if cons.size == 0 and cons.ndim != 2:
            cons = np.zeros((n, 0))
        self.constraints = np.atleast_2d(cons)
        if self.constraints.shape[0] != n:
            raise ValueError(
                f"constraints rows ({self.constraints.shape[0]}) do not match "
                f"objectives rows ({n})"
            )
        if self.violation is None:
            self.violation = aggregate_violation(self.constraints)
        else:
            self.violation = np.asarray(self.violation, dtype=float).reshape(n)

    @property
    def n_points(self) -> int:
        return self.objectives.shape[0]

    @property
    def feasible(self) -> np.ndarray:
        """Boolean feasibility mask, ``(n,)``."""
        return self.violation <= 0.0

    def subset(self, indices: np.ndarray) -> "Evaluation":
        """Row-select a sub-evaluation (used by archive maintenance)."""
        idx = np.asarray(indices)
        return Evaluation(
            objectives=self.objectives[idx],
            constraints=self.constraints[idx],
            violation=self.violation[idx],
        )


def aggregate_violation(constraints: np.ndarray) -> np.ndarray:
    """Sum of positive parts of each row of *constraints* (0 = feasible)."""
    cons = np.atleast_2d(np.asarray(constraints, dtype=float))
    if cons.shape[1] == 0:
        return np.zeros(cons.shape[0])
    return np.sum(np.maximum(cons, 0.0), axis=1)


class Problem:
    """Base class for vectorized constrained multi-objective problems.

    The canonical entry point is :meth:`evaluate_batch`, the batched
    contract every caller in the GA stack relies on::

        evaluate_batch((N, n_var)) -> Evaluation with (N, n_obj)
                                      objectives and (N, n_con)
                                      constraints

    The contract guarantees (and the batch/scalar test harness in
    ``tests/problems/test_batch_contract.py`` enforces):

    * **row decomposability** — the row *i* of a batched result is
      bit-identical to evaluating row *i* alone (:meth:`evaluate_one`);
      output must never depend on batch composition or size;
    * **no input mutation** — ``_evaluate`` receives a read-only view,
      so an implementation that writes into the decision matrix fails
      loudly instead of corrupting the caller's population;
    * **dtype stability** — objectives/constraints/violation are always
      float64, regardless of the input dtype;
    * **totality** — every objective/constraint value is finite for any
      input (in or out of the box); a non-finite row raises at the
      boundary instead of silently poisoning non-dominated sorting.

    Batch-native subclasses implement :meth:`_evaluate` taking an
    ``(n, n_var)`` array and returning ``(objectives, constraints)``
    matrices.  Scalar-only subclasses may instead implement
    :meth:`_evaluate_one` for a single design row; the base class then
    provides ``_evaluate`` as a row loop, so third-party problems get
    the batched API (and the evaluation backend) for free, just without the
    vectorization speedup.  Everything else (bounds bookkeeping,
    clipping, sampling) lives here.

    Parameters
    ----------
    n_var, n_obj, n_con:
        Dimensions of the decision, objective and constraint spaces.
    lower, upper:
        Box bounds on the decision variables.
    name:
        Human-readable identifier used in reports.
    """

    def __init__(
        self,
        n_var: int,
        n_obj: int,
        n_con: int,
        lower: Sequence[float],
        upper: Sequence[float],
        name: Optional[str] = None,
    ) -> None:
        if n_var <= 0 or n_obj <= 0 or n_con < 0:
            raise ValueError(
                f"invalid dimensions n_var={n_var}, n_obj={n_obj}, n_con={n_con}"
            )
        self.n_var = int(n_var)
        self.n_obj = int(n_obj)
        self.n_con = int(n_con)
        self.lower, self.upper = check_bounds(lower, upper)
        if self.lower.size != n_var:
            raise ValueError(
                f"bounds have {self.lower.size} entries but n_var={n_var}"
            )
        self.name = name or type(self).__name__
        self._n_evaluations = 0

    # ------------------------------------------------------------------ API

    def evaluate_batch(self, x: np.ndarray) -> Evaluation:
        """Evaluate a batch ``(n, n_var)`` of designs — the canonical entry.

        Accepts anything convertible to a float matrix (a single
        ``(n_var,)`` vector is promoted to one row); ``n = 0`` is valid
        and returns an empty :class:`Evaluation`.  The input array is
        never modified: the implementation hook sees a read-only view.
        """
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        if arr.shape[1] != self.n_var:
            raise ValueError(
                f"{self.name}: expected {self.n_var} variables, got {arr.shape[1]}"
            )
        # Enforce the no-mutation half of the batch contract structurally:
        # _evaluate gets a read-only view, so a buggy in-place write in a
        # subclass raises instead of corrupting the caller's population.
        view = arr[:]
        view.flags.writeable = False
        objectives, constraints = self._evaluate(view)
        objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
        if objectives.shape != (arr.shape[0], self.n_obj):
            raise ValueError(
                f"{self.name}: _evaluate returned objectives of shape "
                f"{objectives.shape}, expected {(arr.shape[0], self.n_obj)}"
            )
        cons = np.asarray(constraints, dtype=float)
        if self.n_con == 0:
            cons = np.zeros((arr.shape[0], 0))
        elif cons.shape != (arr.shape[0], self.n_con):
            raise ValueError(
                f"{self.name}: _evaluate returned constraints of shape "
                f"{cons.shape}, expected {(arr.shape[0], self.n_con)}"
            )
        # Totality guard: a single NaN/inf would silently poison
        # non-dominated sorting, so fail loudly at the boundary instead.
        if not np.all(np.isfinite(objectives)):
            bad = int(np.flatnonzero(~np.isfinite(objectives).all(axis=1))[0])
            raise ValueError(
                f"{self.name}: non-finite objective for design row {bad}: "
                f"{objectives[bad]!r}"
            )
        if cons.size and not np.all(np.isfinite(cons)):
            bad = int(np.flatnonzero(~np.isfinite(cons).all(axis=1))[0])
            raise ValueError(
                f"{self.name}: non-finite constraint for design row {bad}: "
                f"{cons[bad]!r}"
            )
        self._n_evaluations += arr.shape[0]
        return Evaluation(objectives=objectives, constraints=cons)

    def evaluate(self, x: np.ndarray) -> Evaluation:
        """Compatibility alias for :meth:`evaluate_batch`."""
        return self.evaluate_batch(x)

    def evaluate_one(self, x: np.ndarray) -> Evaluation:
        """Evaluate a single ``(n_var,)`` design as a one-row batch.

        This is the scalar reference path the bit-identity harness loops
        against :meth:`evaluate_batch`.
        """
        row = np.asarray(x, dtype=float)
        if row.ndim != 1 or row.size != self.n_var:
            raise ValueError(
                f"{self.name}: evaluate_one expects a ({self.n_var},) vector, "
                f"got shape {row.shape}"
            )
        return self.evaluate_batch(row.reshape(1, -1))

    def _evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched implementation hook.

        The default is the scalar fallback: loop :meth:`_evaluate_one`
        row by row and stack.  Batch-native problems override this with
        a broadcasting implementation (every shipped problem does).
        """
        n = x.shape[0]
        objectives = np.empty((n, self.n_obj), dtype=float)
        constraints = np.empty((n, self.n_con), dtype=float)
        for i in range(n):
            obj_row, con_row = self._evaluate_one(x[i])
            objectives[i] = np.asarray(obj_row, dtype=float).reshape(self.n_obj)
            constraints[i] = np.asarray(con_row, dtype=float).reshape(self.n_con)
        return objectives, constraints

    def _evaluate_one(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar implementation hook for problems without a batched form.

        Takes one ``(n_var,)`` design row, returns ``(objectives,
        constraints)`` of sizes ``n_obj`` / ``n_con``.  Only called by
        the default ``_evaluate`` fallback loop.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _evaluate (batched) "
            "nor _evaluate_one (scalar fallback)"
        )

    # -------------------------------------------------------------- helpers

    @property
    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lower.copy(), self.upper.copy()

    @property
    def n_evaluations(self) -> int:
        """Total number of design points evaluated so far."""
        return self._n_evaluations

    def reset_evaluation_counter(self, value: int = 0) -> None:
        """Reset (or, when resuming a checkpointed run, restore) the counter."""
        if value < 0:
            raise ValueError(f"evaluation counter must be >= 0, got {value}")
        self._n_evaluations = int(value)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip decision vectors into the box bounds."""
        return np.clip(x, self.lower, self.upper)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random sample of *n* decision vectors inside the box."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return rng.uniform(self.lower, self.upper, size=(n, self.n_var))

    def pareto_front(self, n_points: int = 200) -> Optional[np.ndarray]:
        """Analytic Pareto front, if known (synthetic problems override)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_var={self.n_var}, n_obj={self.n_obj}, "
            f"n_con={self.n_con})"
        )
