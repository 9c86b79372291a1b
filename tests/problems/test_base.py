"""Tests for the Problem / Evaluation abstraction."""

import numpy as np
import pytest

from repro.problems.base import Evaluation, Problem, aggregate_violation
from repro.utils.rng import as_rng


class Toy(Problem):
    """f1 = sum(x), f2 = sum((x-1)^2), g = x0 - 0.5 <= 0."""

    def __init__(self):
        super().__init__(n_var=3, n_obj=2, n_con=1, lower=np.zeros(3), upper=np.ones(3))

    def _evaluate(self, x):
        f1 = x.sum(axis=1)
        f2 = ((x - 1.0) ** 2).sum(axis=1)
        g = (x[:, 0] - 0.5).reshape(-1, 1)
        return np.column_stack([f1, f2]), g


class BadShape(Problem):
    def __init__(self):
        super().__init__(n_var=2, n_obj=2, n_con=0, lower=[0, 0], upper=[1, 1])

    def _evaluate(self, x):
        return np.zeros((x.shape[0], 3)), np.zeros((x.shape[0], 0))


class TestEvaluation:
    def test_violation_computed_from_constraints(self):
        ev = Evaluation(
            objectives=np.zeros((3, 2)),
            constraints=np.array([[-1.0, -2.0], [0.5, -1.0], [1.0, 2.0]]),
        )
        np.testing.assert_allclose(ev.violation, [0.0, 0.5, 3.0])

    def test_feasible_mask(self):
        ev = Evaluation(
            objectives=np.zeros((2, 1)), constraints=np.array([[0.0], [0.1]])
        )
        np.testing.assert_array_equal(ev.feasible, [True, False])

    def test_unconstrained(self):
        ev = Evaluation(objectives=np.ones((4, 2)), constraints=np.zeros((4, 0)))
        assert ev.feasible.all()

    def test_subset(self):
        ev = Evaluation(
            objectives=np.arange(6.0).reshape(3, 2),
            constraints=np.array([[0.0], [1.0], [2.0]]),
        )
        sub = ev.subset([2, 0])
        np.testing.assert_allclose(sub.objectives[:, 0], [4.0, 0.0])
        np.testing.assert_allclose(sub.violation, [2.0, 0.0])

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Evaluation(objectives=np.zeros((2, 2)), constraints=np.zeros((3, 1)))

    def test_aggregate_violation_empty_constraints(self):
        np.testing.assert_array_equal(aggregate_violation(np.zeros((4, 0))), np.zeros(4))


class TestProblem:
    def test_evaluate_single_vector(self):
        ev = Toy().evaluate([0.1, 0.2, 0.3])
        assert ev.objectives.shape == (1, 2)
        assert ev.feasible[0]

    def test_evaluate_batch(self):
        problem = Toy()
        x = problem.sample(10, as_rng(0))
        ev = problem.evaluate(x)
        assert ev.objectives.shape == (10, 2)
        assert ev.constraints.shape == (10, 1)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="expected 3 variables"):
            Toy().evaluate(np.zeros((2, 4)))

    def test_bad_subclass_shape_caught(self):
        with pytest.raises(ValueError, match="objectives of shape"):
            BadShape().evaluate(np.zeros((2, 2)))

    def test_sample_within_bounds(self):
        problem = Toy()
        x = problem.sample(100, as_rng(1))
        assert np.all(x >= problem.lower) and np.all(x <= problem.upper)

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            Toy().sample(-1, as_rng(0))

    def test_clip(self):
        problem = Toy()
        x = np.array([[-1.0, 0.5, 2.0]])
        np.testing.assert_allclose(problem.clip(x), [[0.0, 0.5, 1.0]])

    def test_bounds_property_returns_copies(self):
        problem = Toy()
        lo, _ = problem.bounds
        lo[0] = 99.0
        assert problem.lower[0] == 0.0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="invalid dimensions"):
            Problem(n_var=0, n_obj=1, n_con=0, lower=[0], upper=[1])

    def test_bounds_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            Problem(n_var=3, n_obj=1, n_con=0, lower=[0, 1], upper=[1, 2])

    def test_default_pareto_front_is_none(self):
        assert Toy().pareto_front() is None
