"""Tests for run records and history callbacks."""

import numpy as np

from repro.core.callbacks import CallbackList, HistoryRecorder
from repro.core.individual import Population
from repro.core.results import OptimizationResult, extract_feasible_front
from repro.problems.base import Evaluation
from repro.problems.synthetic import SCH
from repro.utils.rng import as_rng


def small_population(n=8, seed=0):
    return Population.random(SCH(), n, as_rng(seed))


class TestHistoryRecorder:
    def test_cadence(self):
        """Every generation is recorded: there is no cadence to set."""
        rec = HistoryRecorder()
        pop = small_population()
        for gen in range(4):
            rec.record(gen, pop, n_evaluations=gen * 10)
        assert [r.generation for r in rec.records] == [0, 1, 2, 3]
        assert [r.n_evaluations for r in rec.records] == [0, 10, 20, 30]

    def test_record_keeps_the_feasible_front(self):
        rec = HistoryRecorder()
        pop = small_population()
        rec.record(0, pop, 0)
        _, front = extract_feasible_front(pop)
        np.testing.assert_array_equal(rec.records[0].front_objectives, front)
        assert rec.records[0].n_feasible == int(pop.feasible.sum())

    def test_extras_copied(self):
        rec = HistoryRecorder()
        pop = small_population()
        extras = {"phase": 1.0}
        rec.record(0, pop, 0, extras=extras)
        extras["phase"] = 2.0
        assert rec.records[0].extras["phase"] == 1.0

    def test_clear(self):
        rec = HistoryRecorder()
        rec.record(0, small_population(), 0)
        rec.clear()
        assert rec.records == []


class TestCallbackList:
    def test_calls_in_order(self):
        calls = []
        cb = CallbackList([lambda g, p: calls.append(("a", g)),
                           lambda g, p: calls.append(("b", g))])
        cb(3, small_population())
        assert calls == [("a", 3), ("b", 3)]

    def test_append(self):
        cb = CallbackList()
        cb.append(lambda g, p: None)
        cb(0, small_population())  # no error


class TestExtractFeasibleFront:
    def test_unconstrained_front(self):
        pop = small_population(20)
        x, f = extract_feasible_front(pop)
        assert x.shape[0] == f.shape[0] > 0
        assert f.shape[1] == 2

    def test_no_feasible_members(self):
        ev = Evaluation(
            objectives=np.zeros((3, 2)),
            constraints=np.ones((3, 1)),  # all violated
        )
        pop = Population(np.zeros((3, 1)), ev)
        x, f = extract_feasible_front(pop)
        assert x.shape == (0, 1)
        assert f.shape == (0, 2)

    def test_front_is_non_dominated(self):
        pop = small_population(40, seed=3)
        _, f = extract_feasible_front(pop)
        from repro.utils.pareto import pareto_mask

        assert pareto_mask(f).all()


class TestOptimizationResult:
    def make_result(self):
        pop = small_population(10)
        x, f = extract_feasible_front(pop)
        return OptimizationResult(
            algorithm="X",
            problem_name="SCH",
            population=pop,
            front_x=x,
            front_objectives=f,
            n_generations=5,
            n_evaluations=60,
            wall_time=0.5,
        )

    def test_front_size(self):
        result = self.make_result()
        assert result.front_size == result.front_objectives.shape[0]

    def test_summary_keys(self):
        summary = self.make_result().summary()
        assert summary["algorithm"] == "X"
        assert summary["n_evaluations"] == 60
        assert summary["wall_time_s"] == 0.5

    def test_feasible_front_alias(self):
        result = self.make_result()
        np.testing.assert_array_equal(
            result.feasible_front(), result.front_objectives
        )
