"""Every shipped Problem must survive a pickle round-trip unchanged.

Picklability is part of the Problem contract, so a problem instance can
be copied to another process: no lambdas, closures, or other
unpicklable objects may live in instance state.  The round-trip
must also preserve *behavior* — the clone evaluates bit-identically.
"""

import pickle

import numpy as np
import pytest

from repro.circuits.sizing_problem import IntegratorSizingProblem
from repro.circuits.specs import spec_ladder
from repro.problems.synthetic import ALL_SYNTHETIC


def roundtrip(problem):
    return pickle.loads(pickle.dumps(problem))


def assert_same_behavior(problem, clone, seed=0, n=8):
    assert clone.n_var == problem.n_var
    assert clone.n_obj == problem.n_obj
    assert clone.n_con == problem.n_con
    assert clone.name == problem.name
    np.testing.assert_array_equal(clone.lower, problem.lower)
    np.testing.assert_array_equal(clone.upper, problem.upper)
    x = problem.sample(n, np.random.default_rng(seed))
    original = problem.evaluate(x)
    cloned = clone.evaluate(x)
    np.testing.assert_array_equal(original.objectives, cloned.objectives)
    np.testing.assert_array_equal(original.constraints, cloned.constraints)
    np.testing.assert_array_equal(original.violation, cloned.violation)


@pytest.mark.parametrize("name", sorted(ALL_SYNTHETIC))
def test_synthetic_problem_roundtrips(name):
    problem = ALL_SYNTHETIC[name]()
    assert_same_behavior(problem, roundtrip(problem))


def test_integrator_problem_roundtrips():
    problem = IntegratorSizingProblem(n_mc=3)
    assert_same_behavior(problem, roundtrip(problem), n=4)


def test_integrator_variants_roundtrip():
    corners_off = IntegratorSizingProblem(n_mc=2, use_corners=False)
    assert_same_behavior(corners_off, roundtrip(corners_off), n=3)
    three_obj = IntegratorSizingProblem(n_mc=2, include_area_objective=True)
    assert_same_behavior(three_obj, roundtrip(three_obj), n=3)


def test_integrator_with_ladder_spec_roundtrips():
    spec = spec_ladder(5)[2]
    problem = IntegratorSizingProblem(spec=spec, n_mc=2)
    clone = roundtrip(problem)
    assert clone.spec == problem.spec
    assert_same_behavior(problem, clone, n=3)


def test_roundtrip_preserves_evaluation_counter_independence():
    """The clone keeps its own counter; evaluating one never moves the other."""
    problem = ALL_SYNTHETIC["SCH"]()
    problem.evaluate(problem.sample(5, np.random.default_rng(1)))
    clone = roundtrip(problem)
    assert clone.n_evaluations == problem.n_evaluations == 5
    clone.evaluate(clone.sample(3, np.random.default_rng(2)))
    assert clone.n_evaluations == 8
    assert problem.n_evaluations == 5
