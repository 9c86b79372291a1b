"""Property-based tests of the ``evaluate_batch`` contract.

Hypothesis drives random ``(N, D)`` decision matrices — empty, single-row
and large batches, in-box, out-of-box and degenerate values (bound
corners, signed zeros, sub-normal offsets) — and asserts the structural
half of the contract for every input the strategies can build:

* output shapes are always ``(N, n_obj)`` / ``(N, n_con)`` / ``(N,)``;
* outputs are always float64 regardless of input dtype;
* the input array is never mutated (bytes and dtype preserved);
* a problem implementing only the scalar ``_evaluate_one`` hook gets
  results bit-identical to its batch-native twin via the fallback loop.

Bitwise batch/scalar agreement for the shipped problems lives in
``test_batch_equivalence.py``; this file is about the contract holding
for *arbitrary* inputs, not just well-behaved ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.base import Problem
from repro.problems.synthetic import ALL_SYNTHETIC

# Problems whose objectives stay finite arbitrarily far outside the box
# (polynomial/trig forms).  CONSTR divides by x1 and the ZDT family takes
# sqrt of ratios, so out-of-box inputs legitimately trip the totality
# guard there — they are exercised in-box only.
TOTAL_ANYWHERE = ("SCH", "BNH", "SRN", "OSY")

problem_names = st.sampled_from(sorted(ALL_SYNTHETIC))
batch_sizes = st.sampled_from([0, 1, 2, 7, 64, 257])


def build_batch(problem: Problem, n: int, seed: int, scale: float) -> np.ndarray:
    """Random batch around the box, inflated by *scale*, with degenerate
    rows (bound corners, signed zeros) spliced in when room allows."""
    rng = np.random.default_rng(seed)
    lower, upper = problem.bounds
    span = upper - lower
    x = lower + span * rng.uniform(-(scale - 1.0), scale, size=(n, problem.n_var))
    if n >= 3:
        x[0] = lower
        x[1] = upper
        x[2] = np.where(lower <= 0.0, -0.0, lower)  # signed zero where in box
    return x


@settings(max_examples=40, deadline=None)
@given(name=problem_names, n=batch_sizes, seed=st.integers(0, 2**16))
def test_shapes_and_dtypes_always_hold(name, n, seed):
    problem = ALL_SYNTHETIC[name]()
    x = build_batch(problem, n, seed, scale=1.0)
    ev = problem.evaluate_batch(x)
    assert ev.objectives.shape == (n, problem.n_obj)
    assert ev.constraints.shape == (n, problem.n_con)
    assert ev.violation.shape == (n,)
    assert ev.objectives.dtype == np.float64
    assert ev.constraints.dtype == np.float64
    assert ev.violation.dtype == np.float64


@settings(max_examples=40, deadline=None)
@given(name=problem_names, n=batch_sizes, seed=st.integers(0, 2**16))
def test_input_never_mutated(name, n, seed):
    problem = ALL_SYNTHETIC[name]()
    x = build_batch(problem, n, seed, scale=1.0)
    before = x.tobytes()
    problem.evaluate_batch(x)
    assert x.tobytes() == before
    assert x.dtype == np.float64
    assert x.flags.writeable  # read-only enforcement stays on our view


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(TOTAL_ANYWHERE),
    n=batch_sizes,
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1.0, 1.5, 3.0]),
)
def test_out_of_box_batches_keep_the_contract(name, n, seed, scale):
    """Degenerate and far-out-of-bounds values still produce (N, M)
    float64 results for totally-defined problems — GAs routinely probe
    outside the box before clipping."""
    problem = ALL_SYNTHETIC[name]()
    x = build_batch(problem, n, seed, scale=scale)
    ev = problem.evaluate_batch(x)
    assert ev.objectives.shape == (n, problem.n_obj)
    assert np.isfinite(ev.objectives).all()
    assert x.tobytes() == build_batch(problem, n, seed, scale=scale).tobytes()


@settings(max_examples=20, deadline=None)
@given(n=batch_sizes, seed=st.integers(0, 2**16))
def test_float32_input_is_promoted_not_mutated(n, seed):
    problem = ALL_SYNTHETIC["SCH"]()
    x64 = build_batch(problem, n, seed, scale=1.0)
    x32 = x64.astype(np.float32)
    before = x32.tobytes()
    ev = problem.evaluate_batch(x32)
    assert ev.objectives.dtype == np.float64
    assert x32.tobytes() == before and x32.dtype == np.float32


class BatchNativeToy(Problem):
    """f1 = sum(x), f2 = sum((x - 1)^2), g = x0 - 0.5."""

    def __init__(self):
        super().__init__(n_var=4, n_obj=2, n_con=1, lower=np.zeros(4), upper=np.ones(4))

    def _evaluate(self, x):
        f1 = x.sum(axis=1)
        f2 = ((x - 1.0) ** 2).sum(axis=1)
        return np.column_stack([f1, f2]), (x[:, 0] - 0.5).reshape(-1, 1)


class ScalarOnlyToy(Problem):
    """Same function implemented through the scalar fallback hook only."""

    def __init__(self):
        super().__init__(n_var=4, n_obj=2, n_con=1, lower=np.zeros(4), upper=np.ones(4))

    def _evaluate_one(self, x):
        f1 = x.sum()
        f2 = ((x - 1.0) ** 2).sum()
        return np.array([f1, f2]), np.array([x[0] - 0.5])


@settings(max_examples=30, deadline=None)
@given(n=batch_sizes, seed=st.integers(0, 2**16))
def test_scalar_fallback_matches_batch_native_bitwise(n, seed):
    """A problem shipping only ``_evaluate_one`` gets the batched API via
    the base-class loop, bit-identical to the vectorized twin (numpy
    reduces each row in the same order either way)."""
    batch_native = BatchNativeToy()
    scalar_only = ScalarOnlyToy()
    x = build_batch(batch_native, n, seed, scale=1.0)
    a = batch_native.evaluate_batch(x)
    b = scalar_only.evaluate_batch(x)
    assert a.objectives.tobytes() == b.objectives.tobytes()
    assert a.constraints.tobytes() == b.constraints.tobytes()
    assert a.violation.tobytes() == b.violation.tobytes()


def test_unimplemented_problem_raises_helpfully():
    class Nothing(Problem):
        def __init__(self):
            super().__init__(n_var=1, n_obj=1, n_con=0, lower=[0], upper=[1])

    with pytest.raises(NotImplementedError, match="_evaluate_one"):
        Nothing().evaluate_batch(np.array([[0.5]]))


def test_evaluate_one_rejects_matrices_and_wrong_width():
    problem = BatchNativeToy()
    with pytest.raises(ValueError, match="evaluate_one"):
        problem.evaluate_one(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="evaluate_one"):
        problem.evaluate_one(np.zeros(3))


def test_mutating_subclass_fails_loudly():
    """The read-only view turns a contract violation (in-place write on
    the decision matrix) into an immediate error instead of silent
    population corruption."""

    class Mutator(Problem):
        def __init__(self):
            super().__init__(n_var=2, n_obj=1, n_con=0, lower=[0, 0], upper=[1, 1])

        def _evaluate(self, x):
            x[:, 0] = 0.0  # illegal: the optimizer hands its population matrix over
            return x[:, :1], np.zeros((x.shape[0], 0))

    with pytest.raises(ValueError, match="read-only"):
        Mutator().evaluate_batch(np.array([[0.5, 0.5]]))


def test_empty_batch_round_trips_through_scalar_fallback():
    problem = ScalarOnlyToy()
    ev = problem.evaluate_batch(np.zeros((0, 4)))
    assert ev.objectives.shape == (0, 2)
    assert ev.constraints.shape == (0, 1)
    assert ev.violation.shape == (0,)
