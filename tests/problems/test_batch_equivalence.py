"""Batch/scalar bit-identity: the safety net under ``evaluate_batch``.

For every shipped problem — the whole synthetic zoo plus the integrator
sizing problem in all its configurations — a batched evaluation must be
*bit-identical* (equal float64 bytes, not just ``allclose``) to evaluating
the same rows one at a time through :meth:`Problem.evaluate_one`.  This
is the row-decomposability half of the batch contract: it is what lets
campaigns split their designs and scenarios into shards arbitrarily,
and the vectorized circuit models replace the historical
per-individual loops without perturbing any optimization trajectory.

Never weaken an assertion here to ``allclose`` — a bitwise mismatch
means some operation's result depends on batch composition (an
accumulated reduction across rows, a resized scratch buffer, a data-
dependent branch), which would silently break shard equivalence and
checkpoint resume.
"""

import numpy as np
import pytest

from repro.circuits.sizing_problem import IntegratorSizingProblem
from repro.problems.base import Evaluation, Problem
from repro.problems.scalarize import WeightedSumProblem
from repro.problems.synthetic import ALL_SYNTHETIC, make_zoo

RNG_SEED = 20260808


def zoo_problems():
    """(label, problem factory) for every shipped synthetic problem."""
    return [(name, cls) for name, cls in sorted(ALL_SYNTHETIC.items())]


def sizing_problems():
    return [
        ("integrator", lambda: IntegratorSizingProblem(n_mc=2)),
        ("integrator-tt-only", lambda: IntegratorSizingProblem(n_mc=2, use_corners=False)),
        (
            "integrator-3obj",
            lambda: IntegratorSizingProblem(n_mc=2, include_area_objective=True),
        ),
    ]


def probe_batch(problem: Problem, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Random in-box designs plus the degenerate rows that bite in practice:
    the exact bound corners (what clipping produces) and mid-box points."""
    x = problem.sample(n_random, rng)
    lower, upper = problem.bounds
    edges = np.vstack([lower, upper, 0.5 * (lower + upper)])
    return np.vstack([x, edges])


def assert_bit_identical(batch: Evaluation, scalar: Evaluation, label: str) -> None:
    for field in ("objectives", "constraints", "violation"):
        got = getattr(batch, field)
        want = getattr(scalar, field)
        assert got.shape == want.shape, f"{label}: {field} shape {got.shape} != {want.shape}"
        assert got.dtype == np.float64 and want.dtype == np.float64, f"{label}: {field} dtype"
        assert got.tobytes() == want.tobytes(), (
            f"{label}: {field} differs bitwise between batch and scalar paths"
        )


def scalar_reference(problem: Problem, x: np.ndarray) -> Evaluation:
    """Row-by-row evaluation through the scalar path, stacked."""
    rows = [problem.evaluate_one(x[i]) for i in range(x.shape[0])]
    if not rows:
        return problem.evaluate_batch(x[:0])
    return Evaluation(
        objectives=np.vstack([r.objectives for r in rows]),
        constraints=np.vstack([r.constraints for r in rows]),
        violation=np.concatenate([r.violation for r in rows]),
    )


@pytest.mark.parametrize("name,factory", zoo_problems())
def test_zoo_batch_matches_scalar_bitwise(name, factory):
    problem = factory()
    x = probe_batch(problem, 64, np.random.default_rng(RNG_SEED))
    assert_bit_identical(
        problem.evaluate_batch(x), scalar_reference(problem, x), name
    )


@pytest.mark.parametrize("name,factory", sizing_problems())
def test_sizing_batch_matches_scalar_bitwise(name, factory):
    """The analog engine end to end: op-amp DC solve, integrator analysis,
    corner stacking and the Monte-Carlo robustness column must all be
    row-decomposable."""
    problem = factory()
    x = probe_batch(problem, 24, np.random.default_rng(RNG_SEED))
    assert_bit_identical(
        problem.evaluate_batch(x), scalar_reference(problem, x), name
    )


def test_weighted_sum_wrapper_batch_matches_scalar_bitwise():
    inner = IntegratorSizingProblem(n_mc=2)
    ranges = np.array([[0.0, 0.05], [0.0, 5.0e-12]])
    problem = WeightedSumProblem(inner, [0.3, 0.7], objective_ranges=ranges)
    x = probe_batch(problem, 16, np.random.default_rng(RNG_SEED))
    assert_bit_identical(
        problem.evaluate_batch(x), scalar_reference(problem, x), "weighted-sum"
    )


@pytest.mark.parametrize("name,factory", zoo_problems() + sizing_problems())
def test_chunked_batches_concatenate_bitwise(name, factory):
    """Splitting a batch into chunks and stacking the results must equal
    the single-call evaluation — the row-decomposability every split of
    a batch (such as a campaign's shard plan) relies on."""
    problem = factory()
    n_random = 12 if name.startswith("integrator") else 48
    x = probe_batch(problem, n_random, np.random.default_rng(RNG_SEED))
    whole = problem.evaluate_batch(x)
    cuts = [0, 1, x.shape[0] // 3, x.shape[0]]
    parts = [problem.evaluate_batch(x[a:b]) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    stacked = Evaluation(
        objectives=np.vstack([p.objectives for p in parts]),
        constraints=np.vstack([p.constraints for p in parts]),
        violation=np.concatenate([p.violation for p in parts]),
    )
    assert_bit_identical(whole, stacked, name)


class NonFinite(Problem):
    """Hostile problem: returns NaN/inf rows for out-of-box inputs."""

    def __init__(self):
        super().__init__(n_var=2, n_obj=2, n_con=1, lower=[0, 0], upper=[1, 1])

    def _evaluate(self, x):
        bad = (x < self.lower).any(axis=1) | (x > self.upper).any(axis=1)
        f1 = np.where(bad, np.nan, x[:, 0])
        f2 = np.where(bad, np.inf, x[:, 1])
        g = (x[:, 0] - 0.5).reshape(-1, 1)
        return np.column_stack([f1, f2]), g


def test_nonfinite_rows_raise_on_both_paths():
    """NaN/inf handling is part of the contract: the totality guard fires
    identically whether the poisoned row arrives batched or alone."""
    problem = NonFinite()
    x = np.array([[0.2, 0.4], [1.5, 0.5], [0.6, 0.9]])
    with pytest.raises(ValueError, match="non-finite objective"):
        problem.evaluate_batch(x)
    with pytest.raises(ValueError, match="non-finite objective"):
        problem.evaluate_one(x[1])
    # The clean rows still evaluate identically on both paths.
    clean = x[[0, 2]]
    assert_bit_identical(
        problem.evaluate_batch(clean), scalar_reference(problem, clean), "nonfinite-clean"
    )


def test_violation_column_bitwise_on_infeasible_rows():
    """Constraint-violation aggregation is computed from identical bytes
    on both paths even for wildly infeasible designs."""
    problem = make_zoo()["OSY"]
    rng = np.random.default_rng(RNG_SEED)
    lower, upper = problem.bounds
    # Designs thrown far outside the box: constraints go strongly positive.
    x = lower + (upper - lower) * rng.uniform(-2.0, 3.0, size=(32, problem.n_var))
    batch = problem.evaluate_batch(x)
    scalar = scalar_reference(problem, x)
    assert (batch.violation > 0).any(), "probe should contain infeasible rows"
    assert_bit_identical(batch, scalar, "OSY-infeasible")
