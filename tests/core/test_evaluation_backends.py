"""The evaluation backend: stats, metadata and per-generation telemetry.

Every optimizer evaluates through one serial
:class:`~repro.core.evaluation.EvaluationBackend`.  Its counters are
echoed into result metadata (and serialized into the golden-front
hashes), and its per-generation deltas into the history records.
"""

import numpy as np

from repro.core.evaluation import EvaluationBackend
from repro.core.nsga2 import NSGA2
from repro.problems.synthetic import ClusteredFeasibility

POP = 16
GENS = 4


def synthetic_problem():
    return ClusteredFeasibility(n_var=4)


def make_optimizer(seed=21):
    return NSGA2(synthetic_problem(), population_size=POP, seed=seed)


def test_evaluate_matches_problem_and_counts_rows():
    problem = synthetic_problem()
    x = problem.sample(11, np.random.default_rng(3))
    backend = EvaluationBackend()
    got = backend.evaluate(problem, x)
    want = synthetic_problem().evaluate_batch(x)
    np.testing.assert_array_equal(got.objectives, want.objectives)
    np.testing.assert_array_equal(got.constraints, want.constraints)
    np.testing.assert_array_equal(got.violation, want.violation)
    assert backend.stats.n_evaluations == 11
    assert backend.stats.n_batches == 1
    assert backend.stats.eval_time >= backend.stats.last_batch_time >= 0.0


def test_empty_batch_supported():
    problem = synthetic_problem()
    backend = EvaluationBackend()
    ev = backend.evaluate(problem, np.zeros((0, problem.n_var)))
    assert ev.n_points == 0
    assert backend.stats.n_evaluations == 0
    assert backend.stats.n_batches == 1


def test_serial_stats_dict_shape_unchanged():
    """The backend_stats dict keeps its historical keys — the golden-front
    hashes serialize it — with the cache and fallback counters at 0."""
    problem = synthetic_problem()
    backend = EvaluationBackend()
    backend.evaluate(problem, problem.sample(5, np.random.default_rng(6)))
    stats = backend.stats.as_dict()
    assert list(stats) == [
        "n_evaluations", "n_batches", "eval_time",
        "cache_hits", "cache_misses", "cache_evictions", "fallbacks",
    ]
    assert stats["n_evaluations"] == 5
    assert stats["cache_hits"] == stats["cache_misses"] == 0
    assert stats["cache_evictions"] == stats["fallbacks"] == 0


def test_backend_stats_in_metadata_and_history():
    result = make_optimizer().run(GENS)
    assert result.metadata["backend"] == {"name": "serial"}
    stats = result.metadata["backend_stats"]
    assert stats["n_batches"] == GENS + 1
    assert stats["n_evaluations"] == result.n_evaluations
    assert stats["eval_time"] >= 0.0
    # Every history record carries *per-generation* eval wall time (not
    # a cumulative total), and nothing else from the backend.
    assert all(set(rec.extras) == {"eval_time_s"} for rec in result.history)
    assert all(rec.extras["eval_time_s"] >= 0.0 for rec in result.history)


def test_backend_extras_are_per_generation_deltas():
    """Regression: history extras are deltas, so they sum to the totals.

    The pre-fix behaviour reported the backend's *cumulative* counters in
    every record, so summing over history overcounted by roughly a factor
    of ``len(history)``; a single generation's record also carried the
    whole run's eval time.  Deltas reconcile exactly with the final
    cumulative ``backend_stats``.
    """
    result = make_optimizer().run(GENS)
    stats = result.metadata["backend_stats"]
    assert np.isclose(
        sum(rec.extras["eval_time_s"] for rec in result.history),
        stats["eval_time"],
    )


def test_backend_extras_deltas_reset_between_runs():
    """A second ``run()`` must not inherit the first run's counters: its
    deltas cover only its own batches, while the backend's cumulative
    stats keep counting across both runs."""
    opt = make_optimizer()
    first = opt.run(GENS)
    second = opt.run(GENS)
    before = first.metadata["backend_stats"]
    after = second.metadata["backend_stats"]
    assert after["n_batches"] == 2 * before["n_batches"]
    assert np.isclose(
        sum(rec.extras["eval_time_s"] for rec in second.history),
        after["eval_time"] - before["eval_time"],
    )
