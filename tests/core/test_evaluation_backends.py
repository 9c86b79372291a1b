"""The evaluation backend: stats, metadata and per-generation telemetry.

Every optimizer evaluates through one serial
:class:`~repro.core.evaluation.EvaluationBackend`.  Its stats are the
run's one count and clock of evaluation work: they are echoed into
result metadata (and serialized into the golden-front hashes), their
per-generation deltas go into the history records, and checkpoints
carry them across a resume.
"""

import numpy as np
import pytest

from repro.core.evaluation import EvaluationBackend
from repro.core.nsga2 import NSGA2
from repro.problems.synthetic import ClusteredFeasibility
from tests.core.test_checkpoint_resume import ALGOS, build, serialized
from tests.core.test_checkpoint_resume import GENS as CHECKPOINT_GENS

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


def test_stats_dict_holds_batches_and_seconds():
    """The backend_stats dict holds batches and seconds, nothing else:
    the row count is the result's own ``n_evaluations``."""
    problem = synthetic_problem()
    backend = EvaluationBackend()
    backend.evaluate(problem, problem.sample(5, np.random.default_rng(6)))
    stats = backend.stats.as_dict()
    assert list(stats) == ["n_batches", "eval_time"]
    assert stats["n_batches"] == 1
    assert stats["eval_time"] == backend.stats.eval_time


def test_backend_stats_in_metadata_and_history():
    result = make_optimizer().run(GENS)
    assert "backend" not in result.metadata
    stats = result.metadata["backend_stats"]
    assert set(stats) == {"n_batches", "eval_time"}
    assert stats["n_batches"] == GENS + 1
    assert result.n_evaluations == POP * (GENS + 1)
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
    """A second ``run()`` starts from fresh stats: its records, its
    metadata and its result count only its own batches."""
    opt = make_optimizer()
    first = opt.run(GENS)
    second = opt.run(GENS)
    assert second.metadata["backend_stats"]["n_batches"] == GENS + 1
    assert second.n_evaluations == first.n_evaluations
    assert [r.n_evaluations for r in second.history] == [
        r.n_evaluations for r in first.history
    ]
    assert np.isclose(
        sum(rec.extras["eval_time_s"] for rec in second.history),
        second.metadata["backend_stats"]["eval_time"],
    )


@pytest.mark.parametrize("algo", ALGOS)
def test_checkpoint_with_removed_counter_keys_resumes(algo):
    """A checkpoint written before the evaluation count had one home
    still carries the problem's counter, the previous stats and the
    constant cache counters.  It loads, the extra keys are ignored, and
    the resumed run is byte-identical to an uninterrupted one."""
    source = build(algo)
    payloads = []

    def capture_at_generation_3(generation, population):
        if generation == 3:
            payloads.append(source.capture_checkpoint())

    source.add_callback(capture_at_generation_3)
    baseline = serialized(source.run(CHECKPOINT_GENS))
    (payload,) = payloads
    constant = {
        "cache_hits": 0, "cache_misses": 0, "cache_evictions": 0, "fallbacks": 0,
    }
    payload["backend_stats"].update(
        n_evaluations=payload["n_evaluations"], **constant
    )
    payload["problem_evaluations"] = payload["n_evaluations"]
    payload["backend_stats_prev"] = dict(payload["backend_stats"])
    resumed = build(algo).run(CHECKPOINT_GENS, resume_from=payload)
    assert serialized(resumed) == baseline
