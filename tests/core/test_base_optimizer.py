"""Tests for the shared optimizer scaffolding."""

import numpy as np
import pytest

from repro.core.base_optimizer import BaseOptimizer
from repro.core.nsga2 import NSGA2
from repro.problems.synthetic import SCH, ClusteredFeasibility


class TestValidation:
    def test_abstract_run_loop(self):
        opt = BaseOptimizer(SCH(), population_size=8)
        with pytest.raises(NotImplementedError):
            opt.run(1)

    def test_population_floor(self):
        with pytest.raises(ValueError, match="population_size"):
            BaseOptimizer(SCH(), population_size=3)


class TestBookkeeping:
    def test_rerun_resets_counters(self):
        algo = NSGA2(SCH(), population_size=12, seed=0)
        first = algo.run(4)
        second = algo.run(4)
        # Each run counts only its own evaluations and history.
        assert first.n_evaluations == second.n_evaluations
        assert len(first.history) == len(second.history)

    def test_reused_optimizer_counts_only_its_own_run(self):
        """A second run on the same optimizer reports its own rows and
        batches, in the result and in the metadata alike."""
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=0)
        algo.run(5)
        second = algo.run(5)
        assert second.n_evaluations == 16 * 6
        assert second.metadata["backend_stats"]["n_batches"] == 6
        assert algo.backend.stats.n_evaluations == second.n_evaluations
        assert second.history[-1].n_evaluations == second.n_evaluations

    def test_wall_time_recorded(self):
        result = NSGA2(SCH(), population_size=12, seed=0).run(3)
        assert result.wall_time > 0

    def test_metadata_echoes_operators(self):
        result = NSGA2(SCH(), population_size=12, seed=0).run(1)
        assert "SBXCrossover" in result.metadata["crossover"]
        assert "PolynomialMutation" in result.metadata["mutation"]

    def test_callbacks_see_every_generation(self):
        algo = NSGA2(SCH(), population_size=12, seed=0)
        seen = []
        algo.add_callback(lambda gen, pop: seen.append(gen))
        algo.run(5)
        assert seen == list(range(6))

    def test_initial_population_clipped_to_bounds(self):
        problem = SCH()
        x0 = np.full((12, 1), 5e3)  # outside the [-1e3, 1e3] box
        result = NSGA2(problem, population_size=12, seed=0).run(0, initial_x=x0)
        assert np.all(result.population.x <= problem.upper)
