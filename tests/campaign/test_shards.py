"""Tests for shard evaluation, packing and atomic persistence."""

import json

import numpy as np
import pytest

from repro.campaign.scenarios import CampaignSpec, expand_scenarios
from repro.campaign.shards import (
    CampaignShardProblem,
    ShardResult,
    evaluate_shard,
    read_shard,
    unpack_objectives,
    write_shard,
)
from repro.circuits.integrator import analyze_integrator


class TestCampaignShardProblem:
    def test_shapes(self, tiny_spec, make_designs):
        scenarios = expand_scenarios(tiny_spec)
        problem = CampaignShardProblem(tiny_spec, scenarios)
        assert problem.n_var == 15
        assert problem.n_obj == len(scenarios) * (1 + tiny_spec.n_mc)
        assert problem.n_con == 0
        x = make_designs(2)
        result = problem.evaluate_batch(x)
        assert result.objectives.shape == (2, problem.n_obj)
        assert result.constraints.shape == (2, 0)

    def test_empty_scenarios_rejected(self, tiny_spec):
        with pytest.raises(ValueError, match="at least one scenario"):
            CampaignShardProblem(tiny_spec, [])

    def test_pass_columns_are_bits(self, tiny_spec, designs):
        scenarios = expand_scenarios(tiny_spec)
        problem = CampaignShardProblem(tiny_spec, scenarios)
        obj = problem.evaluate_batch(designs).objectives
        width = 1 + tiny_spec.n_mc
        for s in range(len(scenarios)):
            bits = obj[:, s * width + 1 : (s + 1) * width]
            assert np.isin(bits, (0.0, 1.0)).all()

    def test_one_analysis_per_evaluation(self, tiny_spec, designs, monkeypatch):
        import repro.campaign.shards as shards

        cards = []

        def counted(tech, *args, **kwargs):
            cards.append(np.shape(tech.vdd))
            return analyze_integrator(tech, *args, **kwargs)

        monkeypatch.setattr(shards, "analyze_integrator", counted)
        scenarios = expand_scenarios(tiny_spec)
        CampaignShardProblem(tiny_spec, scenarios).evaluate_batch(designs)
        assert cards == [(len(scenarios) * tiny_spec.n_mc, 1)]

    def test_deterministic(self, tiny_spec, designs):
        scenarios = expand_scenarios(tiny_spec)
        a = CampaignShardProblem(tiny_spec, scenarios).evaluate_batch(designs)
        b = CampaignShardProblem(tiny_spec, scenarios).evaluate_batch(designs)
        assert a.objectives.tobytes() == b.objectives.tobytes()


class TestUnpack:
    def test_round_trip(self):
        n_scenarios, n_mc, n_designs = 2, 3, 4
        rng = np.random.default_rng(0)
        power = rng.uniform(1e-4, 1e-3, size=(n_scenarios, n_designs))
        passes = rng.integers(0, 2, size=(n_scenarios, n_mc, n_designs))
        cols = []
        for s in range(n_scenarios):
            cols.append(power[s])
            cols.extend(passes[s].astype(float))
        obj = np.column_stack(cols)
        p2, b2 = unpack_objectives(obj, n_scenarios, n_mc)
        np.testing.assert_array_equal(p2, power)
        np.testing.assert_array_equal(b2, passes.astype(bool))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="objective width"):
            unpack_objectives(np.zeros((2, 5)), n_scenarios=2, n_mc=3)


class TestEvaluateShard:
    def test_result_shapes(self, tiny_spec, designs):
        scenarios = expand_scenarios(tiny_spec)[:1]
        result = evaluate_shard(tiny_spec, scenarios, designs, shard_index=0)
        assert result.scenario_keys == ["TT@nom"]
        assert result.power.shape == (1, len(designs))
        assert result.passes.shape == (1, tiny_spec.n_mc, len(designs))
        assert result.n_designs == len(designs)
        assert result.n_evaluations == len(designs)

    def test_stacked_scenarios_match_their_own_shards(self, make_designs):
        """With the offset limit inside the mismatch spread, pass bits
        depend on which MC sample's mismatch each stacked row gets."""
        from dataclasses import replace

        from repro.campaign.scenarios import OperatingCondition
        from repro.circuits.specs import published_spec

        ispec = replace(published_spec(), offset_max=1.0e-3)
        spec = CampaignSpec(
            corners=("TT", "SS"), n_mc=6,
            conditions=(OperatingCondition("nom"), OperatingCondition("low", vdd_scale=0.9)),
        )
        scenarios = expand_scenarios(spec)
        x = make_designs(12)
        stacked = evaluate_shard(spec, scenarios, x, integrator_spec=ispec)
        alone = [evaluate_shard(spec, [s], x, integrator_spec=ispec) for s in scenarios]
        passes = np.concatenate([a.passes for a in alone])
        assert passes.any() and not passes.all()
        np.testing.assert_array_equal(stacked.passes, passes)
        assert stacked.power.tobytes() == np.concatenate([a.power for a in alone]).tobytes()

    def test_canary_passes_nominal(self, designs):
        # The known-feasible design should pass most MC samples at TT/nom.
        spec = CampaignSpec(corners=("TT",), n_mc=8, shard_scenarios=8)
        result = evaluate_shard(spec, expand_scenarios(spec), designs[:1])
        assert result.passes[0, :, 0].mean() >= 0.5


class TestShardFiles:
    def _result(self):
        return ShardResult(
            shard_index=3,
            scenario_keys=["TT@nom", "FF@nom"],
            n_mc=2,
            power=np.array([[1e-4, 2e-4], [3e-4, 4e-4]]),
            passes=np.array(
                [[[True, False], [True, True]], [[False, False], [True, False]]]
            ),
            n_evaluations=4,
        )

    def test_dict_round_trip(self):
        result = self._result()
        clone = ShardResult.from_dict(result.to_dict())
        assert clone.shard_index == result.shard_index
        assert clone.scenario_keys == result.scenario_keys
        assert clone.n_mc == result.n_mc
        assert clone.n_evaluations == result.n_evaluations
        np.testing.assert_array_equal(clone.power, result.power)
        np.testing.assert_array_equal(clone.passes, result.passes)

    def test_from_dict_rejects_bad_shapes(self):
        payload = self._result().to_dict()
        payload["power"] = [1.0, 2.0]  # 1-D: malformed
        with pytest.raises(ValueError, match="malformed shard payload"):
            ShardResult.from_dict(payload)

    def test_write_read_round_trip(self, tmp_path):
        result = self._result()
        path = write_shard(tmp_path / "shards" / "shard-0003.json", result)
        assert path.exists()
        clone = read_shard(path)
        np.testing.assert_array_equal(clone.power, result.power)
        np.testing.assert_array_equal(clone.passes, result.passes)

    def test_file_is_one_compact_line(self, tmp_path):
        result = self._result()
        text = write_shard(tmp_path / "shard.json", result).read_text(encoding="utf-8")
        assert text == json.dumps(result.to_dict(), separators=(",", ":")) + "\n"

    def test_indented_file_reads_back_equal(self, tmp_path):
        """Shard files written with ``indent=2`` still resume a campaign."""
        result = self._result()
        old = tmp_path / "shard-0003.json"
        old.write_text(json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
        new = write_shard(tmp_path / "new" / "shard-0003.json", result)
        assert old.read_bytes() != new.read_bytes()
        assert read_shard(old).to_dict() == read_shard(new).to_dict() == result.to_dict()

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_shard(tmp_path / "shard.json", self._result())
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_read_missing_is_none(self, tmp_path):
        assert read_shard(tmp_path / "nope.json") is None

    def test_read_corrupt_is_none(self, tmp_path):
        bad = tmp_path / "torn.json"
        bad.write_text('{"shard_index": 1, "scenario_ke', encoding="utf-8")
        assert read_shard(bad) is None
