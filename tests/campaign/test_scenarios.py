"""Tests for the declarative scenario grid (CampaignSpec et al.)."""

import pytest

from repro.campaign.scenarios import (
    NOMINAL_CONDITION,
    CampaignSpec,
    OperatingCondition,
    Scenario,
    expand_scenarios,
    plan_shards,
    scenario_technology,
)
from repro.circuits.technology import CORNERS, nominal_technology


class TestOperatingCondition:
    def test_defaults(self):
        cond = OperatingCondition()
        assert cond.name == "nom"
        assert cond.vdd_scale == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            OperatingCondition(name="")
        with pytest.raises(ValueError, match="vdd_scale"):
            OperatingCondition(vdd_scale=0.0)
        with pytest.raises(ValueError, match="temperature"):
            OperatingCondition(temperature=-1.0)


class TestScenario:
    def test_key(self):
        s = Scenario("FF", OperatingCondition(name="hot"))
        assert s.key == "FF@hot"

    def test_technology_applies_condition(self):
        base = nominal_technology()
        cond = OperatingCondition(name="low", vdd_scale=0.9, temperature=350.0)
        tech = scenario_technology(Scenario("TT", cond), base)
        assert tech.vdd == pytest.approx(base.vdd * 0.9)
        assert tech.temperature == 350.0
        assert "low" in tech.name

    def test_technology_keeps_corner(self):
        base = nominal_technology()
        tech = scenario_technology(Scenario("FF", NOMINAL_CONDITION), base)
        # FF is the fast corner: higher mobility than nominal.
        assert tech.nmos.u0 > base.nmos.u0


class TestCampaignSpec:
    def test_defaults_cover_all_corners(self):
        spec = CampaignSpec()
        assert spec.corners == CORNERS
        assert len(expand_scenarios(spec)) == len(CORNERS)

    def test_corners_uppercased(self):
        spec = CampaignSpec(corners=("tt", "ss"))
        assert spec.corners == ("TT", "SS")

    def test_unknown_corner_rejected(self):
        with pytest.raises(ValueError, match="unknown corners"):
            CampaignSpec(corners=("TT", "XX"))

    def test_duplicate_corner_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(corners=("TT", "TT"))

    def test_duplicate_condition_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                conditions=(OperatingCondition(), OperatingCondition())
            )

    def test_bad_yield_target(self):
        with pytest.raises(ValueError, match="yield_target"):
            CampaignSpec(yield_target=1.5)

    def test_bad_n_mc(self):
        with pytest.raises(ValueError, match="n_mc"):
            CampaignSpec(n_mc=0)

    def test_round_trip(self):
        spec = CampaignSpec(
            corners=("TT", "FF"),
            n_mc=4,
            mc_seed=7,
            conditions=(
                NOMINAL_CONDITION,
                OperatingCondition(name="hot", vdd_scale=0.95, temperature=358.0),
            ),
            yield_target=0.75,
            shard_scenarios=3,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            CampaignSpec.from_dict({"n_mcs": 4})

    def test_from_dict_empty_is_default(self):
        assert CampaignSpec.from_dict({}) == CampaignSpec()
        assert CampaignSpec.from_dict(None) == CampaignSpec()


class TestGrid:
    def test_expand_order_corners_outer(self):
        spec = CampaignSpec(
            corners=("TT", "FF"),
            conditions=(
                NOMINAL_CONDITION,
                OperatingCondition(name="hot", temperature=358.0),
            ),
        )
        keys = [s.key for s in expand_scenarios(spec)]
        assert keys == ["TT@nom", "TT@hot", "FF@nom", "FF@hot"]

    def test_plan_shards_chunks(self):
        spec = CampaignSpec(corners=CORNERS, shard_scenarios=2)
        shards = plan_shards(spec)
        assert shards == [[0, 1], [2, 3], [4]]

    def test_plan_shards_single(self):
        spec = CampaignSpec(corners=("TT",), shard_scenarios=8)
        assert plan_shards(spec) == [[0]]

    def test_temperature_variants_share_a_shard(self):
        # hot differs from nom only in temperature, so it shares nom's
        # op-amp card and shard although lowvdd sits between them.
        spec = CampaignSpec(
            corners=("TT", "SS"),
            conditions=(
                NOMINAL_CONDITION,
                OperatingCondition(name="lowvdd", vdd_scale=0.9),
                OperatingCondition(name="hot", temperature=358.0),
            ),
            shard_scenarios=1,
        )
        keys = [s.key for s in expand_scenarios(spec)]
        shards = [[keys[i] for i in shard] for shard in plan_shards(spec)]
        assert shards == [
            ["TT@nom", "TT@hot"], ["TT@lowvdd"], ["SS@nom", "SS@hot"], ["SS@lowvdd"],
        ]

    def test_shard_scenarios_counts_op_amp_cards(self):
        # 5 corners x {nom, hot, lowvdd}: two op-amp cards per corner,
        # so two cards a shard is one corner a shard.
        spec = CampaignSpec(
            conditions=(
                NOMINAL_CONDITION,
                OperatingCondition(name="hot", temperature=358.15),
                OperatingCondition(name="lowvdd", vdd_scale=0.9),
            ),
            shard_scenarios=2,
        )
        assert plan_shards(spec) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14],
        ]

    def test_grid_without_temperature_variants_plans_contiguous_chunks(self):
        spec = CampaignSpec(
            corners=("TT", "SS", "FF"),
            conditions=(
                NOMINAL_CONDITION,
                OperatingCondition(name="lowvdd", vdd_scale=0.9),
                OperatingCondition(name="hotlow", vdd_scale=0.95, temperature=358.0),
            ),
            shard_scenarios=2,
        )
        assert plan_shards(spec) == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]
