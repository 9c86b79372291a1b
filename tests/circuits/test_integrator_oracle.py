"""The one-pass ``analyze_integrator`` against the two-pass oracle.

Every :class:`~repro.circuits.integrator.IntegratorPerformance` field and
every ``amp`` field (per-device dicts included) must match the oracle
byte for byte -- shape, dtype and IEEE-754 bits -- on every card the
sizing problem and the campaign analyse: nominal, the 4-corner stack,
Monte-Carlo stacks, campaign scenario cards with a scaled supply and a
raised temperature, and one stacked card of several scenarios.
"""

import numpy as np
import pytest

from repro.campaign.scenarios import OperatingCondition, Scenario, scenario_technology
from repro.circuits.integrator import analyze_integrator
from repro.circuits.opamp import analyze_opamp
from repro.circuits.sizing_problem import _LOWER, _UPPER, IntegratorSizingProblem
from repro.circuits.specs import published_spec
from repro.circuits.technology import corner_technology, nominal_technology
from repro.circuits.yield_est import MonteCarloSampler, stacked_technology

from tests.circuits.reference_integrator import (
    analyze_integrator_two_pass,
    performance_arrays,
)

BASE = nominal_technology()
HOT = OperatingCondition("hot", temperature=358.15)
LOWVDD = OperatingCondition("lowvdd", vdd_scale=0.9)
SHARD_SCENARIOS = [
    Scenario("TT", HOT),
    Scenario("SS", LOWVDD),
    Scenario("FS", OperatingCondition("hotlow", vdd_scale=0.95, temperature=330.0)),
]


def _shard_card():
    sampler = MonteCarloSampler(n_samples=3, seed=7)
    return stacked_technology([
        card for s in SHARD_SCENARIOS for card in sampler.cards(scenario_technology(s, BASE))
    ])


CARDS = {
    "nominal": lambda: BASE,
    "corners": lambda: stacked_technology(
        [corner_technology(c, BASE) for c in ("FF", "SS", "FS", "SF")]
    ),
    "mc1": lambda: MonteCarloSampler(n_samples=1).stacked(BASE),
    "mc2": lambda: MonteCarloSampler(n_samples=2).stacked(BASE),
    "mc6": lambda: MonteCarloSampler(n_samples=6).stacked(BASE),
    "scenario-hot": lambda: scenario_technology(Scenario("SF", HOT), BASE),
    "scenario-lowvdd": lambda: scenario_technology(Scenario("FF", LOWVDD), BASE),
    "shard": _shard_card,
}


def designs(pop: int, in_bounds: bool) -> np.ndarray:
    rng = np.random.default_rng(pop + 1000 * in_bounds)
    x = _LOWER + rng.random((pop, _LOWER.size)) * (_UPPER - _LOWER)
    if not in_bounds:
        x = x * rng.uniform(0.5, 1.5, x.shape)
    return x


@pytest.mark.parametrize("in_bounds", [True, False], ids=["in-bounds", "out-of-bounds"])
@pytest.mark.parametrize("pop", [1, 7, 80])
@pytest.mark.parametrize("card", sorted(CARDS))
def test_one_pass_matches_two_pass_oracle(card, pop, in_bounds):
    tech = CARDS[card]()
    design = IntegratorSizingProblem.build_design(designs(pop, in_bounds))
    eps = published_spec().se_max / 2.0
    got = performance_arrays(analyze_integrator(tech, design, settle_epsilon=eps))
    want = performance_arrays(analyze_integrator_two_pass(tech, design, settle_epsilon=eps))
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert got[name].dtype == arr.dtype, name
        assert got[name].tobytes() == arr.tobytes(), name


def test_one_op_amp_analysis_per_call(monkeypatch):
    import repro.circuits.integrator as integrator

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze_opamp(*args, **kwargs)

    monkeypatch.setattr(integrator, "analyze_opamp", counted)
    analyze_integrator(CARDS["shard"](), IntegratorSizingProblem.build_design(designs(7, True)))
    assert len(calls) == 1
