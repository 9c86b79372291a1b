"""Campaign yields against a naive per-sample loop.

The oracle shares none of the stacking code in ``campaign/shards.py``:
for each scenario and each Monte-Carlo sample it builds one perturbed
card on top of the scenario's card, makes one ``analyze_integrator``
call on the designs, adds that sample's input-pair mismatch offset and
applies ``spec_pass_matrix``.  Shard pass bits must equal the oracle's
bit for bit; powers agree to 1e-12 relative, so a different SIMD path
on another host cannot make the check flaky.
"""

import numpy as np

from repro.campaign.aggregate import aggregate_report
from repro.campaign.scenarios import (
    CampaignSpec,
    OperatingCondition,
    expand_scenarios,
    plan_shards,
    scenario_technology,
)
from repro.campaign.shards import evaluate_shard
from repro.circuits.integrator import analyze_integrator
from repro.circuits.sizing_problem import IntegratorSizingProblem, spec_pass_matrix
from repro.circuits.specs import published_spec
from repro.circuits.technology import nominal_technology, perturbed_technology
from repro.circuits.yield_est import MonteCarloSampler

from tests.campaign.conftest import design_batch

# SF fails every sample of this family; without it yields vary between
# 0 and 1, so the yield comparison is not a comparison of zeros.
SPEC = CampaignSpec(
    corners=("TT", "FF", "SS", "FS"),
    n_mc=6,
    conditions=(
        OperatingCondition("nom"),
        OperatingCondition("hot", temperature=358.15),
        OperatingCondition("lowvdd", vdd_scale=0.9),
    ),
    yield_target=0.5,
    shard_scenarios=4,
)


def naive_campaign(spec, x):
    """``(power, passes)`` of shape ``(S, n)`` and ``(S, n_mc, n)``,
    one card and one analysis per (scenario, sample)."""
    ispec = published_spec()
    p = IntegratorSizingProblem.decode(x)
    design = IntegratorSizingProblem._design_from_params(p)
    sampler = MonteCarloSampler(
        n_samples=spec.n_mc,
        sigma_mu=spec.sigma_mu,
        sigma_vt=spec.sigma_vt,
        seed=spec.mc_seed,
    )
    scenarios = expand_scenarios(spec)
    n = x.shape[0]
    power = np.empty((len(scenarios), n))
    passes = np.empty((len(scenarios), spec.n_mc, n), dtype=bool)
    for s, scenario in enumerate(scenarios):
        tech = scenario_technology(scenario, nominal_technology())
        sigma_offset = tech.nmos.a_vt / np.sqrt(np.maximum(p["w1"] * p["l1"], 1e-18))
        sample_power = []
        for j, sample in enumerate(sampler.samples):
            card = perturbed_technology(
                tech,
                sample.n_mu_factor,
                sample.n_dvt,
                sample.p_mu_factor,
                sample.p_dvt,
            )
            perf = analyze_integrator(card, design, settle_epsilon=ispec.se_max / 2.0)
            passes[s, j] = spec_pass_matrix(
                ispec, perf, offset_extra=sample.mismatch_z * sigma_offset
            )
            sample_power.append(np.broadcast_to(perf.power, (n,)))
        power[s] = np.max(sample_power, axis=0)
    return power, passes


def test_shards_and_yields_match_the_naive_loop():
    x = design_batch(12)
    c_load = x[:, 14]
    nominal_power = np.full(x.shape[0], 1e-4)
    scenarios = expand_scenarios(SPEC)
    shards = [
        evaluate_shard(SPEC, [scenarios[i] for i in indices], x, shard_index=k)
        for k, indices in enumerate(plan_shards(SPEC))
    ]
    power = np.concatenate([shard.power for shard in shards])
    passes = np.concatenate([shard.passes for shard in shards])

    want_power, want_passes = naive_campaign(SPEC, x)
    # The family must exercise both outcomes, or equality proves little.
    assert want_passes.any() and not want_passes.all()
    np.testing.assert_array_equal(passes, want_passes)
    np.testing.assert_allclose(power, want_power, rtol=1e-12, atol=0.0)

    report = aggregate_report(
        shards,
        [s.key for s in scenarios],
        c_load,
        nominal_power,
        SPEC.n_mc,
        SPEC.yield_target,
    )
    want_yield = want_passes.all(axis=0).mean(axis=0)
    got_yield = np.array([d["yield"] for d in report["designs"]])
    np.testing.assert_array_equal(got_yield, want_yield)
    assert 0.0 < want_yield.max() and want_yield.min() < 1.0
    want_derated = np.maximum(want_power.max(axis=0), nominal_power)
    got_derated = np.array([d["derated_power"] for d in report["designs"]])
    np.testing.assert_allclose(got_derated, want_derated, rtol=1e-12, atol=0.0)
    assert report["n_yielding"] == int((want_yield >= SPEC.yield_target).sum())
