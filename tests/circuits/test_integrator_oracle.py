"""The one-pass ``analyze_integrator`` against the two-pass oracle.

Every :class:`~repro.circuits.integrator.IntegratorPerformance` field and
every ``amp`` field (per-device dicts included) must match the oracle
byte for byte -- shape, dtype and IEEE-754 bits -- on every card the
sizing problem and the campaign analyse: nominal, the 4-corner stack,
Monte-Carlo stacks, campaign scenario cards with a scaled supply and a
raised temperature, one stacked card of several scenarios, and stacks
whose rows repeat op-amp cards (temperature variants, which share one
op-amp analysis, and supply variants, which share M3's bias solve).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.scenarios import OperatingCondition, Scenario, scenario_technology
from repro.circuits.integrator import OPAMP_CARD_FIELDS, analyze_integrator
from repro.circuits.mosfet import MosfetModel
from repro.circuits.opamp import analyze_opamp
from repro.circuits.sizing_problem import _LOWER, _UPPER, IntegratorSizingProblem
from repro.circuits.specs import published_spec
from repro.circuits.technology import CORNERS, corner_technology, nominal_technology
from repro.circuits.yield_est import MonteCarloSampler, stacked_technology

from tests.circuits.reference_integrator import (
    analyze_integrator_two_pass,
    opamp_arrays,
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


#: nom/hot/cold share one op-amp card per sample, lowvdd has its own;
#: all four share M3's bias solve (the PMOS card).
REPEATED_CONDITIONS = [
    OperatingCondition("nom"),
    HOT,
    OperatingCondition("cold", temperature=233.0),
    LOWVDD,
]


def _shard_card():
    sampler = MonteCarloSampler(n_samples=3, seed=7)
    return stacked_technology([
        card for s in SHARD_SCENARIOS for card in sampler.cards(scenario_technology(s, BASE))
    ])


def repeated_cards(corners):
    """Per-row cards of a stack that repeats op-amp cards.  With one
    corner the rows are scenario-major, as in a campaign shard; with
    several, the corners interleave within each condition."""
    sampler = MonteCarloSampler(n_samples=3, seed=7)
    return [
        card
        for condition in REPEATED_CONDITIONS
        for corner in corners
        for card in sampler.cards(scenario_technology(Scenario(corner, condition), BASE))
    ]


REPEATED = {
    "repeated-one-corner": lambda: repeated_cards(["SS"]),
    "repeated-two-corners": lambda: repeated_cards(["FS", "SF"]),
}

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
    **{name: (lambda cards=cards: stacked_technology(cards())) for name, cards in REPEATED.items()},
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


@pytest.mark.parametrize("card", sorted(REPEATED))
def test_repeated_cards_match_the_oracle_row_by_row(card):
    """Row i of a stack that repeats op-amp cards is the oracle's
    analysis under card i alone."""
    cards = REPEATED[card]()
    design = IntegratorSizingProblem.build_design(designs(7, False))
    eps = published_spec().se_max / 2.0
    got = performance_arrays(
        analyze_integrator(stacked_technology(cards), design, settle_epsilon=eps)
    )
    for i, tech in enumerate(cards):
        want = performance_arrays(analyze_integrator_two_pass(tech, design, settle_epsilon=eps))
        for name, arr in want.items():
            row = got[name][i] if got[name].ndim == 2 else got[name]
            assert row.tobytes() == arr.tobytes(), (i, name)


def _key_rows(tech, keys):
    """The values of the dotted stacked fields *keys*, one tuple per row."""
    columns = []
    for key in keys:
        kind, _, field = key.rpartition(".")
        owner = getattr(tech, kind) if kind else tech
        columns.append(np.broadcast_to(getattr(owner, field), (np.shape(tech.vdd)[0], 1)))
    return [tuple(row) for row in np.hstack(columns)]


def _distinct(rows):
    return list(dict.fromkeys(rows))


M3_FIELDS = ("pmos.u0", "pmos.vt0")
SHARING = {
    # card: (rows, op-amp rows analysed, M3 rows solved)
    "repeated-one-corner": (12, 6, 3),
    "repeated-two-corners": (24, 12, 6),
    "corners": (4, 4, 2),
    "mc6": (6, 6, 6),
}


@pytest.mark.parametrize("card", sorted(SHARING))
def test_analyze_opamp_sees_only_distinct_rows(card, monkeypatch):
    """The op-amp analysis runs once, on the rows that differ in some
    stacked field but temperature, in order of first appearance; M3's
    three bias solves run on the rows that differ in the PMOS card."""
    import repro.circuits.integrator as integrator

    opamp_techs, m3_devices = [], []

    def recording_opamp(tech, *args, **kwargs):
        opamp_techs.append(tech)
        return analyze_opamp(tech, *args, **kwargs)

    solve = MosfetModel.vgs_for_current

    def recording_solve(model, w, *args, **kwargs):
        if w is design.opamp.w3:
            m3_devices.append(model.dev)
        return solve(model, w, *args, **kwargs)

    monkeypatch.setattr(integrator, "analyze_opamp", recording_opamp)
    monkeypatch.setattr(MosfetModel, "vgs_for_current", recording_solve)
    tech = CARDS[card]()
    design = IntegratorSizingProblem.build_design(designs(7, True))
    perf = analyze_integrator(tech, design)

    n_rows, n_opamp, n_m3 = SHARING[card]
    (analysed,) = opamp_techs
    want = _distinct(_key_rows(tech, OPAMP_CARD_FIELDS))
    assert len(want) == n_opamp
    assert _key_rows(analysed, OPAMP_CARD_FIELDS) == want
    assert perf.amp.gm1.shape == perf.power.shape == (n_rows, 7)

    assert len(m3_devices) == 3
    want_m3 = _distinct(_key_rows(tech, M3_FIELDS))
    assert len(want_m3) == n_m3
    for dev in m3_devices:
        solved = [tuple(row) for row in np.hstack([dev.u0, dev.vt0])]
        assert solved == want_m3


@st.composite
def temperature_twins(draw):
    """Two scenario cards that differ only in temperature, and designs."""
    corner = draw(st.sampled_from(CORNERS))
    vdd_scale = draw(st.floats(0.8, 1.1))
    t1, t2 = draw(st.lists(st.floats(200.0, 420.0), min_size=2, max_size=2, unique=True))
    cards = [
        scenario_technology(Scenario(corner, OperatingCondition("t", vdd_scale, t)), BASE)
        for t in (t1, t2)
    ]
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=15, max_size=15))
    x = _LOWER + np.asarray([fractions]) * (_UPPER - _LOWER)
    return cards, x


@given(temperature_twins())
@settings(max_examples=40, deadline=None)
def test_opamp_analysis_ignores_temperature(twins):
    """Rows that differ only in temperature share one op-amp analysis
    (``OPAMP_CARD_FIELDS`` leaves temperature out).  That holds only
    while ``analyze_opamp`` reads no temperature: if this fails, add
    ``temperature`` back to ``OPAMP_CARD_FIELDS``."""
    (cool, warm), x = twins
    design = IntegratorSizingProblem.build_design(x)
    load = design.c_load + design.cf
    a = opamp_arrays(analyze_opamp(cool, design.opamp, load))
    b = opamp_arrays(analyze_opamp(warm, design.opamp, load))
    assert sorted(a) == sorted(b)
    for name, arr in a.items():
        assert arr.tobytes() == b[name].tobytes(), name
