"""The declarative scenario grid a campaign sweeps.

A campaign re-evaluates a set of designs under *scenarios*.  One
scenario is a (process corner, operating condition) pair; within each
scenario the design is additionally subjected to the campaign's
Monte-Carlo process/mismatch sample set (common random numbers — every
scenario, shard and worker sees the *same* disturbance draws, which is
what makes per-sample AND-aggregation across scenarios meaningful).

The grid is declared as a :class:`CampaignSpec` and expanded in a fixed,
deterministic order (corners outer, conditions inner).  A shard plan is
computed once, when a campaign is created, and stored in its manifest,
so a campaign always resumes on the plan it was created with.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.circuits.technology import (
    CORNERS,
    ROOM_TEMPERATURE,
    Technology,
    corner_technology,
    nominal_technology,
)

__all__ = [
    "CampaignSpec",
    "NOMINAL_CONDITION",
    "OperatingCondition",
    "Scenario",
    "expand_scenarios",
    "plan_shards",
    "scenario_technology",
]


@dataclass(frozen=True)
class OperatingCondition:
    """A supply/temperature operating point (derating hook).

    ``vdd_scale`` multiplies the technology card's nominal supply
    (e.g. 1.05 for a +5 % supply corner — power scales with it) and
    ``temperature`` replaces the card's temperature (kT drives the
    noise floor and thereby dynamic range).
    """

    name: str = "nom"
    vdd_scale: float = 1.0
    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operating condition needs a non-empty name")
        if not (0.0 < self.vdd_scale < 10.0):
            raise ValueError(
                f"vdd_scale must be in (0, 10), got {self.vdd_scale}"
            )
        if self.temperature <= 0.0:
            raise ValueError(
                f"temperature must be > 0 K, got {self.temperature}"
            )


NOMINAL_CONDITION = OperatingCondition()


@dataclass(frozen=True)
class Scenario:
    """One concrete grid point: a corner under an operating condition."""

    corner: str
    condition: OperatingCondition

    @property
    def key(self) -> str:
        """Stable identifier used in shard files and reports."""
        return f"{self.corner}@{self.condition.name}"


def scenario_technology(scenario: Scenario, base: Technology = None) -> Technology:
    """The technology card a scenario evaluates under."""
    if base is None:
        base = nominal_technology()
    tech = corner_technology(scenario.corner, base)
    cond = scenario.condition
    return replace(
        tech,
        name=f"{tech.name}@{cond.name}",
        vdd=base.vdd * cond.vdd_scale,
        temperature=cond.temperature,
    )


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a robustness campaign.

    The scenario grid is ``corners x conditions``; each scenario is
    evaluated at ``n_mc`` Monte-Carlo process/mismatch samples drawn
    with common random numbers from ``mc_seed``.  ``yield_target``
    filters the derated surface: a design survives only if the fraction
    of MC samples passing spec in *every* scenario is at least the
    target.  ``shard_scenarios`` bounds how many distinct op-amp cards
    (a corner under one ``vdd_scale``) one shard analyses; a shard is the
    unit of durable/parallel execution.  The scenarios that differ from
    one another only in temperature share one op-amp card, so they
    always land in the same shard (see :func:`plan_shards`).
    """

    corners: Tuple[str, ...] = CORNERS
    n_mc: int = 8
    mc_seed: int = 2005
    sigma_mu: float = 0.05
    sigma_vt: float = 0.015
    conditions: Tuple[OperatingCondition, ...] = (NOMINAL_CONDITION,)
    yield_target: float = 0.9
    shard_scenarios: int = 2

    def __post_init__(self) -> None:
        corners = tuple(str(c).upper() for c in self.corners)
        if not corners:
            raise ValueError("campaign needs at least one corner")
        unknown = [c for c in corners if c not in CORNERS]
        if unknown:
            raise ValueError(
                f"unknown corners {unknown}; known: {list(CORNERS)}"
            )
        if len(set(corners)) != len(corners):
            raise ValueError(f"duplicate corners in {corners}")
        object.__setattr__(self, "corners", corners)
        conditions = tuple(self.conditions)
        if not conditions:
            raise ValueError("campaign needs at least one operating condition")
        names = [c.name for c in conditions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operating-condition names in {names}")
        object.__setattr__(self, "conditions", conditions)
        if self.n_mc < 1:
            raise ValueError(f"n_mc must be >= 1, got {self.n_mc}")
        if not (0.0 <= self.yield_target <= 1.0):
            raise ValueError(
                f"yield_target must be in [0, 1], got {self.yield_target}"
            )
        if self.shard_scenarios < 1:
            raise ValueError(
                f"shard_scenarios must be >= 1, got {self.shard_scenarios}"
            )

    # ---------------------------------------------------------------- io

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["corners"] = list(self.corners)
        out["conditions"] = [asdict(c) for c in self.conditions]
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        payload = dict(payload or {})
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(
                f"unknown campaign spec fields {unknown} "
                f"(allowed: {sorted(cls.__dataclass_fields__)})"
            )
        kwargs: Dict[str, Any] = {}
        if "corners" in payload:
            kwargs["corners"] = tuple(payload["corners"])
        if "conditions" in payload:
            conditions = []
            for item in payload["conditions"]:
                if isinstance(item, OperatingCondition):
                    conditions.append(item)
                else:
                    conditions.append(OperatingCondition(**item))
            kwargs["conditions"] = tuple(conditions)
        for key in (
            "n_mc", "mc_seed", "shard_scenarios",
        ):
            if key in payload:
                kwargs[key] = int(payload[key])
        for key in ("sigma_mu", "sigma_vt", "yield_target"):
            if key in payload:
                kwargs[key] = float(payload[key])
        return cls(**kwargs)


def expand_scenarios(spec: CampaignSpec) -> List[Scenario]:
    """The grid in its canonical order (corners outer, conditions inner)."""
    return [
        Scenario(corner=corner, condition=condition)
        for corner in spec.corners
        for condition in spec.conditions
    ]


def plan_shards(spec: CampaignSpec) -> List[List[int]]:
    """Scenario indices per shard, each shard at most ``shard_scenarios``
    op-amp cards.

    An op-amp card is a corner under one ``vdd_scale``.  Its scenarios
    (the temperature variants of one supply) share one op-amp analysis
    in :func:`~repro.circuits.integrator.analyze_integrator`, so they
    always share a shard, even where the condition order puts them
    apart.  Cards are chunked in order of first appearance in the grid,
    and a shard lists its scenarios in grid order.  A grid without
    temperature variants is chunked into contiguous runs of
    ``shard_scenarios`` scenarios.
    """
    cards: Dict[Tuple[str, float], List[int]] = {}
    for i, scenario in enumerate(expand_scenarios(spec)):
        card = (scenario.corner, scenario.condition.vdd_scale)
        cards.setdefault(card, []).append(i)
    groups = list(cards.values())
    size = spec.shard_scenarios
    return [
        sorted(i for group in groups[start : start + size] for i in group)
        for start in range(0, len(groups), size)
    ]
