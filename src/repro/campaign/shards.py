"""Shard evaluation: a scenario batch as a vectorized Problem.

A shard evaluates all campaign designs under a contiguous slice of the
scenario grid.  The evaluation is expressed as a
:class:`~repro.problems.base.Problem` so it inherits the batched
``evaluate_batch`` contract and goes through the same
:class:`~repro.core.evaluation.EvaluationBackend` as the optimizers.
Parallelism comes from running shards as durable jobs on several
``repro workers`` processes.

Within one scenario the ``stacked_technology`` trick packs all ``n_mc``
Monte-Carlo process samples into a single card, so one
``analyze_integrator`` call covers ``(samples x designs)``.  The per-
scenario result — worst-sample power plus one pass bit per (sample,
design) — is packed into the objective matrix as float columns::

    objectives[:, s*(1+m) + 0]      worst-sample power under scenario s
    objectives[:, s*(1+m) + 1+j]    pass bit of MC sample j (0.0 / 1.0)

Shard results are persisted as JSON files written atomically (temp +
``os.replace``), so a worker killed mid-write can never leave a torn
shard — the file either exists and is complete, or does not exist and
the shard re-runs deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.scenarios import CampaignSpec, Scenario, scenario_technology
from repro.circuits.integrator import analyze_integrator
from repro.circuits.sizing_problem import (
    _LOWER,
    _UPPER,
    IntegratorSizingProblem,
    PARAMETER_NAMES,
    spec_pass_matrix,
)
from repro.circuits.specs import IntegratorSpec, published_spec
from repro.circuits.technology import nominal_technology
from repro.circuits.yield_est import MonteCarloSampler
from repro.core.evaluation import EvaluationBackend
from repro.problems.base import Problem

PathLike = Union[str, Path]

__all__ = [
    "CampaignShardProblem",
    "ShardResult",
    "evaluate_shard",
    "read_shard",
    "write_shard",
]


class CampaignShardProblem(Problem):
    """Robustness evaluation of designs under a slice of the scenario grid.

    Objectives pack, per scenario, the worst-sample power followed by one
    pass bit per Monte-Carlo sample (see module docstring); there are no
    constraints.  The pass/fail semantics are
    :func:`~repro.circuits.sizing_problem.spec_pass_matrix` — the same
    predicate the sizing problem's robustness constraint uses.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        scenarios: Sequence[Scenario],
        integrator_spec: Optional[IntegratorSpec] = None,
    ) -> None:
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("a shard needs at least one scenario")
        self.campaign_spec = spec
        self.scenarios = scenarios
        self.integrator_spec = integrator_spec or published_spec()
        super().__init__(
            n_var=len(PARAMETER_NAMES),
            n_obj=len(scenarios) * (1 + spec.n_mc),
            n_con=0,
            lower=_LOWER,
            upper=_UPPER,
            name=f"CampaignShard[{len(scenarios)}x{spec.n_mc}mc]",
        )
        self.sampler = MonteCarloSampler(
            n_samples=spec.n_mc,
            sigma_mu=spec.sigma_mu,
            sigma_vt=spec.sigma_vt,
            seed=spec.mc_seed,
        )
        base = nominal_technology()
        self._scenario_techs = [
            scenario_technology(s, base) for s in scenarios
        ]
        # One stacked (n_mc, 1) card per scenario: a single analysis call
        # then covers every (sample, design) pair of that scenario.
        self._stacked_techs = [
            self.sampler.stacked(tech) for tech in self._scenario_techs
        ]

    def _evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p = IntegratorSizingProblem.decode(x)
        design = IntegratorSizingProblem._design_from_params(p)
        ispec = self.integrator_spec
        eps = ispec.se_max / 2.0
        cols: List[np.ndarray] = []
        n = np.atleast_2d(x).shape[0]
        for tech, stacked in zip(self._scenario_techs, self._stacked_techs):
            perf = analyze_integrator(stacked, design, settle_epsilon=eps)
            mismatch = self.sampler.mismatch_offsets(
                tech.nmos.a_vt, p["w1"], p["l1"]
            )
            passes = spec_pass_matrix(ispec, perf, offset_extra=mismatch)
            passes = np.broadcast_to(
                np.atleast_2d(passes), (self.campaign_spec.n_mc, n)
            )
            power = np.asarray(perf.power, dtype=float)
            if power.ndim > 1:
                power = power.max(axis=0)
            power = np.broadcast_to(power, (n,))
            cols.append(power)
            cols.extend(passes.astype(float))
        objectives = np.column_stack(cols)
        return objectives, np.zeros((n, 0))


def unpack_objectives(
    objectives: np.ndarray, n_scenarios: int, n_mc: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split packed shard objectives into ``(power, passes)``.

    Returns ``power`` of shape ``(n_scenarios, n_designs)`` and boolean
    ``passes`` of shape ``(n_scenarios, n_mc, n_designs)``.
    """
    obj = np.atleast_2d(np.asarray(objectives, dtype=float))
    width = 1 + n_mc
    if obj.shape[1] != n_scenarios * width:
        raise ValueError(
            f"objective width {obj.shape[1]} does not match "
            f"{n_scenarios} scenarios x (1 + {n_mc}) columns"
        )
    power = np.empty((n_scenarios, obj.shape[0]))
    passes = np.empty((n_scenarios, n_mc, obj.shape[0]), dtype=bool)
    for s in range(n_scenarios):
        off = s * width
        power[s] = obj[:, off]
        passes[s] = obj[:, off + 1 : off + width].T > 0.5
    return power, passes


@dataclass
class ShardResult:
    """One shard's contribution to the campaign: pass bits and powers."""

    shard_index: int
    scenario_keys: List[str]
    n_mc: int
    #: (n_scenarios, n_designs) worst-sample power per scenario.
    power: np.ndarray
    #: (n_scenarios, n_mc, n_designs) boolean pass matrix.
    passes: np.ndarray
    n_evaluations: int = 0

    @property
    def n_designs(self) -> int:
        return int(self.power.shape[1])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_index": int(self.shard_index),
            "scenario_keys": list(self.scenario_keys),
            "n_mc": int(self.n_mc),
            "power": self.power.tolist(),
            "passes": self.passes.astype(int).tolist(),
            "n_evaluations": int(self.n_evaluations),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardResult":
        power = np.asarray(payload["power"], dtype=float)
        passes = np.asarray(payload["passes"], dtype=int).astype(bool)
        if power.ndim != 2 or passes.ndim != 3:
            raise ValueError(
                f"malformed shard payload: power ndim {power.ndim}, "
                f"passes ndim {passes.ndim}"
            )
        return cls(
            shard_index=int(payload["shard_index"]),
            scenario_keys=[str(k) for k in payload["scenario_keys"]],
            n_mc=int(payload["n_mc"]),
            power=power,
            passes=passes,
            n_evaluations=int(payload.get("n_evaluations", 0)),
        )


def evaluate_shard(
    spec: CampaignSpec,
    scenarios: Sequence[Scenario],
    x: np.ndarray,
    shard_index: int = 0,
    integrator_spec: Optional[IntegratorSpec] = None,
) -> ShardResult:
    """Evaluate one shard of the campaign over the design batch *x*."""
    problem = CampaignShardProblem(
        spec, scenarios, integrator_spec=integrator_spec
    )
    evaluation = EvaluationBackend().evaluate(problem, np.atleast_2d(x))
    power, passes = unpack_objectives(
        evaluation.objectives, len(problem.scenarios), spec.n_mc
    )
    return ShardResult(
        shard_index=int(shard_index),
        scenario_keys=[s.key for s in problem.scenarios],
        n_mc=spec.n_mc,
        power=power,
        passes=passes,
        n_evaluations=evaluation.objectives.shape[0] * len(problem.scenarios),
    )


# -------------------------------------------------------------- shard files


def write_shard(path: PathLike, result: ShardResult) -> Path:
    """Atomically persist a shard result (write temp, fsync, replace).

    ``kill -9`` mid-write leaves at most a stale temp file — the shard
    path itself either holds a complete payload or nothing, which is the
    invariant shard-exact resume relies on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_shard(path: PathLike) -> Optional[ShardResult]:
    """Load a shard result; ``None`` when absent or unreadable.

    A corrupt file (impossible through :func:`write_shard`, but a disk
    can always betray you) counts as missing so the shard simply
    re-runs.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return ShardResult.from_dict(payload)
    except (OSError, ValueError, KeyError):
        return None
