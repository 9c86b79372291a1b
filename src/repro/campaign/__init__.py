"""Campaign engine: corner x mismatch robustness sweeps over evolved fronts.

The paper's deliverable is a *nominal* power-vs-C_load design surface,
yet its constraints are meant to hold "across all manufacturing process
corners".  This subsystem closes that gap: it takes an evolved front (a
registered :class:`~repro.serve.surfaces.SurfaceStore` surface, an
:class:`~repro.core.results.OptimizationResult`, or a checkpoint) and
re-evaluates every member design over a declarative scenario grid —
technology corners x Monte-Carlo process/mismatch samples x operating
conditions — producing decision-support artifacts: per-design pass/fail
matrices, yield estimates with Wilson confidence intervals, worst-case
derating, and a **derated design surface** registered alongside the
nominal one.

Layers:

* :mod:`repro.campaign.scenarios` — the declarative grid
  (:class:`CampaignSpec`, :class:`OperatingCondition`) and its expansion
  into concrete :class:`Scenario` technology cards.
* :mod:`repro.campaign.shards` — scenario-batch evaluation as a
  :class:`~repro.problems.base.Problem` plus atomic shard-result files.
* :mod:`repro.campaign.aggregate` — reduction of shard results into the
  campaign report (yields, Wilson intervals, derating).
* :mod:`repro.campaign.engine` — :class:`CampaignRunner`: inline
  execution, durable execution via the PR 8 job store, shard-exact
  resume, and derated-surface registration.
"""

from repro.campaign.aggregate import aggregate_report, wilson_interval
from repro.campaign.engine import CampaignRunner, UnknownCampaign
from repro.campaign.scenarios import (
    CampaignSpec,
    OperatingCondition,
    Scenario,
    scenario_technology,
)
from repro.campaign.shards import CampaignShardProblem, ShardResult, evaluate_shard

__all__ = [
    "CampaignRunner",
    "CampaignShardProblem",
    "CampaignSpec",
    "OperatingCondition",
    "Scenario",
    "ShardResult",
    "UnknownCampaign",
    "aggregate_report",
    "evaluate_shard",
    "scenario_technology",
    "wilson_interval",
]
