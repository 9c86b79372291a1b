"""Experiment driver: configure, run, and score the three algorithms.

This module is the single place benchmarks and examples go through to
run NSGA-II (the paper's "TPG"), SACGA and MESACGA on the integrator
sizing problem — so that scale (population, generations, Monte-Carlo
depth) is controlled uniformly.

Scale: the paper runs 800-1250 generations with circuit evaluation; the
benchmark default is a reduced scale that preserves every qualitative
relationship while finishing in seconds.  Set the environment variable
``REPRO_FULL=1`` (or pass ``Scale.full()``) to reproduce at paper scale.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.sizing_problem import C_LOAD_MAX, IntegratorSizingProblem
from repro.circuits.specs import IntegratorSpec
from repro.core.callbacks import ProgressCallback, WallClockTimeout
from repro.core.checkpoint import CheckpointCallback, load_checkpoint
from repro.core.kernels import kernel_call_counts
from repro.core.mesacga import MESACGA, PAPER_SCHEDULE
from repro.core.nsga2 import NSGA2
from repro.core.results import OptimizationResult
from repro.core.sacga import SACGA, SACGAConfig
from repro.experiments.ledger import LedgerCallback, RunLedger
from repro.obs.exporters import (
    save_metrics_csv,
    save_profile,
    save_prometheus,
    save_telemetry_csv,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TelemetryCallback
from repro.metrics.hypervolume import hypervolume_paper
from repro.metrics.diversity import range_coverage, cluster_fraction
from repro.utils.rng import stable_seed

#: Scale objective values into the paper's reporting units
#: (0.1 mW for power, 1 pF for the load-capacitance deficit).
PAPER_HV_SCALE = (1.0e-4, 1.0e-12)


@dataclass(frozen=True)
class Scale:
    """Experiment size knobs shared by all benchmarks.

    ``generations`` here corresponds to the paper's canonical 800-
    iteration runs; individual experiments derive their own budgets from
    it (e.g. Fig 6 uses ``1.5x``).  At the reduced scale the MESACGA
    partition schedule is shrunk proportionally (see
    :func:`default_partition_schedule`), because 20 partitions over a
    sub-100 population leave fewer than 5 members per slice.
    """

    population: int = 80
    generations: int = 200
    n_mc: int = 6
    n_seeds: int = 1
    label: str = "reduced"

    @classmethod
    def full(cls) -> "Scale":
        return cls(population=200, generations=800, n_mc=12, n_seeds=3, label="full")

    @classmethod
    def from_env(cls) -> "Scale":
        if os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes"):
            return cls.full()
        return cls()

    def scaled_generations(self, factor: float) -> int:
        """An iteration budget proportional to the canonical 800-iteration run."""
        return max(10, int(round(self.generations * factor)))


def make_problem(
    spec: Optional[IntegratorSpec] = None,
    scale: Optional[Scale] = None,
    use_corners: bool = True,
    mc_seed: int = 2005,
) -> IntegratorSizingProblem:
    """The sizing problem at the given scale's Monte-Carlo depth.

    *use_corners* / *mc_seed* forward to the problem's robustness
    constraint (evaluate across process corners; common-random-number
    Monte-Carlo seed); the defaults are the problem's own defaults, so
    existing callers are byte-compatible.
    """
    scale = scale or Scale.from_env()
    return IntegratorSizingProblem(
        spec=spec, n_mc=scale.n_mc, use_corners=use_corners, mc_seed=mc_seed
    )


def default_phase1_cap(generations: int) -> int:
    """Pure-local Phase-I budget scaled like the paper's 200-of-1250."""
    return max(10, generations // 5)


def default_partition_schedule(scale: Scale) -> Sequence[int]:
    """MESACGA schedule: the paper's at full scale, shrunk when reduced."""
    if scale.population >= 150:
        return PAPER_SCHEDULE
    return (10, 6, 4, 2, 1)


def make_algorithm(
    name: str,
    problem: IntegratorSizingProblem,
    scale: Scale,
    seed: int,
    n_partitions: int = 8,
    partition_schedule: Optional[Sequence[int]] = None,
    config: Optional[SACGAConfig] = None,
    generations: Optional[int] = None,
    metrics=None,
    tracer=None,
):
    """Factory for the three compared algorithms.

    *name* is one of ``"tpg"`` (NSGA-II, the paper's Traditional Purely
    Global baseline), ``"sacga"`` or ``"mesacga"``.  When *config* is not
    given, the Phase-I cap is derived from the generation budget so that
    reduced-scale runs keep the paper's phase proportions.
    *metrics* / *tracer* (a :class:`repro.obs.MetricsRegistry` /
    :class:`repro.obs.SpanTracer`) enable instrumentation; ``None`` keeps
    the no-op defaults.
    """
    key = name.strip().lower()
    gens = generations if generations is not None else scale.generations
    if config is None:
        config = SACGAConfig(phase1_max_iterations=default_phase1_cap(gens))
    if key in ("tpg", "nsga2", "nsga-ii"):
        return NSGA2(
            problem,
            population_size=scale.population,
            seed=seed,
            metrics=metrics,
            tracer=tracer,
        )
    if key == "sacga":
        grid = problem.partition_grid(n_partitions)
        return SACGA(
            problem,
            grid,
            population_size=scale.population,
            seed=seed,
            config=config,
            metrics=metrics,
            tracer=tracer,
        )
    if key == "mesacga":
        return MESACGA(
            problem,
            axis=1,
            low=0.0,
            high=C_LOAD_MAX,
            partition_schedule=partition_schedule or default_partition_schedule(scale),
            population_size=scale.population,
            seed=seed,
            config=config,
            metrics=metrics,
            tracer=tracer,
        )
    raise KeyError(f"unknown algorithm {name!r} (want tpg / sacga / mesacga)")


@dataclass
class RunSummary:
    """Scores of one optimizer run on the sizing problem."""

    algorithm: str
    seed: int
    hv_paper: float
    coverage: float
    cluster_4_5pF: float
    front_size: int
    wall_time: float
    n_evaluations: int
    result: Optional[OptimizationResult] = field(repr=False, default=None)
    #: Populated only when run_one(metrics=...) enabled instrumentation.
    metrics: Optional[Any] = field(repr=False, default=None)
    tracer: Optional[Any] = field(repr=False, default=None)
    telemetry: Optional[List[Any]] = field(repr=False, default=None)
    profile: Optional[List[Dict[str, Any]]] = field(repr=False, default=None)
    metrics_paths: Optional[Dict[str, str]] = field(repr=False, default=None)


def score_front(front: np.ndarray) -> Dict[str, float]:
    """Paper-HV (0.1 mW x pF units), range coverage, and cluster fraction."""
    if front.shape[0] == 0:
        return {"hv_paper": float("inf"), "coverage": 0.0, "cluster_4_5pF": 0.0}
    return {
        "hv_paper": hypervolume_paper(front, scale=PAPER_HV_SCALE),
        "coverage": range_coverage(front, axis=1, low=0.0, high=C_LOAD_MAX),
        "cluster_4_5pF": cluster_fraction(front, axis=1, low=0.0, high=1.0e-12),
    }


def _as_ledger(ledger: Union[None, str, RunLedger]) -> Optional[RunLedger]:
    if ledger is None or isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)


def run_one(
    name: str,
    experiment_id: str,
    scale: Optional[Scale] = None,
    generations: Optional[int] = None,
    spec: Optional[IntegratorSpec] = None,
    seed_index: int = 0,
    problem: Optional[IntegratorSizingProblem] = None,
    use_corners: bool = True,
    mc_seed: int = 2005,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 10,
    resume_from: Union[None, str, Dict[str, Any]] = None,
    ledger: Union[None, str, RunLedger] = None,
    ledger_every: int = 1,
    timeout_s: Optional[float] = None,
    callbacks: Sequence[ProgressCallback] = (),
    metrics: Union[None, bool, MetricsRegistry] = None,
    metrics_out: Optional[str] = None,
    **algo_kwargs,
) -> RunSummary:
    """Run one algorithm once and score its front.

    Seeds are derived deterministically from ``(experiment_id, name,
    seed_index)`` so benchmarks are reproducible run to run.

    Robustness knobs:

    * *checkpoint_path* + *checkpoint_every*: persist a crash-safe
      checkpoint every K generations.  The payload embeds a ``context``
      describing this call, so ``repro resume <ckpt>`` can rebuild the
      run without the original command line.
    * *resume_from*: checkpoint path (or loaded payload) to continue
      from; the resumed result is byte-identical to an uninterrupted run.
    * *ledger* (+ *ledger_every*): a :class:`RunLedger` or path that
      receives run_started / generation / checkpoint / run_finished /
      run_failed events.
    * *timeout_s*: cooperative wall-clock limit — the run raises
      :class:`~repro.core.callbacks.RunTimeoutError` at the first
      generation boundary past the budget.
    * *callbacks*: extra progress callbacks appended after the built-ins.

    Observability knobs:

    * *metrics*: ``True`` (or a :class:`repro.obs.MetricsRegistry` to
      reuse one across runs) turns on the metrics registry, timing spans
      and the per-generation telemetry callback.  ``False``/``None``
      keeps the no-op path (also enabled implicitly by *metrics_out*).
      Instrumentation is read-only: the optimization trajectory is
      byte-identical with it on or off.
    * *metrics_out*: path prefix; on completion writes
      ``<prefix>.prom`` (Prometheus text exposition),
      ``<prefix>.metrics.csv`` (tidy metric samples),
      ``<prefix>.telemetry.csv`` (per-generation series) and
      ``<prefix>.profile.json`` (the span tree).  Paths land in
      ``RunSummary.metrics_paths``.
    """
    scale = scale or Scale.from_env()
    problem = problem or make_problem(
        spec, scale, use_corners=use_corners, mc_seed=mc_seed
    )
    seed = stable_seed(experiment_id, name, seed_index)
    gens = generations if generations is not None else scale.generations
    run_id = f"{experiment_id}/{name}/seed{seed_index}"
    run_ledger = _as_ledger(ledger)
    if isinstance(metrics, MetricsRegistry):
        registry = metrics
    elif metrics or metrics_out is not None:
        registry = MetricsRegistry()
    else:
        registry = None
    tracer = SpanTracer() if registry is not None else None
    algorithm = make_algorithm(
        name, problem, scale, seed, generations=gens,
        metrics=registry, tracer=tracer, **algo_kwargs,
    )
    telemetry = None
    if registry is not None:
        telemetry = TelemetryCallback(
            algorithm, registry, kernel_counts=kernel_call_counts
        )
        # Attached before the ledger callback so the ledger's extras_fn
        # sees this generation's sample, not the previous one's.
        algorithm.add_callback(telemetry)
    if run_ledger is not None:
        algorithm.add_callback(
            LedgerCallback(
                run_ledger,
                algorithm,
                run_id=run_id,
                every=ledger_every,
                extras_fn=(
                    (lambda: telemetry.last_sample) if telemetry is not None else None
                ),
            )
        )
    if checkpoint_path is not None:
        # The context makes the checkpoint self-contained: `repro resume`
        # rebuilds this exact run_one call from it.  (It is pickled, not
        # JSON-serialized, so algo_kwargs may hold config objects.)
        context = {
            "name": name,
            "experiment_id": experiment_id,
            "seed_index": seed_index,
            "scale": asdict(scale),
            "generations": gens,
            "use_corners": use_corners,
            "mc_seed": mc_seed,
            "checkpoint_every": checkpoint_every,
            "algo_kwargs": dict(algo_kwargs),
        }
        algorithm.add_callback(
            CheckpointCallback(
                algorithm,
                checkpoint_path,
                every=checkpoint_every,
                context=context,
                ledger=run_ledger,
                run_id=run_id,
            )
        )
    if timeout_s is not None:
        algorithm.add_callback(WallClockTimeout(timeout_s))
    for callback in callbacks:
        algorithm.add_callback(callback)

    if run_ledger is not None:
        run_ledger.emit(
            "run_started",
            run=run_id,
            algorithm=algorithm.algorithm_name,
            seed=seed,
            generations=gens,
            scale=scale.label,
            backend=algorithm.backend.describe(),
            resumed=resume_from is not None,
        )
    try:
        result = algorithm.run(gens, resume_from=resume_from)
    except BaseException as exc:
        if run_ledger is not None:
            run_ledger.emit(
                "run_failed",
                run=run_id,
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    scores = score_front(result.front_objectives)
    if run_ledger is not None:
        run_ledger.emit(
            "run_finished",
            run=run_id,
            wall_time=result.wall_time,
            n_evaluations=result.n_evaluations,
            front_size=result.front_size,
            hv_paper=scores["hv_paper"],
            coverage=scores["coverage"],
            backend_stats=algorithm.backend.stats.as_dict(),
        )
    metrics_paths = None
    if metrics_out is not None and registry is not None:
        metrics_paths = {
            "prometheus": str(save_prometheus(registry, f"{metrics_out}.prom")),
            "metrics_csv": str(
                save_metrics_csv(registry, f"{metrics_out}.metrics.csv")
            ),
            "telemetry_csv": str(
                save_telemetry_csv(telemetry.samples, f"{metrics_out}.telemetry.csv")
            ),
            "profile": str(
                save_profile(tracer.profile(), f"{metrics_out}.profile.json")
            ),
        }
    return RunSummary(
        algorithm=result.algorithm,
        seed=seed,
        hv_paper=scores["hv_paper"],
        coverage=scores["coverage"],
        cluster_4_5pF=scores["cluster_4_5pF"],
        front_size=result.front_size,
        wall_time=result.wall_time,
        n_evaluations=result.n_evaluations,
        result=result,
        metrics=registry,
        tracer=tracer,
        telemetry=(telemetry.samples if telemetry is not None else None),
        profile=(tracer.profile() if tracer is not None else None),
        metrics_paths=metrics_paths,
    )


def resume_run(
    checkpoint_path: str,
    ledger: Union[None, str, RunLedger] = None,
    timeout_s: Optional[float] = None,
    metrics: Union[None, bool, MetricsRegistry] = None,
    metrics_out: Optional[str] = None,
    callbacks: Sequence[ProgressCallback] = (),
) -> RunSummary:
    """Resume a crashed ``run_one`` from its checkpoint file.

    The checkpoint must have been written by :func:`run_one` (its
    ``context`` records how to rebuild the run); checkpoints written by a
    bare :class:`CheckpointCallback` lack that context and must be
    resumed through ``BaseOptimizer.run(resume_from=...)`` directly.
    Checkpointing continues to the same file.  *callbacks* are appended
    to the resumed run exactly as in :func:`run_one` — the service-layer
    workers use this to keep cancellation cooperative across a resume.
    Contexts written before the evaluation-backend and kernel options
    were removed still hold ``backend``/``workers``/``cache_size``/
    ``kernel`` keys; they are ignored.
    """
    payload = load_checkpoint(checkpoint_path)
    context = payload.get("context")
    if not isinstance(context, dict):
        raise ValueError(
            f"{checkpoint_path}: no runner context in checkpoint — resume it "
            "via BaseOptimizer.run(resume_from=...) on a hand-built optimizer"
        )
    scale = Scale(**context["scale"])
    return run_one(
        context["name"],
        context["experiment_id"],
        scale=scale,
        generations=context["generations"],
        seed_index=context["seed_index"],
        use_corners=context.get("use_corners", True),
        mc_seed=context.get("mc_seed", 2005),
        checkpoint_path=checkpoint_path,
        checkpoint_every=context.get("checkpoint_every", 10),
        resume_from=payload,
        ledger=ledger,
        timeout_s=timeout_s,
        callbacks=callbacks,
        metrics=metrics,
        metrics_out=metrics_out,
        **context.get("algo_kwargs", {}),
    )


def run_many(
    name: str,
    experiment_id: str,
    scale: Optional[Scale] = None,
    retries: int = 0,
    skip_failures: bool = False,
    ledger: Union[None, str, RunLedger] = None,
    **kwargs,
) -> List[RunSummary]:
    """Run an algorithm over the scale's seed count, fault-tolerantly.

    A seed that raises (crash, or :class:`RunTimeoutError` when
    ``timeout_s`` is forwarded to :func:`run_one`) is retried up to
    *retries* times; when retries are exhausted the seed is abandoned —
    logged to the *ledger* as ``seed_abandoned`` — and the sweep moves on
    to the remaining seeds.  With the defaults (``retries=0,
    skip_failures=False``) the historical behavior is kept: the first
    failure propagates.

    Returns the summaries of the seeds that succeeded.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    scale = scale or Scale.from_env()
    run_ledger = _as_ledger(ledger)
    tolerant = retries > 0 or skip_failures
    if run_ledger is not None:
        run_ledger.emit(
            "sweep_started",
            algorithm=name,
            experiment_id=experiment_id,
            n_seeds=scale.n_seeds,
            scale=scale.label,
            retries=retries,
        )
    summaries: List[RunSummary] = []
    n_abandoned = 0
    for i in range(scale.n_seeds):
        attempt = 0
        while True:
            try:
                summaries.append(
                    run_one(
                        name,
                        experiment_id,
                        scale=scale,
                        seed_index=i,
                        ledger=run_ledger,
                        **kwargs,
                    )
                )
                break
            except Exception as exc:
                # run_one already emitted run_failed for this attempt.
                if attempt < retries:
                    attempt += 1
                    if run_ledger is not None:
                        run_ledger.emit(
                            "retry",
                            run=f"{experiment_id}/{name}/seed{i}",
                            attempt=attempt,
                            max_retries=retries,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    continue
                if tolerant:
                    n_abandoned += 1
                    if run_ledger is not None:
                        run_ledger.emit(
                            "seed_abandoned",
                            run=f"{experiment_id}/{name}/seed{i}",
                            attempts=attempt + 1,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    break
                raise
    if run_ledger is not None:
        run_ledger.emit(
            "sweep_finished",
            algorithm=name,
            experiment_id=experiment_id,
            n_succeeded=len(summaries),
            n_abandoned=n_abandoned,
        )
    return summaries


def median_hv(summaries: Sequence[RunSummary]) -> float:
    finite = [s.hv_paper for s in summaries if np.isfinite(s.hv_paper)]
    if not finite:
        return float("inf")
    return float(np.median(finite))
