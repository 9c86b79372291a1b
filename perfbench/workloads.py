"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload builds its state in :meth:`setup`, runs one iteration on
fixed reference inputs in :meth:`reference` (this warms caches and lazy
set-up, and its output is compared with ``reference.json``), then runs
timed iterations on inputs generated from the ``--seed``.  Every iteration
checks its own outputs and counts the operations it attempted and the
ones that failed.

* ``explore`` -- the paper's workload: SACGA on the integrator at pop 80,
  ``n_mc=6``, corners on, serial backend, 30 generations, then
  ``SurfaceStore.register`` of the front.  Time goes to the circuit layers
  on 80-row arrays, where per-call numpy overhead dominates.
* ``campaign`` -- ``CampaignRunner.create`` + ``run_inline`` over 200
  designs sampled within the problem bounds: 5 corners x 3 operating
  conditions x 16 MC, with shard files, aggregation and derated-surface
  registration.  Same circuit code on arrays 16-48x wider, where
  arithmetic dominates.

Every workload serves its surfaces from an in-process ``ReproServer`` and
ends an iteration with the same burst of HTTP queries of the surface it
just registered, so ``query_ms_*`` is an HTTP round trip everywhere.  On
explore and campaign the burst comes after the timed part of the
iteration: it is not in their ``wall_s`` or ``job_s``.
* ``serve`` -- an in-process ``ReproServer`` with one in-process worker;
  one closed-loop ``ServeClient`` submits small SACGA jobs (pop 24,
  ``n_mc=2``, 20 generations, checkpoint/ledger/tracing/logging on), each
  registering its own surface, and follows each with a burst of HTTP
  queries.  Puts the job store, ledger, checkpoint, trace export and HTTP
  layers beside the circuit code.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.campaign import CampaignRunner, CampaignSpec, OperatingCondition
from repro.circuits.sizing_problem import C_LOAD_MAX, PARAMETER_NAMES
from repro.experiments.runner import Scale, make_problem, run_one, score_front
from repro.experiments.tradeoff import DesignSurface
from repro.obs.logging import configure_logging, disable_logging
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import TraceRecorder
from repro.serve import (
    JobManager,
    ReproServer,
    ServeApp,
    ServeClient,
    ServeError,
    SurfaceStore,
    WorkerLoop,
)

#: Seed of the reference iteration every run starts with.  Its outputs
#: are the quality guards: they are compared with ``reference.json`` and
#: reported as ``coverage``/``hv_paper``, so only a change to the code can
#: move them (fronts at this scale vary far more from seed to seed than
#: any usable bound).
REFERENCE_SEED = 0

EXPLORE_ID = "perfbench-explore"
EXPLORE_SCALE = Scale(population=80, n_mc=6, label="perfbench")
EXPLORE_GENERATIONS = 30

CAMPAIGN_DESIGNS = 200
CAMPAIGN_SPEC = CampaignSpec(
    n_mc=16,
    conditions=(
        OperatingCondition("nom"),
        OperatingCondition("hot", temperature=358.15),
        OperatingCondition("lowvdd", vdd_scale=0.9),
    ),
    # Random designs rarely meet spec; a zero target keeps every design
    # on the derated surface so that registration always happens.
    yield_target=0.0,
)
#: Report fields that must not change between runs of the same campaign
#: (id, trace id and surface version legitimately do).
CAMPAIGN_STABLE_KEYS = (
    "designs", "scenario_pass_rate", "n_designs", "n_scenarios", "n_mc",
    "n_evaluations", "yield_target", "n_yielding", "min_yield", "median_yield",
)

SERVE_JOB = {
    "algorithm": "sacga",
    "population": 24,
    "generations": 20,
    "n_mc": 2,
    "experiment_id": "perfbench-serve",
}
#: Job seed indices whose 20-generation jobs end with a non-empty front.
#: Index 8 ends with an empty front, registers no surface, and its queries
#: 404: the serve checks count that as failed operations.
SERVE_SEED_POOL = tuple(i for i in range(60) if i != 8)
#: Lease short enough that a ~3 s job heartbeats and flushes worker
#: metrics; the worker polls the queue (at ``repro workers``' default
#: interval) and the client polls the job at these intervals.
SERVE_LEASE_S = 3.0
SERVE_WORKER_POLL_S = 0.2
SERVE_CLIENT_POLL_S = 0.05
SERVE_JOB_TIMEOUT_S = 120.0

#: HTTP queries per iteration (one burst).  A burst of at least 1,000
#: puts ten or more samples beyond its 99th percentile.
HTTP_QUERIES = 1000
QUERY_GRID_F = 0.01e-12
#: Distinct loads a burst draws from, and the exponent of their
#: rank-frequency law (skewed, so the store's query cache sees both hits
#: and misses).
QUERY_SUPPORT = 100
QUERY_SKEW = 1.1


@dataclass
class Iteration:
    """One workload iteration: its timings, work and check results."""

    wall_s: float = 0.0
    job_s: float = 0.0
    n_evaluations: int = 0
    query_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def op(self, errors: List[str]) -> None:
        """Count one operation and, if any of its checks failed, a failure."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


def query_loads(rng: np.random.Generator, high: float, n: int) -> np.ndarray:
    """*n* load capacitances on a 0.01 pF grid over ``[0, high]``, drawn
    with rank-frequency skew over QUERY_SUPPORT grid points picked at
    random.  A fixed support keeps the share of repeated loads -- and so
    the query cache's hit ratio -- the same whatever the surface's range."""
    high = max(float(high), 0.0)
    size = int(math.floor(high / QUERY_GRID_F)) + 1
    support = rng.permutation(size)[:QUERY_SUPPORT]
    weights = 1.0 / np.arange(1, support.size + 1) ** QUERY_SKEW
    picks = rng.choice(support.size, size=n, p=weights / weights.sum())
    return np.minimum(support[picks] * QUERY_GRID_F, high)


def check_power(power: float, lo: float, hi: float) -> List[str]:
    """A query answer must be finite and inside the surface's power range."""
    if not math.isfinite(power):
        return [f"query returned non-finite power {power!r}"]
    tol = 1e-12 * max(abs(lo), abs(hi))
    if not (lo - tol <= power <= hi + tol):
        return [f"query power {power!r} outside surface range [{lo!r}, {hi!r}]"]
    return []


def check_campaign_report(
    report: Dict[str, Any], n_designs: int, n_scenarios: int
) -> List[str]:
    """Checks of one campaign report; returns the failures."""
    errors = []
    if report.get("n_designs") != n_designs:
        errors.append(f"report has {report.get('n_designs')} designs, want {n_designs}")
    if report.get("n_scenarios") != n_scenarios:
        errors.append(
            f"report has {report.get('n_scenarios')} scenarios, want {n_scenarios}"
        )
    if report.get("n_evaluations") != n_designs * n_scenarios:
        errors.append(
            f"report counts {report.get('n_evaluations')} evaluations, "
            f"want {n_designs * n_scenarios}"
        )
    for design in report.get("designs", []):
        y, lo, hi = design["yield"], design["yield_lo"], design["yield_hi"]
        if not (0.0 <= lo <= y <= hi <= 1.0):
            errors.append(
                f"design {design['index']}: yield {y!r} outside its Wilson "
                f"interval [{lo!r}, {hi!r}]"
            )
            break
    if not (report.get("derated_surface") or {}).get("registered"):
        errors.append(f"no derated surface registered: {report.get('derated_surface')}")
    return errors


def check_job(snapshot: Dict[str, Any]) -> List[str]:
    """A serve job must end ``done`` with a registered surface."""
    if snapshot.get("state") != "done":
        return [
            f"job {snapshot.get('id')} ended {snapshot.get('state')}: "
            f"{snapshot.get('error')}"
        ]
    if not snapshot.get("surface"):
        return [
            f"job {snapshot.get('id')} is done but registered no surface "
            "(empty front)"
        ]
    return []


def front_quality(front: np.ndarray) -> Dict[str, float]:
    """``coverage`` and ``hv_paper`` of a (power, deficit) front."""
    scores = score_front(front)
    return {"coverage": scores["coverage"], "hv_paper": scores["hv_paper"]}


def fingerprint(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


class GenerationTimer:
    """Progress callback sampling the time between generations."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._last: Optional[float] = None

    def __call__(self, generation: int, population) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.tracer.sample("core.optimizer.gen_s", now - self._last)
        self._last = now


class Workload:
    """Shared shape of the three workloads."""

    name = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = Path(root)
        self.seed = int(seed)
        #: Set by the harness for traced iterations.
        self.tracer = None
        self._fingerprint: Optional[str] = None
        self._bursts = 0

    def close(self) -> None:
        """Release what :meth:`setup` opened."""
        self.server.close()
        self.manager.job_store.close()

    def obs_files(self) -> Dict[str, List[Path]]:
        """Files the program's tracing and logging write, by layer."""
        return {}

    def _serve(self, data: Path, **manager_options) -> None:
        """Serve ``self.store`` over HTTP and open a client.  The job
        manager runs no jobs itself (``workers=0``)."""
        registry = MetricsRegistry()
        self.manager = JobManager(
            store=self.store, data_dir=data, workers=0, metrics=registry,
            **manager_options,
        )
        self.server = ReproServer(ServeApp(self.manager, self.store, registry)).start()
        self.client = ServeClient(self.server.url)

    def _query_burst(self, name: str, it: Iteration) -> None:
        """Describe surface *name* over HTTP, then query it HTTP_QUERIES
        times; every answer must be finite and in the surface's range."""
        lo, hi, high = -math.inf, math.inf, C_LOAD_MAX
        try:
            described = self.client.surface(name)
        except ServeError as exc:
            it.op([f"describe {name}: {exc}"])
        else:
            it.op([])
            lo, hi = described["power_min"], described["power_max"]
            high = described["c_load_max_stored"]
        self._bursts += 1
        rng = np.random.default_rng([self.seed, self._bursts])
        for c_load in query_loads(rng, high, HTTP_QUERIES):
            began = time.perf_counter()
            try:
                answer = self.client.query(name, float(c_load))
            except ServeError as exc:
                it.op([f"query {name}: {exc}"])
                continue
            it.query_s.append(time.perf_counter() - began)
            it.op(check_power(answer["power"], lo, hi))

    def _check_repeat(self, digest: str, what: str) -> List[str]:
        """Iterations of one run share inputs, so outputs must repeat."""
        if self._fingerprint is None:
            self._fingerprint = digest
        if digest != self._fingerprint:
            return [f"{what} differs from the first iteration's"]
        return []


class Explore(Workload):
    name = "explore"

    def setup(self) -> None:
        self.problem = make_problem(scale=EXPLORE_SCALE, use_corners=True)
        self.store = SurfaceStore(self.root / "surfaces")
        self._serve(self.root / "serve", tracing=False)

    def _run(self, seed_index: int):
        callbacks = ()
        if self.tracer is not None:
            self.tracer.forget_rows()
            callbacks = (GenerationTimer(self.tracer),)
        return run_one(
            "sacga",
            EXPLORE_ID,
            scale=EXPLORE_SCALE,
            generations=EXPLORE_GENERATIONS,
            problem=self.problem,
            seed_index=seed_index,
            callbacks=callbacks,
        )

    def reference(self) -> Dict[str, float]:
        return front_quality(self._run(REFERENCE_SEED).result.front_objectives)

    def iterate(self) -> Iteration:
        it = Iteration()
        started = time.perf_counter()
        summary = self._run(self.seed)
        result = summary.result
        it.n_evaluations = summary.n_evaluations
        if result.front_objectives.shape[0] == 0:
            it.wall_s = it.job_s = time.perf_counter() - started
            it.op([f"seed {self.seed}: explore front is empty"])
            return it
        self.store.register(self.name, DesignSurface.from_result(result))
        it.wall_s = it.job_s = time.perf_counter() - started
        it.op(
            self._check_repeat(
                fingerprint(result.front_x.tobytes(), result.front_objectives.tobytes()),
                "explore front",
            )
        )
        self._query_burst(self.name, it)
        return it


class Campaign(Workload):
    name = "campaign"
    surface_name = "campaign-derated"

    def _designs(self, seed: int):
        rng = np.random.default_rng(seed)
        problem = self.problem
        x = problem.lower + rng.random((CAMPAIGN_DESIGNS, problem.n_var)) * (
            problem.upper - problem.lower
        )
        nominal = problem.evaluate_batch(x).objectives[:, 0]
        return x, x[:, PARAMETER_NAMES.index("c_load")], nominal

    def setup(self) -> None:
        self.problem = make_problem(scale=EXPLORE_SCALE, use_corners=True)
        self.designs = self._designs(self.seed)
        self.store = SurfaceStore(self.root / "surfaces")
        self.runner = CampaignRunner(self.root / "campaigns", surfaces=self.store)
        self._serve(self.root / "serve", tracing=False)
        self.n_scenarios = len(CAMPAIGN_SPEC.corners) * len(CAMPAIGN_SPEC.conditions)
        self._runs = 0

    def _campaign(self, designs) -> Dict[str, Any]:
        self._runs += 1
        manifest = self.runner.create(
            CAMPAIGN_SPEC,
            *designs,
            campaign_id=f"run-{self._runs:04d}",
            derated_surface=self.surface_name,
        )
        return self.runner.run_inline(manifest)

    def reference(self) -> Dict[str, float]:
        self._campaign(self._designs(REFERENCE_SEED))
        surface = self.store.load(self.surface_name)
        return front_quality(
            np.column_stack([surface.power, surface.c_load_max - surface.c_load])
        )

    def iterate(self) -> Iteration:
        it = Iteration()
        started = time.perf_counter()
        report = self._campaign(self.designs)
        it.wall_s = it.job_s = time.perf_counter() - started
        it.n_evaluations = int(report["n_evaluations"])
        stable = {k: report.get(k) for k in CAMPAIGN_STABLE_KEYS}
        errors = check_campaign_report(report, CAMPAIGN_DESIGNS, self.n_scenarios)
        errors += self._check_repeat(
            fingerprint(json.dumps(stable, sort_keys=True).encode()), "campaign report"
        )
        it.op(errors)
        self._query_burst(self.surface_name, it)
        return it


class Serve(Workload):
    name = "serve"

    def setup(self) -> None:
        data = self.root / "serve"
        self.log_path = data / "serve.log.jsonl"
        configure_logging(path=self.log_path)
        self.store = SurfaceStore(data / "surfaces")
        # The job manager only accepts and tracks jobs.  The worker below
        # runs them, with its own metrics registry flushed into the job
        # store the way an external `repro workers` does.
        self._serve(data, lease_s=SERVE_LEASE_S)
        self.worker = WorkerLoop(
            self.manager.job_store,
            surfaces=self.store,
            worker_id="perfbench-worker",
            lease_s=SERVE_LEASE_S,
            poll_s=SERVE_WORKER_POLL_S,
            runner=self._run_job,
            recorder=TraceRecorder.for_process(self.manager.traces_dir, "worker"),
            registry=MetricsRegistry(),
        )
        self._thread = threading.Thread(
            target=self.worker.run, name="perfbench-worker", daemon=True
        )
        self._thread.start()
        self._jobs = 0
        self._order = np.random.default_rng(self.seed).permutation(
            len(SERVE_SEED_POOL)
        )

    def close(self) -> None:
        self.server.close()
        self.worker.stop()
        self._thread.join(timeout=SERVE_JOB_TIMEOUT_S)
        self.manager.job_store.close()
        disable_logging()
        if self._thread.is_alive():
            raise RuntimeError("serve worker thread did not stop")

    def obs_files(self) -> Dict[str, List[Path]]:
        return {
            "obs.tracing": sorted(self.manager.traces_dir.glob("*.jsonl")),
            "obs.logging": [self.log_path],
        }

    def _run_job(self, *args, **kwargs):
        """The ``runner=`` injected into the worker (timed when traced)."""
        tracer = self.tracer
        if tracer is None:
            return run_one(*args, **kwargs)
        kwargs["callbacks"] = list(kwargs.get("callbacks", ())) + [
            GenerationTimer(tracer)
        ]
        tracer.forget_rows()
        with tracer.span("serve.worker.runner", "serve.worker.runner"):
            return run_one(*args, **kwargs)

    def _job(self, seed_index: int, it: Iteration) -> Dict[str, Any]:
        self._jobs += 1
        params = dict(
            SERVE_JOB, seed_index=int(seed_index), surface=f"job-{self._jobs:04d}"
        )
        started = time.perf_counter()
        snapshot = self.client.submit(params)
        done = self.client.wait(
            snapshot["id"], timeout=SERVE_JOB_TIMEOUT_S, poll_s=SERVE_CLIENT_POLL_S
        )
        seen = time.time()
        it.job_s = time.perf_counter() - started
        it.op(check_job(done))
        if done.get("result"):
            it.n_evaluations = sum(r["n_evaluations"] for r in done["result"]["runs"])
        if self.tracer is not None and done.get("finished_at"):
            sample = self.tracer.sample
            sample("serve.jobs.queue_wait_s", done["started_at"] - done["submitted_at"])
            sample("serve.jobs.run_s", done["finished_at"] - done["started_at"])
            sample("serve.jobs.observe_lag_s", seen - done["finished_at"])
        done["surface_name"] = params["surface"]
        return done

    def reference(self) -> Dict[str, float]:
        it = Iteration()
        done = self._job(SERVE_SEED_POOL[REFERENCE_SEED], it)
        if it.errors:
            raise RuntimeError("; ".join(it.errors))
        run = done["result"]["runs"][0]
        return {"coverage": run["coverage"], "hv_paper": run["hv_paper"]}

    def iterate(self) -> Iteration:
        it = Iteration()
        started = time.perf_counter()
        seed_index = SERVE_SEED_POOL[self._order[self._jobs % len(self._order)]]
        self._query_burst(self._job(seed_index, it)["surface_name"], it)
        it.wall_s = time.perf_counter() - started
        return it


WORKLOADS = {cls.name: cls for cls in (Explore, Campaign, Serve)}

_CIRCUITS = (
    "circuits.bias_solve", "circuits.drain_current",
    "circuits.evaluate_batch", "core.evaluation",
)
_OPTIMIZER = (
    "circuits.analyze_integrator@sizing_problem",
    "core.kernels.local_rank_and_crowd", "core.kernels.constrained_fronts",
    "core.optimizer",
)
_SURFACES = (
    "serve.surfaces.register", "serve.surfaces.power_at", "serve.http.handle",
    "serve.client.surface", "serve.client.query",
)

#: Wrappers each workload must fire in its traced iterations.
EXPECTED_WRAPPERS = {
    "explore": _CIRCUITS + _OPTIMIZER + _SURFACES,
    "campaign": _CIRCUITS + _SURFACES + (
        "circuits.analyze_integrator@campaign.shards", "campaign.shards",
        "campaign.aggregate.aggregate_report",
        "campaign.aggregate.build_derated_surface",
        "campaign.io.write_shard", "campaign.io.read_shard",
    ),
    "serve": _CIRCUITS + _OPTIMIZER + _SURFACES + (
        "core.checkpoint", "experiments.ledger", "serve.store.submit", "serve.store.claim_next", "serve.store.heartbeat",
        "serve.store.finish", "serve.store.flush_worker_metrics",
        "serve.client.submit", "serve.client.job", "serve.worker.runner",
    ),
}
