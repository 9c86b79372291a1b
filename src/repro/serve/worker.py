"""Crash-safe job workers: claim, heartbeat, execute, resume.

One :class:`WorkerLoop` is one worker — whether it lives on a thread
inside the server (:class:`~repro.serve.jobs.JobManager` runs one per
configured worker) or in a separate process launched by ``repro
workers``.  Every worker follows the same protocol against the shared
:class:`~repro.serve.store.JobStore`:

1. **Reap** — requeue any running job whose lease expired (its worker
   stopped heartbeating: ``kill -9``, OOM, power loss).
2. **Claim** — transactionally take the oldest queued job and lease it.
3. **Heartbeat** — a background thread extends the lease every
   ``lease_s / 3`` while the job runs.  A heartbeat that fails means
   the lease was reclaimed (this worker was presumed dead and the job
   was handed to someone else); the run aborts at the next generation
   boundary *without* recording a result, so the new owner's progress
   is never overwritten.
4. **Execute** — run the job; on a reclaimed job (``attempt > 1``)
   whose checkpoint file exists, **resume from the last checkpoint**
   instead of restarting, so a killed worker costs at most
   ``checkpoint_every`` generations.
5. **Finish** — record the terminal state, lease-guarded.

Cancellation is cooperative and works across processes: the manager
sets the job's ``cancel_requested`` flag in the store (plus an
in-process event for same-process workers), and the
:class:`CancellationToken` raises at the next generation boundary.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.callbacks import RunTimeoutError
from repro.experiments.ledger import RunLedger
from repro.experiments.runner import Scale, resume_run, run_many, run_one
from repro.experiments.tradeoff import DesignSurface
from repro.obs.exporters import to_prometheus
from repro.obs.logging import get_logger
from repro.obs.tracing import NULL_TRACE_RECORDER, TraceRecorder
from repro.serve.store import JobRecord, JobStore, _jsonable

PathLike = Union[str, Path]

__all__ = [
    "CancellationToken",
    "JobCancelled",
    "JobLeaseLost",
    "WorkerLoop",
    "run_worker_pool",
    "DEFAULT_LEASE_S",
]

#: Default lease duration; a worker heartbeats every third of this, so
#: a dead worker's job is reclaimable after at most one lease period.
DEFAULT_LEASE_S = 30.0


class JobCancelled(RuntimeError):
    """Raised inside a run when its job's cancellation is requested."""


class JobLeaseLost(RuntimeError):
    """Raised inside a run when this worker's lease was reclaimed."""


class CancellationToken:
    """Generation-boundary cancellation check (WallClockTimeout-style).

    Attached via ``run_one(..., callbacks=[token])``; being cooperative
    it cannot interrupt a single evaluation batch, but a generation is
    the natural preemption point for these workloads.  Beyond the
    in-process *event*, the token can watch the shared store's
    ``cancel_requested`` flag (so ``DELETE /jobs/{id}`` reaches workers
    in **other processes**) and a *lease_lost* event (so a worker whose
    job was reclaimed stops burning CPU on a duplicated run).
    """

    def __init__(
        self,
        event: threading.Event,
        store: Optional[JobStore] = None,
        job_id: Optional[str] = None,
        poll_s: float = 0.25,
        lease_lost: Optional[threading.Event] = None,
    ) -> None:
        self.event = event
        self.store = store
        self.job_id = job_id
        self.poll_s = float(poll_s)
        self.lease_lost = lease_lost
        self._last_poll = 0.0

    def __call__(self, generation: int, population) -> None:
        if self.lease_lost is not None and self.lease_lost.is_set():
            raise JobLeaseLost(
                f"lease on job {self.job_id} was reclaimed at generation "
                f"{generation}; abandoning the duplicated run"
            )
        if self.event.is_set():
            raise JobCancelled(f"job cancelled at generation {generation}")
        if self.store is not None and self.job_id is not None:
            now = time.monotonic()
            if now - self._last_poll >= self.poll_s:
                self._last_poll = now
                if self.store.cancel_requested(self.job_id):
                    self.event.set()
                    raise JobCancelled(
                        f"job cancelled at generation {generation}"
                    )


class _Heartbeat(threading.Thread):
    """Extends one job's lease until stopped; flags a lost lease."""

    def __init__(
        self,
        store: JobStore,
        job_id: str,
        owner: str,
        lease_s: float,
        lease_lost: threading.Event,
        on_beat: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(name=f"repro-heartbeat-{job_id}", daemon=True)
        self.store = store
        self.job_id = job_id
        self.owner = owner
        self.lease_s = float(lease_s)
        self.lease_lost = lease_lost
        self.on_beat = on_beat
        self._stop = threading.Event()

    def run(self) -> None:
        interval = max(0.05, self.lease_s / 3.0)
        while not self._stop.wait(interval):
            if not self.store.heartbeat(self.job_id, self.owner, self.lease_s):
                self.lease_lost.set()
                return
            if self.on_beat is not None:
                self.on_beat()

    def stop(self) -> None:
        self._stop.set()


class WorkerLoop:
    """One worker: claims jobs from a :class:`JobStore` and runs them.

    Parameters
    ----------
    jobs:
        The shared job store.
    surfaces:
        Optional :class:`~repro.serve.surfaces.SurfaceStore`; successful
        jobs register their fronts here.
    worker_id:
        Lease-owner label; defaults to ``host:pid:random``.
    lease_s / poll_s:
        Lease duration and idle-poll interval.
    runner / sweep_runner / resume_runner:
        The callables executing ``run_one``-shaped, ``run_many``-shaped
        and resume jobs (tests inject stubs).
    cancel_events:
        Optional shared ``{job_id: Event}`` dict (+ its lock) letting a
        same-process manager cancel a running job without waiting for
        the store poll.
    wake / stop:
        Optional events: *wake* shortcuts the idle poll after a submit;
        *stop* makes the loop exit once the queue is drained.
    on_transition / on_finished:
        Manager hooks: gauge refresh after any state transition, and
        metric accounting when this worker finishes a job locally.
    recorder:
        Optional :class:`~repro.obs.tracing.TraceRecorder`; each attempt
        exports spans tagged with the job's ``trace_id`` so
        ``repro trace-view`` can stitch the cross-process lifecycle.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` owned by
        this worker's **process**; its Prometheus snapshot is flushed
        into the store on the heartbeat cadence so the server's
        ``/metrics`` can serve it under a ``worker`` label.  In-server
        loops leave this ``None`` (their metrics are already local to
        the server).
    """

    def __init__(
        self,
        jobs: JobStore,
        surfaces=None,
        worker_id: Optional[str] = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.2,
        runner: Callable = run_one,
        sweep_runner: Callable = run_many,
        resume_runner: Callable = resume_run,
        cancel_events: Optional[Dict[str, threading.Event]] = None,
        cancel_events_lock: Optional[threading.Lock] = None,
        wake: Optional[threading.Event] = None,
        stop: Optional[threading.Event] = None,
        on_transition: Optional[Callable[[], None]] = None,
        on_finished: Optional[Callable[[JobRecord, str, float], None]] = None,
        recorder: Optional[TraceRecorder] = None,
        registry=None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.jobs = jobs
        self.surfaces = surfaces
        self.worker_id = worker_id or (
            f"{os.uname().nodename}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        )
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self._runner = runner
        self._sweep_runner = sweep_runner
        self._resume_runner = resume_runner
        self._cancel_events = cancel_events if cancel_events is not None else {}
        self._cancel_lock = cancel_events_lock or threading.Lock()
        self._wake = wake or threading.Event()
        self._stop = stop or threading.Event()
        self._on_transition = on_transition or (lambda: None)
        self._on_finished = on_finished or (lambda record, state, started: None)
        self.recorder = recorder if recorder is not None else NULL_TRACE_RECORDER
        self.registry = registry
        self._flush_interval = max(0.05, self.lease_s / 3.0)
        self._last_flush = 0.0
        self._log = get_logger("serve.worker", worker=self.worker_id)
        self.n_served = 0

    def flush_metrics(self) -> None:
        """Flush this process's registry snapshot into the store.

        Best-effort: a flush must never take the worker down (the store
        may be mid-checkpoint or the loop may be draining).
        """
        if self.registry is None:
            return
        self._last_flush = time.monotonic()
        try:
            self.jobs.flush_worker_metrics(
                self.worker_id, to_prometheus(self.registry)
            )
        except Exception as exc:  # pragma: no cover - defensive
            self._log.warning("metrics flush failed", error=str(exc))

    def _maybe_flush_metrics(self) -> None:
        if self.registry is None:
            return
        if time.monotonic() - self._last_flush >= self._flush_interval:
            self.flush_metrics()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()

    # ------------------------------------------------------------- the loop

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Serve jobs until stopped (and the queue is drained) or until
        *max_jobs* have been executed.  Returns the number served."""
        while True:
            reclaimed = self.jobs.requeue_expired()
            if reclaimed:
                self._on_transition()
            self._maybe_flush_metrics()
            record = self.jobs.claim_next(self.worker_id, self.lease_s)
            if record is None:
                if self._stop.is_set():
                    self.flush_metrics()
                    return self.n_served
                self._wake.wait(self.poll_s)
                self._wake.clear()
                continue
            self._on_transition()
            self.run_job(record)
            self.n_served += 1
            if max_jobs is not None and self.n_served >= max_jobs:
                self.flush_metrics()
                return self.n_served

    def run_job(self, record: JobRecord) -> None:
        """Execute one claimed job: heartbeat, run/resume, finish."""
        started = time.time()
        lease_lost = threading.Event()
        with self._cancel_lock:
            cancel_event = self._cancel_events.setdefault(
                record.id, threading.Event()
            )
            if record.cancel_requested:
                cancel_event.set()
        token = CancellationToken(
            cancel_event,
            store=self.jobs,
            job_id=record.id,
            lease_lost=lease_lost,
        )
        heartbeat = _Heartbeat(
            self.jobs,
            record.id,
            self.worker_id,
            self.lease_s,
            lease_lost,
            on_beat=self.flush_metrics if self.registry is not None else None,
        )
        heartbeat.start()
        log = self._log.bind(
            job_id=record.id, trace_id=record.trace_id, attempt=record.attempt
        )
        log.info("job claimed", kind=record.kind)
        attempt_span = self.recorder.span(
            "worker:attempt",
            trace_id=record.trace_id,
            job_id=record.id,
            attempt=record.attempt,
            worker=self.worker_id,
        )
        state: Optional[str] = None
        error: Optional[str] = None
        result: Optional[Dict[str, Any]] = None
        surface: Optional[Dict[str, Any]] = None
        try:
            with attempt_span:
                result, surface = self._execute(record, token, cancel_event)
            state = "done"
        except JobCancelled as exc:
            state, error = "cancelled", str(exc)
        except JobLeaseLost:
            # The store already requeued this job for another worker;
            # recording anything here would clobber the new owner.
            state = None
            log.warning("lease lost; abandoning run")
        except RunTimeoutError as exc:
            state, error = "failed", f"timeout: {exc}"
        except Exception as exc:  # crash containment: the worker survives
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        finally:
            heartbeat.stop()
            with self._cancel_lock:
                self._cancel_events.pop(record.id, None)
        if state is not None:
            with self.recorder.span(
                "worker:finish",
                trace_id=record.trace_id,
                parent_id=attempt_span.span_id,
                job_id=record.id,
                attempt=record.attempt,
                worker=self.worker_id,
                state=state,
            ):
                applied = self.jobs.finish(
                    record.id,
                    state,
                    error=error,
                    result=result,
                    surface=surface,
                    owner=self.worker_id,
                )
            if applied:
                self._on_finished(record, state, started)
            if error is not None:
                log.warning("job finished", state=state, error=error)
            else:
                log.info("job finished", state=state)
        self.flush_metrics()
        self._on_transition()

    # -------------------------------------------------------------- execute

    def _execute(self, record: JobRecord, token, cancel_event):
        if record.kind == "campaign_shard":
            return self._execute_campaign_shard(record, cancel_event)
        params = record.params
        base = Scale.from_env()
        scale = Scale(
            population=int(params.get("population", base.population)),
            generations=int(params.get("generations", base.generations)),
            n_mc=int(params.get("n_mc", base.n_mc)),
            n_seeds=int(params.get("n_seeds", base.n_seeds)),
            label="serve",
        )
        algo_kwargs: Dict[str, Any] = {}
        if params.get("algorithm") == "sacga" and "n_partitions" in params:
            algo_kwargs["n_partitions"] = int(params["n_partitions"])
        # Bind the trace context onto the job's ledger so every event it
        # ever emits — including checkpoint and resume events from later
        # attempts — carries the submit-time trace_id.
        ledger: Union[None, str, RunLedger] = record.ledger_path
        if ledger is not None:
            ledger = RunLedger(
                ledger,
                bound={
                    "trace_id": record.trace_id,
                    "job_id": record.id,
                    "worker": self.worker_id,
                    "attempt": record.attempt,
                },
            )
        # Rows submitted before the backend/kernel options were removed
        # may still carry backend/workers/cache_size/kernel: only the
        # keys read here reach the runner, so those are ignored.
        common = dict(
            scale=scale,
            generations=scale.generations,
            ledger=ledger,
            timeout_s=params.get("timeout_s"),
            callbacks=[token],
            **algo_kwargs,
        )
        # Robustness knobs are forwarded only when submitted, so stub
        # runners (and old jobs) see the historical signature.
        if "use_corners" in params:
            common["use_corners"] = bool(params["use_corners"])
        if "mc_seed" in params:
            common["mc_seed"] = int(params["mc_seed"])
        experiment_id = str(params.get("experiment_id", "serve"))
        resumed = False
        if record.kind == "run_one":
            summary = None
            if (
                record.attempt > 1
                and record.checkpoint_path
                and Path(record.checkpoint_path).exists()
            ):
                # Reclaimed after a worker death: continue from the last
                # checkpoint instead of restarting (PR 3's resume is
                # byte-identical to an uninterrupted run).
                try:
                    with self.recorder.span("worker:resume"):
                        summary = self._resume_runner(
                            record.checkpoint_path,
                            ledger=ledger,
                            timeout_s=params.get("timeout_s"),
                            callbacks=[token],
                        )
                    resumed = True
                except (OSError, ValueError, EOFError, pickle.UnpicklingError):
                    summary = None  # corrupt/alien checkpoint: run fresh
            if summary is None:
                with self.recorder.span("worker:run"):
                    summary = self._runner(
                        params["algorithm"],
                        experiment_id,
                        seed_index=int(params.get("seed_index", 0)),
                        checkpoint_path=record.checkpoint_path,
                        checkpoint_every=int(params.get("checkpoint_every", 10)),
                        **common,
                    )
            summaries = [summary]
        else:
            with self.recorder.span("worker:sweep"):
                summaries = self._sweep_runner(
                    params["algorithm"],
                    experiment_id,
                    retries=int(params.get("retries", 0)),
                    skip_failures=bool(params.get("skip_failures", True)),
                    **common,
                )
        if cancel_event.is_set():
            # A cancelled sweep seed is swallowed by run_many's fault
            # tolerance; surface the cancellation as the job outcome.
            raise JobCancelled("job cancelled mid-run")
        surface_info = self._register_surface(record, summaries, resumed=resumed)
        runs = [
            {
                "algorithm": s.algorithm,
                "seed": s.seed,
                "front_size": s.front_size,
                "hv_paper": s.hv_paper,
                "coverage": s.coverage,
                "n_evaluations": s.n_evaluations,
                "wall_time": s.wall_time,
            }
            for s in summaries
        ]
        result = _jsonable(
            {
                "kind": record.kind,
                "n_runs": len(runs),
                "runs": runs,
                "surface": surface_info,
                "attempt": record.attempt,
                "resumed": resumed,
                "worker": self.worker_id,
            }
        )
        return result, surface_info

    def _execute_campaign_shard(self, record: JobRecord, cancel_event):
        """Execute one robustness-campaign shard job.

        The shard itself is the durability unit: its result file is
        written atomically by the campaign engine, and a shard whose file
        already exists (this is a reclaimed ``attempt > 1``) is returned
        without re-evaluation — shard-exact resume needs no checkpoint.
        When this shard completes the campaign, the worker finalizes it
        opportunistically; the engine's exclusive report claim keeps a
        concurrent finalize race harmless.
        """
        from repro.campaign.engine import CampaignRunner

        params = record.params
        if cancel_event.is_set():
            raise JobCancelled("job cancelled before shard start")
        runner = CampaignRunner(
            params["campaign_root"],
            surfaces=self.surfaces,
            metrics=self.registry,
            recorder=self.recorder,
        )
        manifest = runner.load(str(params["campaign_id"]))
        shard_index = int(params["shard_index"])
        shard = runner.run_shard(manifest, shard_index)
        if cancel_event.is_set():
            raise JobCancelled("job cancelled mid-shard")
        finalized = False
        if not runner.pending_shards(manifest):
            try:
                runner.finalize(manifest)
                finalized = True
            except ValueError:
                pass  # a sibling shard landed and then vanished mid-race
        result = _jsonable(
            {
                "kind": record.kind,
                "campaign": manifest["id"],
                "shard_index": shard_index,
                "scenario_keys": shard.scenario_keys,
                "n_evaluations": shard.n_evaluations,
                "finalized": finalized,
                "attempt": record.attempt,
                "worker": self.worker_id,
            }
        )
        return result, None

    def _register_surface(self, record: JobRecord, summaries, resumed: bool = False):
        if self.surfaces is None or not summaries:
            return None
        results = [
            s.result
            for s in summaries
            if s.result is not None and s.result.front_objectives.shape[0] > 0
        ]
        if not results:
            return None
        surface = DesignSurface.from_results(results)
        name = str(record.params.get("surface") or record.id)
        with self.recorder.span("worker:register_surface", surface=name) as span:
            version = self.surfaces.register(
                name,
                surface,
                metadata={
                    "trace_id": record.trace_id,
                    "job_id": record.id,
                    "worker": self.worker_id,
                    "attempt": record.attempt,
                    "resumed": resumed,
                },
            )
            span.annotate(version=version)
        return _jsonable(
            {
                "name": name,
                "version": version,
                "size": surface.size,
                "trace_id": record.trace_id,
            }
        )


# ---------------------------------------------------------------- processes


def _process_worker_main(
    store_path: str,
    surfaces_root: Optional[str],
    worker_id: str,
    lease_s: float,
    poll_s: float,
    max_jobs: Optional[int],
    traces_root: Optional[str] = None,
) -> None:
    """Entry point of one ``repro workers`` process.

    Owns this process's observability: a private
    :class:`~repro.obs.registry.MetricsRegistry` whose snapshots are
    flushed into the shared store (the server's ``/metrics`` merges them
    under ``worker="<id>"``), and a :class:`TraceRecorder` appending
    spans under ``<traces_root>``.
    """
    import signal

    from repro.obs.registry import MetricsRegistry
    from repro.serve.surfaces import SurfaceStore

    registry = MetricsRegistry()
    jobs = JobStore(store_path, metrics=registry)
    surfaces = SurfaceStore(surfaces_root) if surfaces_root else None
    recorder = (
        TraceRecorder.for_process(traces_root, worker_id)
        if traces_root
        else NULL_TRACE_RECORDER
    )
    loop = WorkerLoop(
        jobs,
        surfaces,
        worker_id=worker_id,
        lease_s=lease_s,
        poll_s=poll_s,
        recorder=recorder,
        registry=registry,
    )

    def _graceful(signum, frame):  # pragma: no cover - signal path
        loop.stop()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    served = loop.run(max_jobs=max_jobs)
    print(f"worker {loop.worker_id} exiting after {served} job(s)")


def run_worker_pool(
    store_path: PathLike,
    surfaces_root: Optional[PathLike] = None,
    n_workers: int = 1,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = 0.2,
    max_jobs: Optional[int] = None,
    worker_prefix: Optional[str] = None,
    traces_root: Optional[PathLike] = None,
) -> int:
    """Run *n_workers* job workers against *store_path* until stopped.

    With ``n_workers == 1`` the worker runs **in this process** (so a
    supervisor — or a durability test — can ``kill -9`` it directly);
    otherwise one child process is spawned per worker and joined.
    Returns the number of workers that exited cleanly.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    prefix = worker_prefix or f"{os.uname().nodename}:{os.getpid()}"
    if n_workers == 1:
        _process_worker_main(
            str(store_path),
            None if surfaces_root is None else str(surfaces_root),
            f"{prefix}:w0",
            lease_s,
            poll_s,
            max_jobs,
            None if traces_root is None else str(traces_root),
        )
        return 1
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(
            target=_process_worker_main,
            args=(
                str(store_path),
                None if surfaces_root is None else str(surfaces_root),
                f"{prefix}:w{i}",
                lease_s,
                poll_s,
                max_jobs,
                None if traces_root is None else str(traces_root),
            ),
            name=f"repro-worker-{i}",
        )
        for i in range(n_workers)
    ]
    for proc in procs:
        proc.start()
    clean = 0
    try:
        for proc in procs:
            proc.join()
            clean += int(proc.exitcode == 0)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
    return clean
