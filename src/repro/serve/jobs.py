"""JobManager: durable, bounded job execution for the service layer.

The service layer's compute half.  A job is one seed of the experiment
runner's :func:`~repro.experiments.runner.run_one` (kind ``run_one``;
a seed sweep is one such job per seed) or one robustness-campaign shard
(kind ``campaign_shard``, submitted by ``POST /campaigns`` only).  Jobs
run asynchronously on worker threads that pull from a **durable
SQLite-backed queue** (:class:`~repro.serve.store.JobStore`) rather
than an in-memory one:

* ``submit`` validates, persists the job and returns it immediately, or
  raises :class:`JobQueueFull` when the queue is at its bound — the HTTP
  layer turns that into a 429, which is the service's backpressure
  story.  The bound counts **queued** jobs only, and cancelling a queued
  job frees its slot (the depth check and insert share one store
  transaction).
* Because the queue lives in SQLite (WAL mode), it is shared: external
  ``repro workers`` processes claim from the same store the in-server
  threads do, and a server restart loses nothing — queued jobs run,
  finished jobs stay listable.
* Each job gets its own ledger (JSONL trace) and checkpoint file under
  the manager's data directory; a worker killed mid-job stops
  heartbeating its lease, the job is requeued, and the reclaiming
  worker resumes from the last checkpoint (see
  :mod:`repro.serve.worker`).
* Cancellation is **cooperative**: queued jobs flip to ``cancelled``
  immediately, running jobs get their cancel flag set (an in-process
  event plus the store flag, so workers in other processes see it) and
  stop at the next generation boundary.
* A worker that sees a job raise — bad parameters, an optimizer crash,
  a timeout — records the failure on the job and **keeps serving**: one
  failed job never kills the pool.
* Terminal jobs are retained up to ``retain_terminal`` entries; older
  ones are evicted so a long-lived server's job table stays bounded.

On success, the job's front is registered into the attached
:class:`~repro.serve.surfaces.SurfaceStore` as a new version of the
surface named by the job (default: the job id), closing the loop from
"submit an optimization" to "query the served design surface".
"""

from __future__ import annotations

import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.experiments.runner import resume_run, run_one
from repro.obs.logging import get_logger
from repro.obs.registry import NULL_METRICS
from repro.obs.tracing import (
    NULL_TRACE_RECORDER,
    TraceRecorder,
    check_trace_id,
    mint_trace_id,
)
from repro.serve.store import JobQueueFull, JobRecord, JobStore, UnknownJob
from repro.serve.surfaces import _check_name as _check_surface_name
from repro.serve.worker import (
    DEFAULT_LEASE_S,
    CancellationToken,
    JobCancelled,
    WorkerLoop,
)

PathLike = Union[str, Path]

__all__ = [
    "CancellationToken",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobQueueFull",
    "UnknownJob",
    "JOB_PARAMS",
    "CAMPAIGN_JOB_PARAMS",
]

#: Public alias: a job row in the durable store.
Job = JobRecord

#: Buckets for whole-job wall time (seconds) — jobs run for seconds to
#: hours, unlike the sub-second request latencies of the default buckets.
JOB_SECONDS_BUCKETS = (0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0, 3600.0)

#: Parameters a job submission may carry (everything else is rejected
#: up front, so a typo fails at submit time, not inside a worker).
JOB_PARAMS = frozenset(
    {
        "algorithm",
        "generations",
        "population",
        "n_mc",
        "mc_seed",
        "use_corners",
        "seed_index",
        "experiment_id",
        "n_partitions",
        "surface",
        "timeout_s",
        "checkpoint_every",
    }
)

_ALGORITHMS = ("tpg", "sacga", "mesacga")

#: Parameters of a ``campaign_shard`` job: the shard is fully described
#: by its campaign directory and index.
CAMPAIGN_JOB_PARAMS = frozenset({"campaign_id", "campaign_root", "shard_index"})


class JobManager:
    """Durable bounded worker pool running optimization jobs.

    Parameters
    ----------
    store:
        Optional :class:`~repro.serve.surfaces.SurfaceStore` that
        successful jobs register their fronts into.
    data_dir:
        Directory for the job store, per-job ledgers and checkpoints.
    workers:
        In-process worker thread count.  ``0`` is allowed: the manager
        only accepts/queries jobs and external ``repro workers``
        processes execute them.
    queue_size:
        Bound on *waiting* jobs; a full queue makes :meth:`submit` raise
        :class:`JobQueueFull`.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` (or the default
        no-op) receiving the pool gauges and counters.
    runner / resume_runner:
        The callables that execute ``run_one``-shaped and
        checkpoint-resume jobs.  Tests inject stubs here to exercise
        fault paths deterministically.
    job_store:
        An existing :class:`~repro.serve.store.JobStore` to share;
        by default one is opened at ``<data_dir>/jobs.sqlite``.
    lease_s / poll_s:
        Worker lease duration and idle-poll interval.
    retain_terminal:
        How many finished/failed/cancelled jobs to keep before evicting
        the oldest (bounds the job table in a long-lived server).
    snapshot_ttl_s:
        Worker metrics snapshots older than this are dropped from
        ``/metrics`` (and eventually evicted from the store) — a crashed
        or drained worker ages out instead of reporting frozen counters
        forever.  Defaults to three lease periods.
    tracing:
        When true (the default), the manager records server-side spans
        (``server:submit``) into ``<data_dir>/traces/`` and in-server
        worker loops export their attempt spans there too.
    """

    def __init__(
        self,
        store=None,
        data_dir: PathLike = "serve-data",
        workers: int = 2,
        queue_size: int = 16,
        metrics=None,
        runner: Callable = run_one,
        resume_runner: Callable = resume_run,
        job_store: Optional[JobStore] = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.05,
        retain_terminal: int = 10_000,
        snapshot_ttl_s: Optional[float] = None,
        tracing: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if retain_terminal < 1:
            raise ValueError(
                f"retain_terminal must be >= 1, got {retain_terminal}"
            )
        self.store = store
        # Absolute: job rows carry ledger/checkpoint paths that external
        # `repro workers` processes resolve from *their* cwd.
        self.data_dir = Path(data_dir).absolute()
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.queue_size = int(queue_size)
        self.retain_terminal = int(retain_terminal)
        self.snapshot_ttl_s = (
            float(snapshot_ttl_s) if snapshot_ttl_s is not None else 3.0 * lease_s
        )
        if self.snapshot_ttl_s <= 0:
            raise ValueError(
                f"snapshot_ttl_s must be > 0, got {self.snapshot_ttl_s}"
            )
        self.traces_dir = self.data_dir / "traces"
        self.recorder = (
            TraceRecorder.for_process(self.traces_dir, "server")
            if tracing
            else NULL_TRACE_RECORDER
        )
        self._log = get_logger("serve.jobs")
        metrics = NULL_METRICS if metrics is None else metrics
        self.job_store = (
            job_store
            if job_store is not None
            else JobStore(self.data_dir / "jobs.sqlite", metrics=metrics)
        )
        self._lock = threading.RLock()
        self._closed = False
        self._joined = False
        self._cancel_events: Dict[str, threading.Event] = {}
        self._cancel_lock = threading.Lock()
        self._m_submitted = metrics.counter(
            "repro_serve_jobs_submitted_total", "Jobs accepted into the queue"
        )
        self._m_rejected = metrics.counter(
            "repro_serve_jobs_rejected_total",
            "Submissions refused because the queue was full",
        )
        self._m_finished = metrics.counter(
            "repro_serve_jobs_finished_total",
            "Jobs finished, by terminal state",
            labels=("state",),
        )
        self._m_queue_depth = metrics.gauge(
            "repro_serve_queue_depth", "Jobs waiting in the durable queue"
        )
        self._m_running = metrics.gauge(
            "repro_serve_jobs_running", "Jobs currently executing on a worker"
        )
        self._m_workers = metrics.gauge(
            "repro_serve_workers", "In-process worker threads in the pool"
        )
        self._m_job_seconds = metrics.histogram(
            "repro_serve_job_seconds",
            "Whole-job wall time in seconds",
            buckets=JOB_SECONDS_BUCKETS,
        )
        self._m_workers.set(workers)
        self._loops = [
            WorkerLoop(
                self.job_store,
                surfaces=self.store,
                worker_id=f"{self.job_store.path.stem}:thread-{i}",
                lease_s=lease_s,
                poll_s=poll_s,
                runner=runner,
                resume_runner=resume_runner,
                cancel_events=self._cancel_events,
                cancel_events_lock=self._cancel_lock,
                on_transition=self.refresh_gauges,
                on_finished=self._record_finished,
                recorder=self.recorder,
            )
            for i in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=loop.run, name=f"repro-serve-worker-{i}", daemon=True
            )
            for i, loop in enumerate(self._loops)
        ]
        for thread in self._threads:
            thread.start()
        self.refresh_gauges()

    # ---------------------------------------------------------------- submit

    def submit(
        self,
        params: Dict[str, Any],
        kind: str = "run_one",
        trace_id: Optional[str] = None,
    ) -> Job:
        """Validate and enqueue a job; returns it (state ``queued``).

        *trace_id* is the distributed trace context: callers may supply
        one (the HTTP layer forwards ``X-Trace-Id``), otherwise a fresh
        id is minted here — either way it is persisted on the job row
        and follows the job through every worker attempt.

        Raises :class:`ValueError` on malformed parameters and
        :class:`JobQueueFull` when the queue is at capacity (the
        rejected submission persists nothing).
        """
        if kind not in ("run_one", "campaign_shard"):
            raise ValueError(
                f"unknown job kind {kind!r} (want run_one/campaign_shard)"
            )
        trace_id = mint_trace_id() if trace_id is None else check_trace_id(trace_id)
        params = dict(params or {})
        allowed = CAMPAIGN_JOB_PARAMS if kind == "campaign_shard" else JOB_PARAMS
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ValueError(
                f"unknown job parameters {unknown} (allowed: {sorted(allowed)})"
            )
        if kind == "campaign_shard":
            # A shard job is a pointer into a campaign directory; the
            # campaign manifest — not the job row — holds the spec.
            for required in ("campaign_id", "campaign_root", "shard_index"):
                if required not in params:
                    raise ValueError(
                        f"campaign_shard job needs {required!r} in params"
                    )
            params["shard_index"] = int(params["shard_index"])
        else:
            algorithm = str(params.get("algorithm", "")).strip().lower()
            if algorithm not in _ALGORITHMS:
                raise ValueError(
                    f"job needs algorithm in {_ALGORITHMS}, got {algorithm!r}"
                )
            params["algorithm"] = algorithm
        surface_name = params.get("surface")
        if surface_name is not None:
            # Fail a bad surface name at submit time, not in the worker.
            _check_surface_name(str(surface_name))
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        if kind == "campaign_shard":
            # Shards persist their own result files; no ledger/checkpoint.
            ledger_path = checkpoint_path = None
        else:
            ledger_path = str(self.data_dir / "jobs" / f"{job_id}.ledger.jsonl")
            checkpoint_path = str(self.data_dir / "jobs" / f"{job_id}.ckpt")
        record = JobRecord(
            id=job_id,
            kind=kind,
            params=params,
            ledger_path=ledger_path,
            checkpoint_path=checkpoint_path,
            trace_id=trace_id,
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is shut down; no new jobs accepted")
        with self.recorder.span(
            "server:submit", trace_id=trace_id, job_id=job_id, kind=kind
        ):
            try:
                self.job_store.submit(record, queue_bound=self.queue_size)
            except JobQueueFull:
                self._m_rejected.inc()
                self._log.warning(
                    "submission rejected: queue full",
                    trace_id=trace_id,
                    queue_size=self.queue_size,
                )
                raise
        self._m_submitted.inc()
        self._log.info(
            "job submitted", job_id=job_id, trace_id=trace_id, kind=kind
        )
        self.job_store.evict_terminal(self.retain_terminal)
        self.refresh_gauges()
        return record

    # ---------------------------------------------------------------- lookup

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.job_store.get(job_id).snapshot()

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.job_store.get(job_id).result

    def list_jobs(
        self, states: Optional[Iterable[str]] = None
    ) -> List[Dict[str, Any]]:
        return [record.snapshot() for record in self.job_store.list_jobs(states)]

    def counts(self) -> Dict[str, int]:
        return self.job_store.counts()

    # ------------------------------------------------------- worker metrics

    def worker_snapshots(self) -> Dict[str, str]:
        """Fresh worker metrics snapshots: ``{worker: prometheus_text}``.

        Applies the snapshot TTL and opportunistically evicts anything
        stale from the store (called from ``/metrics``, so eviction
        needs no background thread).
        """
        self.job_store.evict_stale_worker_metrics(self.snapshot_ttl_s)
        return {
            worker: payload
            for worker, (_age, payload) in self.job_store.worker_snapshots(
                ttl_s=self.snapshot_ttl_s
            ).items()
        }

    def worker_flush_ages(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker last-flush age for ``/healthz``."""
        out: Dict[str, Dict[str, Any]] = {}
        for worker, (age, _payload) in self.job_store.worker_snapshots().items():
            out[worker] = {
                "last_flush_age_s": round(age, 3),
                "fresh": age <= self.snapshot_ttl_s,
            }
        return out

    # ---------------------------------------------------------------- cancel

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued or running job; finished jobs are left alone.

        Queued jobs flip to ``cancelled`` immediately — releasing their
        queue-bound slot — and running jobs flip once the run hits its
        next generation boundary (in this process via the cancel event,
        in worker processes via the store's cancel flag).
        """
        prior = self.job_store.get(job_id).state
        record = self.job_store.cancel(job_id)
        self._log.info(
            "cancel requested",
            job_id=job_id,
            trace_id=record.trace_id,
            prior_state=prior,
        )
        if prior == "queued" and record.state == "cancelled":
            self._m_finished.labels(state="cancelled").inc()
        with self._cancel_lock:
            event = self._cancel_events.get(job_id)
        if event is not None:
            event.set()
        self.refresh_gauges()
        return record.snapshot()

    # ------------------------------------------------------------ bookkeeping

    def refresh_gauges(self) -> None:
        """Sync queue-depth/running gauges with the store's true state.

        Called after **every** queue transition (submit, claim, finish,
        cancel, requeue) and from the HTTP metrics/health handlers, so
        the gauges never go stale — not even when the transition happened
        in another process.
        """
        counts = self.job_store.counts()
        self._m_queue_depth.set(counts["queued"])
        self._m_running.set(counts["running"])

    def _record_finished(
        self, record: JobRecord, state: str, started: float
    ) -> None:
        """Metric accounting for jobs finished by this process's workers."""
        self._m_finished.labels(state=state).inc()
        self._m_job_seconds.observe(max(0.0, time.time() - started))
        self.job_store.evict_terminal(self.retain_terminal)

    # -------------------------------------------------------------- shutdown

    def shutdown(
        self,
        drain: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Stop accepting jobs and bring the in-process workers down.

        With ``drain=True`` (the default) queued and running jobs finish
        first; with ``drain=False`` queued jobs are cancelled outright
        and running jobs get their cancel events set, so the pool exits
        at the next generation boundaries.  The job store itself stays
        open for status queries — and on disk for the next server.
        Idempotent.
        """
        with self._lock:
            if self._joined:
                return
            self._closed = True
        if not drain:
            for record in self.job_store.list_jobs(states=("queued",)):
                self.job_store.cancel(record.id, error="cancelled at shutdown")
                self._m_finished.labels(state="cancelled").inc()
            for record in self.job_store.list_jobs(states=("running",)):
                self.job_store.cancel(record.id)
            with self._cancel_lock:
                events = list(self._cancel_events.values())
            for event in events:
                event.set()
        for loop in self._loops:
            loop.stop()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        with self._lock:
            self._joined = all(not t.is_alive() for t in self._threads)
        self.refresh_gauges()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
