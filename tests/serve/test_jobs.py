"""JobManager fault paths: crash containment, cancellation, backpressure,
concurrent access, graceful shutdown.

Stub runners injected via ``JobManager(runner=...)`` make every scenario
deterministic; the real-optimizer path is covered end-to-end in
``test_http.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.results import OptimizationResult
from repro.experiments.runner import RunSummary
from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import (
    CancellationToken,
    JobCancelled,
    JobManager,
    JobQueueFull,
    UnknownJob,
)
from repro.serve.store import JobRecord
from repro.serve.worker import WorkerLoop
from repro.serve.surfaces import SurfaceStore

POLL_S = 0.01
DEADLINE_S = 30.0


def build_summary(algorithm="STUB", seed=0,
                  c_loads_pF=(1.0, 2.0, 3.0), powers_mW=(1.0, 2.0, 3.0)):
    """A RunSummary whose stub front survives Pareto filtering."""
    c = np.asarray(c_loads_pF, dtype=float) * 1e-12
    p = np.asarray(powers_mW, dtype=float) * 1e-3
    result = OptimizationResult(
        algorithm=algorithm,
        problem_name="stub",
        population=None,  # type: ignore[arg-type]
        front_x=np.arange(len(c), dtype=float).reshape(-1, 1),
        front_objectives=np.column_stack([p, 5e-12 - c]),
        n_generations=1,
        n_evaluations=len(c),
        wall_time=0.0,
    )
    return RunSummary(
        algorithm=algorithm,
        seed=seed,
        hv_paper=1.0,
        coverage=1.0,
        cluster_4_5pF=0.0,
        front_size=len(c),
        wall_time=0.01,
        n_evaluations=len(c),
        result=result,
    )


def metric_value(registry, name, **labels):
    """One sample's value from a registry collect() pass (None if absent)."""
    for metric_name, kind, help_text, samples in registry.collect():
        if metric_name != name:
            continue
        for sample_labels, instrument in samples:
            if sample_labels == labels:
                return instrument.value
    return None


def wait_for(predicate, deadline_s=DEADLINE_S):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(POLL_S)
    return False


def wait_terminal(manager, job_id, deadline_s=DEADLINE_S):
    assert wait_for(
        lambda: manager.status(job_id)["state"] in ("done", "failed", "cancelled"),
        deadline_s,
    ), f"job {job_id} never reached a terminal state"
    return manager.status(job_id)


def fast_runner(algorithm, experiment_id, **kwargs):
    return build_summary(algorithm=algorithm.upper())


class BlockingRunner:
    """Runs until released, honouring the job's cancellation callbacks."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __call__(self, algorithm, experiment_id, callbacks=(), **kwargs):
        self.started.set()
        generation = 0
        while not self.release.wait(POLL_S):
            for callback in callbacks:
                callback(generation, None)
            generation += 1
        return build_summary(algorithm=algorithm.upper())


class TestValidation:
    def test_rejects_unknown_parameters(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            with pytest.raises(ValueError, match="unknown job parameters"):
                manager.submit({"algorithm": "sacga", "typo_field": 1})

    def test_rejects_unknown_algorithm(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            with pytest.raises(ValueError, match="algorithm"):
                manager.submit({"algorithm": "simulated-annealing"})

    def test_rejects_unknown_kind(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            with pytest.raises(ValueError, match="kind"):
                manager.submit({"algorithm": "sacga"}, kind="run_all")

    def test_rejects_bad_surface_name_at_submit(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            with pytest.raises(ValueError, match="surface name"):
                manager.submit({"algorithm": "sacga", "surface": "../escape"})

    def test_rejects_unknown_backend_at_submit(self, tmp_path):
        # The evaluation backend and kernel are no longer options: a new
        # submission naming one fails the unknown-parameter check.
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            for key, value in (
                ("backend", "serial"), ("workers", 2),
                ("cache_size", 64), ("kernel", "blocked"),
            ):
                with pytest.raises(
                    ValueError, match=f"unknown job parameters.*'{key}'"
                ):
                    manager.submit({"algorithm": "sacga", key: value})
            assert manager.list_jobs() == []

    def test_stored_job_with_removed_options_still_runs(self, tmp_path):
        """A job row persisted before the backend/kernel options were
        removed still runs on the real runner; the stale keys are
        ignored."""
        with JobManager(data_dir=tmp_path, workers=0) as manager:
            record = JobRecord(
                id="job-legacy",
                kind="run_one",
                params={
                    "algorithm": "sacga", "population": 8, "generations": 2,
                    "n_mc": 1, "n_partitions": 2, "backend": "shm",
                    "workers": 2, "cache_size": 64, "kernel": "reference",
                },
                checkpoint_path=str(tmp_path / "legacy.ckpt"),
            )
            manager.job_store.submit(record)
            WorkerLoop(manager.job_store, worker_id="legacy").run(max_jobs=1)
            done = manager.status("job-legacy")
        assert done["state"] == "done", done.get("error")
        assert done["result"]["runs"][0]["n_evaluations"] == 8 * 3

    def test_unknown_job_id(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1) as manager:
            with pytest.raises(UnknownJob):
                manager.status("job-nope")


class TestCrashContainment:
    def test_worker_survives_job_exception(self, tmp_path):
        def crashy(algorithm, experiment_id, **kwargs):
            if experiment_id == "boom":
                raise RuntimeError("optimizer exploded")
            return build_summary()

        with JobManager(data_dir=tmp_path, workers=1, runner=crashy) as manager:
            bad = manager.submit({"algorithm": "sacga", "experiment_id": "boom"})
            failed = wait_terminal(manager, bad.id)
            assert failed["state"] == "failed"
            assert "optimizer exploded" in failed["error"]

            # Same (sole) worker thread still serves the next job.
            good = manager.submit({"algorithm": "sacga"})
            assert wait_terminal(manager, good.id)["state"] == "done"

    def test_failed_jobs_counted_in_metrics(self, tmp_path):
        registry = MetricsRegistry()

        def crashy(algorithm, experiment_id, **kwargs):
            raise ValueError("nope")

        with JobManager(
            data_dir=tmp_path, workers=1, runner=crashy, metrics=registry
        ) as manager:
            job = manager.submit({"algorithm": "sacga"})
            wait_terminal(manager, job.id)
        assert metric_value(registry, "repro_serve_jobs_submitted_total") == 1
        assert (
            metric_value(
                registry, "repro_serve_jobs_finished_total", state="failed"
            )
            == 1
        )


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        blocker = BlockingRunner()
        manager = JobManager(data_dir=tmp_path, workers=1, runner=blocker)
        try:
            running = manager.submit({"algorithm": "sacga"})
            assert blocker.started.wait(DEADLINE_S)
            queued = manager.submit({"algorithm": "sacga"})
            snapshot = manager.cancel(queued.id)
            assert snapshot["state"] == "cancelled"
            assert "queued" in snapshot["error"]
        finally:
            blocker.release.set()
            manager.shutdown()
        assert manager.status(running.id)["state"] == "done"

    def test_cancel_running_job_at_generation_boundary(self, tmp_path):
        blocker = BlockingRunner()
        manager = JobManager(data_dir=tmp_path, workers=1, runner=blocker)
        try:
            job = manager.submit({"algorithm": "sacga"})
            assert blocker.started.wait(DEADLINE_S)
            manager.cancel(job.id)
            done = wait_terminal(manager, job.id)
            assert done["state"] == "cancelled"
            assert "generation" in done["error"]
        finally:
            blocker.release.set()
            manager.shutdown()

    def test_cancel_finished_job_is_a_no_op(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1, runner=fast_runner) as manager:
            job = manager.submit({"algorithm": "sacga"})
            wait_terminal(manager, job.id)
            assert manager.cancel(job.id)["state"] == "done"

    def test_cancellation_token_raises_when_set(self):
        event = threading.Event()
        token = CancellationToken(event)
        token(3, None)  # not set: no-op
        event.set()
        with pytest.raises(JobCancelled, match="generation 7"):
            token(7, None)


class TestBackpressure:
    def test_queue_full_raises_and_recovers(self, tmp_path):
        blocker = BlockingRunner()
        registry = MetricsRegistry()
        manager = JobManager(
            data_dir=tmp_path,
            workers=1,
            queue_size=1,
            runner=blocker,
            metrics=registry,
        )
        try:
            first = manager.submit({"algorithm": "sacga"})
            assert blocker.started.wait(DEADLINE_S)  # worker busy
            second = manager.submit({"algorithm": "sacga"})  # fills the queue
            with pytest.raises(JobQueueFull):
                manager.submit({"algorithm": "sacga"})
            # The rejected job leaves no trace in the table.
            assert len(manager.list_jobs()) == 2
        finally:
            blocker.release.set()
            manager.shutdown()
        assert manager.status(first.id)["state"] == "done"
        assert manager.status(second.id)["state"] == "done"
        assert metric_value(registry, "repro_serve_jobs_rejected_total") == 1


class TestQueueSlotRelease:
    def test_cancelling_queued_jobs_frees_their_slots(self, tmp_path):
        # Regression: the old in-memory queue never drained cancelled
        # entries, so a cancel left its backpressure slot occupied and
        # the queue could fill up with ghosts.
        blocker = BlockingRunner()
        manager = JobManager(
            data_dir=tmp_path, workers=1, queue_size=3, runner=blocker
        )
        try:
            running = manager.submit({"algorithm": "sacga"})
            assert blocker.started.wait(DEADLINE_S)
            queued = [manager.submit({"algorithm": "sacga"}) for _ in range(3)]
            with pytest.raises(JobQueueFull):
                manager.submit({"algorithm": "sacga"})
            for job in queued:
                assert manager.cancel(job.id)["state"] == "cancelled"
            # Every cancelled slot is reusable immediately.
            refilled = [manager.submit({"algorithm": "sacga"}) for _ in range(3)]
            with pytest.raises(JobQueueFull):
                manager.submit({"algorithm": "sacga"})
        finally:
            blocker.release.set()
            manager.shutdown()
        assert manager.status(running.id)["state"] == "done"
        for job in refilled:
            assert manager.status(job.id)["state"] == "done"


class TestResultSerialization:
    def test_jsonable_handles_multi_element_ndarrays(self):
        # Regression: `hasattr(value, "item")` matched whole ndarrays and
        # `.item()` on >1 element raises ValueError, failing the job at
        # result-recording time after the optimization had succeeded.
        from repro.serve.jobs import _jsonable

        payload = {
            "front": np.arange(6.0).reshape(3, 2),
            "scalar": np.float64(1.5),
            "nested": [np.array([1, 2, 3])],
        }
        assert _jsonable(payload) == {
            "front": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]],
            "scalar": 1.5,
            "nested": [[1, 2, 3]],
        }

    def test_job_result_with_ndarray_still_completes(self, tmp_path):
        def array_runner(algorithm, experiment_id, **kwargs):
            summary = build_summary(algorithm=algorithm.upper())
            # Smuggle an ndarray into a field the result dict serializes.
            summary.hv_paper = np.array([1.0, 2.0])  # type: ignore[assignment]
            return summary

        with JobManager(
            data_dir=tmp_path, workers=1, runner=array_runner
        ) as manager:
            job = manager.submit({"algorithm": "sacga"})
            done = wait_terminal(manager, job.id)
        assert done["state"] == "done"
        assert done["result"]["runs"][0]["hv_paper"] == [1.0, 2.0]


class TestRetentionBound:
    def test_job_table_stays_bounded_under_many_cycles(self, tmp_path):
        # Regression: terminal jobs were retained forever, so a
        # long-lived server's job table (and /jobs payload) grew without
        # bound.  Drive 10k submit/finish cycles through the manager's
        # store and check the table is capped near retain_terminal.
        retain = 100
        manager = JobManager(
            data_dir=tmp_path,
            workers=0,  # this test claims/finishes at the store layer
            queue_size=8,
            retain_terminal=retain,
        )
        try:
            store = manager.job_store
            for i in range(10_000):
                job = manager.submit({"algorithm": "sacga"})
                store.claim_next("w0", 30.0)
                store.finish(job.id, "done", owner="w0")
            assert len(manager.list_jobs()) <= retain + manager.queue_size
            # +1: the last finish was recorded at the store layer, so the
            # manager's finish-side evict hook has not run for it yet.
            assert manager.counts()["done"] <= retain + 1
            # The newest jobs are the survivors.
            assert manager.status(job.id)["state"] == "done"
        finally:
            manager.shutdown()


class TestGaugeSync:
    def test_queue_depth_gauge_tracks_every_transition(self, tmp_path):
        # Regression: the depth gauge was only touched on submit, so
        # claims/cancels/finishes left it stale.  It must equal the
        # store's true queued count at every transition.
        registry = MetricsRegistry()
        blocker = BlockingRunner()
        manager = JobManager(
            data_dir=tmp_path,
            workers=1,
            queue_size=8,
            runner=blocker,
            metrics=registry,
        )

        def gauge():
            return metric_value(registry, "repro_serve_queue_depth")

        def depth():
            return manager.job_store.queued_depth()

        try:
            running = manager.submit({"algorithm": "sacga"})
            assert blocker.started.wait(DEADLINE_S)
            assert wait_for(lambda: gauge() == depth() == 0)
            queued = [manager.submit({"algorithm": "sacga"}) for _ in range(3)]
            assert gauge() == depth() == 3
            manager.cancel(queued[0].id)
            assert gauge() == depth() == 2
            assert metric_value(registry, "repro_serve_jobs_running") == 1
        finally:
            blocker.release.set()
            manager.shutdown()
        for job in queued[1:] + [running]:
            assert manager.status(job.id)["state"] == "done"
        assert gauge() == depth() == 0
        assert metric_value(registry, "repro_serve_jobs_running") == 0


class TestConcurrency:
    def test_concurrent_submit_and_status_from_many_threads(self, tmp_path):
        manager = JobManager(
            data_dir=tmp_path, workers=4, queue_size=256, runner=fast_runner
        )
        errors = []
        ids = []
        ids_lock = threading.Lock()

        def hammer():
            try:
                for _ in range(5):
                    job = manager.submit({"algorithm": "sacga"})
                    with ids_lock:
                        ids.append(job.id)
                    for _ in range(10):
                        manager.status(job.id)
                        manager.list_jobs()
                        manager.counts()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert errors == []
            assert len(ids) == 40
            for job_id in ids:
                assert wait_terminal(manager, job_id)["state"] == "done"
            assert manager.counts()["done"] == 40
        finally:
            manager.shutdown()


class TestSurfaces:
    def test_done_job_registers_surface_versions(self, tmp_path):
        store = SurfaceStore(tmp_path / "surfaces")
        with JobManager(
            store=store, data_dir=tmp_path, workers=1, runner=fast_runner
        ) as manager:
            a = manager.submit({"algorithm": "sacga", "surface": "amp"})
            b = manager.submit({"algorithm": "sacga", "surface": "amp"})
            done_a = wait_terminal(manager, a.id)
            done_b = wait_terminal(manager, b.id)
        versions = {done_a["surface"]["version"], done_b["surface"]["version"]}
        assert versions == {1, 2}
        assert store.versions("amp") == [1, 2]

    def test_surface_defaults_to_job_id(self, tmp_path):
        store = SurfaceStore(tmp_path / "surfaces")
        with JobManager(
            store=store, data_dir=tmp_path, workers=1, runner=fast_runner
        ) as manager:
            job = manager.submit({"algorithm": "sacga"})
            done = wait_terminal(manager, job.id)
        assert done["surface"]["name"] == job.id
        assert store.names() == [job.id]


class TestShutdown:
    def test_drain_finishes_queued_jobs(self, tmp_path):
        manager = JobManager(
            data_dir=tmp_path, workers=2, queue_size=32, runner=fast_runner
        )
        jobs = [manager.submit({"algorithm": "sacga"}) for _ in range(6)]
        manager.shutdown(drain=True)
        for job in jobs:
            assert manager.status(job.id)["state"] == "done"
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit({"algorithm": "sacga"})

    def test_no_drain_cancels_queued_and_running(self, tmp_path):
        blocker = BlockingRunner()
        manager = JobManager(
            data_dir=tmp_path, workers=1, queue_size=8, runner=blocker
        )
        running = manager.submit({"algorithm": "sacga"})
        assert blocker.started.wait(DEADLINE_S)
        queued = manager.submit({"algorithm": "sacga"})
        manager.shutdown(drain=False)
        assert manager.status(queued.id)["state"] == "cancelled"
        assert manager.status(running.id)["state"] == "cancelled"

    def test_shutdown_is_idempotent(self, tmp_path):
        manager = JobManager(data_dir=tmp_path, workers=1, runner=fast_runner)
        manager.shutdown()
        manager.shutdown()


class TestTraceIds:
    def test_submit_mints_unique_trace_ids(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1, runner=fast_runner) as manager:
            a = manager.submit({"algorithm": "sacga"})
            b = manager.submit({"algorithm": "sacga"})
            assert a.trace_id and b.trace_id
            assert a.trace_id != b.trace_id

    def test_submit_accepts_caller_trace_id(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1, runner=fast_runner) as manager:
            job = manager.submit({"algorithm": "sacga"}, trace_id="ext-trace-1")
            assert job.trace_id == "ext-trace-1"
            assert manager.status(job.id)["trace_id"] == "ext-trace-1"

    def test_submit_rejects_invalid_trace_id(self, tmp_path):
        with JobManager(data_dir=tmp_path, workers=1, runner=fast_runner) as manager:
            with pytest.raises(ValueError, match="invalid trace id"):
                manager.submit({"algorithm": "sacga"}, trace_id="bad id")

    def test_trace_id_reaches_ledger_and_surface_metadata(self, tmp_path):
        def ledger_runner(algorithm, experiment_id, ledger=None, **kwargs):
            # The worker binds trace context onto the ledger it hands us;
            # a single event is enough to prove every record carries it.
            assert ledger is not None
            ledger.emit("stub_generation", generation=0)
            return build_summary(algorithm.upper())

        store = SurfaceStore(tmp_path / "surfaces")
        with JobManager(
            store=store, data_dir=tmp_path, workers=1, runner=ledger_runner
        ) as manager:
            job = manager.submit(
                {"algorithm": "sacga", "surface": "traced"},
                trace_id="prov-trace",
            )
            done = wait_terminal(manager, job.id)
            assert done["state"] == "done"
            from repro.experiments.ledger import read_ledger

            events = read_ledger(done["ledger_path"])
            assert events
            assert all(e.get("trace_id") == "prov-trace" for e in events)
            meta = store.metadata("traced")
            assert meta["trace_id"] == "prov-trace"
            assert meta["job_id"] == job.id

    def test_worker_attempt_spans_are_exported(self, tmp_path):
        from repro.obs.tracing import collect_trace, stitch_trace

        with JobManager(data_dir=tmp_path, workers=1, runner=fast_runner) as manager:
            job = manager.submit({"algorithm": "sacga"}, trace_id="span-trace")
            assert wait_terminal(manager, job.id)["state"] == "done"
        events = collect_trace(tmp_path / "traces", trace_id="span-trace")
        names = {e["name"] for e in events}
        assert {"server:submit", "worker:attempt", "worker:run", "worker:finish"} <= names
        roots = stitch_trace(events)
        attempt = [r for r in roots if r["name"] == "worker:attempt"][0]
        assert not attempt["in_progress"]
        assert {c["name"] for c in attempt["children"]} == {
            "worker:run", "worker:finish",
        }

    def test_tracing_flag_disables_span_export(self, tmp_path):
        with JobManager(
            data_dir=tmp_path, workers=1, runner=fast_runner, tracing=False
        ) as manager:
            job = manager.submit({"algorithm": "sacga"})
            assert wait_terminal(manager, job.id)["state"] == "done"
        assert not (tmp_path / "traces").exists() or not list(
            (tmp_path / "traces").iterdir()
        )


class TestSnapshotTtl:
    def test_default_ttl_is_three_leases(self, tmp_path):
        with JobManager(
            data_dir=tmp_path, workers=1, runner=fast_runner, lease_s=10.0
        ) as manager:
            assert manager.snapshot_ttl_s == pytest.approx(30.0)

    def test_worker_snapshots_evicts_stale_rows(self, tmp_path):
        with JobManager(
            data_dir=tmp_path, workers=1, runner=fast_runner, snapshot_ttl_s=5.0
        ) as manager:
            manager.job_store.flush_worker_metrics("dead", "x 1\n", now=1.0)
            manager.job_store.flush_worker_metrics("live", "x 1\n")
            snaps = manager.worker_snapshots()
            assert set(snaps) == {"live"}
            # The stale row is gone from the store, not just filtered.
            assert set(manager.job_store.worker_snapshots()) == {"live"}

    def test_worker_flush_ages_reports_staleness(self, tmp_path):
        with JobManager(
            data_dir=tmp_path, workers=1, runner=fast_runner, snapshot_ttl_s=5.0
        ) as manager:
            manager.job_store.flush_worker_metrics("w0", "x 1\n")
            ages = manager.worker_flush_ages()
            assert ages["w0"]["fresh"] is True
            assert ages["w0"]["last_flush_age_s"] < 5.0

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_ttl_s"):
            JobManager(
                data_dir=tmp_path, workers=0, runner=fast_runner,
                snapshot_ttl_s=0.0,
            )
