"""JobStore unit tests: the durable queue's transactional guarantees.

Everything here drives the store directly — no JobManager, no worker
threads — so each invariant (FIFO claim, exactly-once claiming, lease
guards, requeue-on-expiry, retention, restart persistence) is pinned
at the SQL layer where it is enforced.
"""

import threading

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.store import JobQueueFull, JobRecord, JobStore, UnknownJob


def make_record(job_id, **params):
    return JobRecord(id=job_id, kind="run_one", params={"algorithm": "sacga", **params})


@pytest.fixture
def store(tmp_path):
    js = JobStore(tmp_path / "jobs.sqlite")
    yield js
    js.close()


class TestSubmitAndLookup:
    def test_round_trips_a_record(self, store):
        store.submit(make_record("job-a", generations=7))
        record = store.get("job-a")
        assert record.state == "queued"
        assert record.params == {"algorithm": "sacga", "generations": 7}
        assert record.attempt == 0
        assert not record.cancel_requested

    def test_unknown_id_raises(self, store):
        with pytest.raises(UnknownJob):
            store.get("job-nope")

    def test_queue_bound_is_atomic(self, store):
        store.submit(make_record("job-a"), queue_bound=2)
        store.submit(make_record("job-b"), queue_bound=2)
        with pytest.raises(JobQueueFull, match="retry later"):
            store.submit(make_record("job-c"), queue_bound=2)
        # The rejected submission left no row behind.
        assert len(store.list_jobs()) == 2
        assert store.queued_depth() == 2

    def test_bound_counts_queued_only(self, store):
        store.submit(make_record("job-a"), queue_bound=1)
        assert store.claim_next("w0", lease_s=30.0) is not None
        # job-a is running now, so the single queue slot is free again.
        store.submit(make_record("job-b"), queue_bound=1)
        assert store.counts() == {
            "queued": 1, "running": 1, "done": 0, "failed": 0, "cancelled": 0,
        }


class TestClaim:
    def test_claims_fifo(self, store):
        for i in range(3):
            store.submit(make_record(f"job-{i}"))
        order = [store.claim_next("w0", 30.0).id for _ in range(3)]
        assert order == ["job-0", "job-1", "job-2"]
        assert store.claim_next("w0", 30.0) is None

    def test_claim_sets_lease_and_attempt(self, store):
        store.submit(make_record("job-a"))
        record = store.claim_next("w0", lease_s=30.0, now=1000.0)
        assert record.state == "running"
        assert record.lease_owner == "w0"
        assert record.lease_expires_at == pytest.approx(1030.0)
        assert record.started_at == pytest.approx(1000.0)
        assert record.attempt == 1

    def test_concurrent_claims_win_exactly_once(self, tmp_path):
        store_path = tmp_path / "jobs.sqlite"
        shared = JobStore(store_path)
        n_jobs, n_claimers = 12, 6
        for i in range(n_jobs):
            shared.submit(make_record(f"job-{i:02d}"))
        claimed, errors = [], []
        lock = threading.Lock()
        go = threading.Event()

        def claimer(owner):
            try:
                go.wait()
                while True:
                    record = shared.claim_next(owner, 30.0)
                    if record is None:
                        return
                    with lock:
                        claimed.append(record.id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=claimer, args=(f"w{i}",))
            for i in range(n_claimers)
        ]
        for t in threads:
            t.start()
        go.set()
        for t in threads:
            t.join()
        shared.close()
        assert errors == []
        # Every job claimed once, none claimed twice.
        assert sorted(claimed) == [f"job-{i:02d}" for i in range(n_jobs)]


class TestLease:
    def test_heartbeat_extends_lease(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=30.0, now=1000.0)
        assert store.heartbeat("job-a", "w0", lease_s=30.0, now=1010.0)
        assert store.get("job-a").lease_expires_at == pytest.approx(1040.0)

    def test_heartbeat_fails_for_wrong_owner_or_state(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", 30.0)
        assert not store.heartbeat("job-a", "w1", 30.0)  # not the owner
        store.finish("job-a", "done", owner="w0")
        assert not store.heartbeat("job-a", "w0", 30.0)  # terminal

    def test_finish_is_lease_guarded(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=0.0, now=1000.0)
        # Lease expired; the reaper hands the job to w1.
        assert [r.id for r in store.requeue_expired(now=2000.0)] == ["job-a"]
        store.claim_next("w1", 30.0)
        # The presumed-dead w0 comes back: its finish must not apply.
        assert not store.finish("job-a", "done", owner="w0")
        assert store.get("job-a").state == "running"
        assert store.finish("job-a", "done", owner="w1")
        assert store.get("job-a").state == "done"

    def test_finish_requires_terminal_state(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", 30.0)
        with pytest.raises(ValueError, match="terminal"):
            store.finish("job-a", "queued")


class TestRequeue:
    def test_expired_lease_requeues_keeping_attempt(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=5.0, now=1000.0)
        assert store.requeue_expired(now=1001.0) == []  # still leased
        requeued = store.requeue_expired(now=1006.0)
        assert [r.id for r in requeued] == ["job-a"]
        record = store.get("job-a")
        assert record.state == "queued"
        assert record.attempt == 1  # kept: the next claimer resumes
        assert record.lease_owner is None
        # The next claim sees attempt 2 — the resume signal.
        assert store.claim_next("w1", 30.0).attempt == 2

    def test_live_heartbeat_beats_the_reaper(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=5.0, now=1000.0)
        store.heartbeat("job-a", "w0", lease_s=5.0, now=1005.0)
        assert store.requeue_expired(now=1006.0) == []

    def test_poison_job_fails_at_max_attempts(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite", max_attempts=2)
        store.submit(make_record("job-a"))
        for _ in range(2):
            store.claim_next("w0", lease_s=0.0, now=1000.0)
            store.requeue_expired(now=2000.0)
        record = store.get("job-a")
        assert record.state == "failed"
        assert "attempt 2 of 2" in record.error
        store.close()

    def test_pending_cancel_wins_on_expiry(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=0.0, now=1000.0)
        store.cancel("job-a")  # running: flag only
        assert store.get("job-a").state == "running"
        store.requeue_expired(now=2000.0)
        record = store.get("job-a")
        assert record.state == "cancelled"
        assert "cancellation" in record.error

    def test_requeue_metrics(self, tmp_path):
        registry = MetricsRegistry()
        store = JobStore(tmp_path / "jobs.sqlite", metrics=registry)
        store.submit(make_record("job-a"))
        store.claim_next("w0", lease_s=0.0, now=1000.0)
        store.requeue_expired(now=2000.0)
        samples = {
            name: samples for name, _, _, samples in registry.collect()
        }
        assert samples["repro_serve_lease_expiries_total"][0][1].value == 1
        assert samples["repro_serve_jobs_requeued_total"][0][1].value == 1
        store.close()


class TestCancel:
    def test_queued_cancel_is_immediate(self, store):
        store.submit(make_record("job-a"))
        record = store.cancel("job-a")
        assert record.state == "cancelled"
        assert "queued" in record.error
        assert store.queued_depth() == 0

    def test_running_cancel_sets_flag_only(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", 30.0)
        record = store.cancel("job-a")
        assert record.state == "running"
        assert store.cancel_requested("job-a")

    def test_terminal_cancel_is_noop(self, store):
        store.submit(make_record("job-a"))
        store.claim_next("w0", 30.0)
        store.finish("job-a", "done", owner="w0")
        assert store.cancel("job-a").state == "done"


class TestRetention:
    def test_evicts_oldest_terminal_beyond_keep(self, store):
        for i in range(6):
            store.submit(make_record(f"job-{i}"))
            store.claim_next("w0", 30.0, now=float(i))
            store.finish(f"job-{i}", "done", owner="w0")
        assert store.evict_terminal(keep=2) == 4
        survivors = [r.id for r in store.list_jobs()]
        assert survivors == ["job-4", "job-5"]

    def test_never_touches_live_jobs(self, store):
        store.submit(make_record("job-queued"))
        store.submit(make_record("job-running"))
        store.submit(make_record("job-done"))
        assert store.claim_next("w0", 30.0).id == "job-queued"
        store.finish("job-queued", "done", owner="w0")
        store.claim_next("w0", 30.0)  # job-running
        assert store.evict_terminal(keep=0) == 1
        states = {r.id: r.state for r in store.list_jobs()}
        assert states == {"job-running": "running", "job-done": "queued"}


class TestPersistence:
    def test_jobs_survive_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        first = JobStore(path)
        first.submit(make_record("job-queued"))
        first.submit(make_record("job-done"))
        first.claim_next("w0", 30.0)
        first.finish("job-queued", "done", result={"hv": 1.5}, owner="w0")
        first.close()

        second = JobStore(path)
        done = second.get("job-queued")
        assert done.state == "done"
        assert done.result == {"hv": 1.5}
        # The queued job is still claimable by the next server/worker.
        assert second.claim_next("w1", 30.0).id == "job-done"
        second.close()

    def test_closed_store_rejects_new_connections(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.queued_depth()


class TestJsonable:
    """The public snapshot converts through :func:`repro.obs.records.jsonable`."""

    @staticmethod
    def _result(value):
        record = make_record("job-j")
        record.result = {"value": value}
        return record.snapshot()["result"]["value"]

    def test_multi_element_ndarray_becomes_nested_list(self):
        # Regression: a multi-element ndarray has `.item` too, and
        # calling it raises ValueError — arrays must go through tolist().
        value = np.arange(6.0).reshape(2, 3)
        assert self._result(value) == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_numpy_scalars_and_nonfinite(self):
        assert self._result(np.float64(2.5)) == 2.5
        assert self._result(np.int32(7)) == 7
        assert self._result(float("nan")) is None
        assert self._result([np.float64("inf"), 1.0]) == [None, 1.0]

    def test_nonfinite_inside_ndarray(self):
        assert self._result(np.array([1.0, float("inf")])) == [1.0, None]


class TestTraceId:
    def test_trace_id_round_trips(self, store):
        record = make_record("job-a")
        record.trace_id = "trace-123"
        store.submit(record)
        assert store.get("job-a").trace_id == "trace-123"
        assert store.get("job-a").snapshot()["trace_id"] == "trace-123"

    def test_trace_id_survives_claim_and_requeue(self, store):
        record = make_record("job-a")
        record.trace_id = "trace-123"
        store.submit(record)
        claimed = store.claim_next("w0", lease_s=0.05)
        assert claimed.trace_id == "trace-123"
        import time as _time

        _time.sleep(0.08)
        assert [r.id for r in store.requeue_expired()] == ["job-a"]
        retry = store.claim_next("w1", lease_s=30.0)
        assert retry.trace_id == "trace-123"
        assert retry.attempt == 2

    def test_pre_tracing_schema_migrates_on_open(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        # A jobs table as PR 8 created it — no trace_id column.
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE jobs (
                id               TEXT PRIMARY KEY,
                kind             TEXT NOT NULL,
                params           TEXT NOT NULL,
                state            TEXT NOT NULL,
                submitted_at     REAL NOT NULL,
                started_at       REAL,
                finished_at      REAL,
                error            TEXT,
                result           TEXT,
                surface          TEXT,
                ledger_path      TEXT,
                checkpoint_path  TEXT,
                lease_owner      TEXT,
                lease_expires_at REAL,
                heartbeat_at     REAL,
                attempt          INTEGER NOT NULL DEFAULT 0,
                cancel_requested INTEGER NOT NULL DEFAULT 0
            );
            """
        )
        conn.execute(
            "INSERT INTO jobs (id, kind, params, state, submitted_at) "
            "VALUES ('job-old', 'run_one', '{}', 'queued', 1.0)"
        )
        conn.commit()
        conn.close()

        store = JobStore(path)
        try:
            assert store.get("job-old").trace_id is None
            fresh = make_record("job-new")
            fresh.trace_id = "trace-new"
            store.submit(fresh)
            assert store.get("job-new").trace_id == "trace-new"
        finally:
            store.close()


class TestWorkerMetrics:
    PAYLOAD = "# TYPE repro_jobs_total counter\nrepro_jobs_total 3\n"

    def test_flush_and_snapshot(self, store):
        store.flush_worker_metrics("w0", self.PAYLOAD, now=100.0)
        snaps = store.worker_snapshots(ttl_s=10.0, now=105.0)
        age, payload = snaps["w0"]
        assert payload == self.PAYLOAD
        assert age == pytest.approx(5.0)

    def test_flush_upserts_latest_payload(self, store):
        store.flush_worker_metrics("w0", "old", now=100.0)
        store.flush_worker_metrics("w0", "new", now=101.0)
        snaps = store.worker_snapshots(now=101.0)
        assert snaps["w0"][1] == "new"

    def test_ttl_filters_stale_snapshots(self, store):
        store.flush_worker_metrics("fresh", self.PAYLOAD, now=100.0)
        store.flush_worker_metrics("stale", self.PAYLOAD, now=10.0)
        snaps = store.worker_snapshots(ttl_s=30.0, now=105.0)
        assert set(snaps) == {"fresh"}
        # Without a TTL everything is visible.
        assert set(store.worker_snapshots(now=105.0)) == {"fresh", "stale"}

    def test_evict_stale_deletes_rows(self, store):
        store.flush_worker_metrics("fresh", self.PAYLOAD, now=100.0)
        store.flush_worker_metrics("stale", self.PAYLOAD, now=10.0)
        assert store.evict_stale_worker_metrics(ttl_s=30.0, now=105.0) == 1
        assert set(store.worker_snapshots(now=105.0)) == {"fresh"}
        assert store.evict_stale_worker_metrics(ttl_s=30.0, now=105.0) == 0

    def test_flush_counter_increments(self, tmp_path):
        registry = MetricsRegistry()
        store = JobStore(tmp_path / "jobs.sqlite", metrics=registry)
        try:
            store.flush_worker_metrics("w0", self.PAYLOAD)
            store.flush_worker_metrics("w0", self.PAYLOAD)
            value = None
            for name, _kind, _help, samples in registry.collect():
                if name == "repro_serve_metrics_flushes_total":
                    ((_labels, instrument),) = samples
                    value = instrument.value
            assert value == 2
        finally:
            store.close()
