"""JobStore: the durable, SQLite-backed job state machine.

The service's source of truth for jobs.  Where the original JobManager
kept jobs in an in-process dict behind a ``queue.Queue`` — amnesiac
across restarts, and GIL-bound to one process — the store persists the
**full** job state machine (queued/running/done/failed/cancelled, the
submitted parameters, the lease owner and heartbeat, the attempt count
and the result JSON) in a single SQLite file under WAL mode, so that

* a service crash loses nothing: queued jobs run after restart, and
  finished jobs are still listable/queryable;
* multiple worker **processes** — in-server threads, ``repro workers``
  on the same host — pull from the shared queue concurrently through
  the transactional :meth:`JobStore.claim_next`;
* a worker that dies mid-job (``kill -9``) stops heartbeating, its
  lease expires, and :meth:`requeue_expired` puts the job back in the
  queue — where the next worker resumes it from its last checkpoint
  (see :mod:`repro.serve.worker`).

Concurrency model
-----------------

One SQLite connection per thread (WAL readers never block the writer);
every multi-statement transition runs inside ``BEGIN IMMEDIATE`` so
claims are serialized — **a job is claimed by exactly one worker**, and
a submit that would exceed the queue bound inserts nothing (the
rejected submission leaves no row behind).  All timestamps are wall
clock (``time.time()``) because leases must be comparable across
processes.

The store is observable: every operation's latency feeds the
``repro_serve_store_op_seconds{op}`` histogram, and lease expiries,
requeues and terminal-job evictions each have a counter.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.logging import get_logger
from repro.obs.records import jsonable
from repro.obs.registry import NULL_METRICS

PathLike = Union[str, Path]

__all__ = [
    "JobQueueFull",
    "JobRecord",
    "JobStore",
    "UnknownJob",
    "TERMINAL_STATES",
    "JOB_STATES",
]

#: The five job states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Store operations are index hits on a small table; sub-millisecond
#: buckets catch the healthy case, the tail buckets catch lock storms.
STORE_OP_BUCKETS = (0.0002, 0.001, 0.005, 0.02, 0.1, 0.5, 2.0)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
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
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    trace_id         TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker     TEXT PRIMARY KEY,
    updated_at REAL NOT NULL,
    payload    TEXT NOT NULL
);
"""

_COLUMNS = (
    "id, kind, params, state, submitted_at, started_at, finished_at, error, "
    "result, surface, ledger_path, checkpoint_path, lease_owner, "
    "lease_expires_at, heartbeat_at, attempt, cancel_requested, trace_id"
)

#: Columns added after the v1 schema shipped; existing store files are
#: upgraded in place via ``ALTER TABLE`` (SQLite appends new columns at
#: the end, which is why ``trace_id`` is last in ``_COLUMNS``).
_JOBS_MIGRATIONS = (
    ("trace_id", "ALTER TABLE jobs ADD COLUMN trace_id TEXT"),
)


class JobQueueFull(RuntimeError):
    """The bounded job queue is at capacity (HTTP maps this to 429)."""


class UnknownJob(KeyError):
    """Raised for job ids the store has never seen (or has evicted)."""


@dataclass
class JobRecord:
    """One job row: everything the store knows about a submission."""

    id: str
    kind: str
    params: Dict[str, Any]
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    surface: Optional[Dict[str, Any]] = None
    ledger_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    heartbeat_at: Optional[float] = None
    attempt: int = 0
    cancel_requested: bool = False
    trace_id: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able public view (what the HTTP API returns)."""
        return jsonable(
            {
                "id": self.id,
                "kind": self.kind,
                "params": dict(self.params),
                "state": self.state,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
                "result": self.result,
                "surface": self.surface,
                "ledger_path": self.ledger_path,
                "checkpoint_path": self.checkpoint_path,
                "worker": self.lease_owner,
                "attempt": self.attempt,
                "cancel_requested": self.cancel_requested,
                "trace_id": self.trace_id,
            }
        )

    @classmethod
    def _from_row(cls, row: Sequence[Any]) -> "JobRecord":
        return cls(
            id=row[0],
            kind=row[1],
            params=json.loads(row[2]),
            state=row[3],
            submitted_at=row[4],
            started_at=row[5],
            finished_at=row[6],
            error=row[7],
            result=json.loads(row[8]) if row[8] is not None else None,
            surface=json.loads(row[9]) if row[9] is not None else None,
            ledger_path=row[10],
            checkpoint_path=row[11],
            lease_owner=row[12],
            lease_expires_at=row[13],
            heartbeat_at=row[14],
            attempt=row[15],
            cancel_requested=bool(row[16]),
            trace_id=row[17],
        )


class JobStore:
    """Durable job queue + state machine in one SQLite file.

    Parameters
    ----------
    path:
        The SQLite database file (created on demand, WAL mode).  Worker
        processes open their own :class:`JobStore` over the same path.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        store-operation latency and lease/requeue/eviction counters.
    max_attempts:
        A job whose lease expires on its ``max_attempts``-th attempt is
        failed instead of requeued — the poison-job backstop.
    """

    def __init__(
        self,
        path: PathLike,
        metrics=None,
        max_attempts: int = 5,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_attempts = int(max_attempts)
        self._local = threading.local()
        self._conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        # Counts submits (and worker stop requests) through this object,
        # so a waiting worker loop can tell whether one happened since it
        # last looked at the queue.
        self._submitted = threading.Condition()
        self._submits = 0
        metrics = NULL_METRICS if metrics is None else metrics
        self._m_op = metrics.histogram(
            "repro_serve_store_op_seconds",
            "Job store operation latency",
            labels=("op",),
            buckets=STORE_OP_BUCKETS,
        )
        self._m_expired = metrics.counter(
            "repro_serve_lease_expiries_total",
            "Running-job leases found expired (worker presumed dead)",
        )
        self._m_requeued = metrics.counter(
            "repro_serve_jobs_requeued_total",
            "Jobs returned to the queue after a lease expiry",
        )
        self._m_evicted = metrics.counter(
            "repro_serve_jobs_evicted_total",
            "Terminal jobs evicted by the retention bound",
        )
        self._m_flushes = metrics.counter(
            "repro_serve_metrics_flushes_total",
            "Worker metrics snapshots flushed into the store",
        )
        self._m_snapshots_evicted = metrics.counter(
            "repro_serve_metrics_snapshots_evicted_total",
            "Stale worker metrics snapshots evicted past the TTL",
        )
        self._log = get_logger("serve.store", store=str(self.path))
        with self._op("init"):
            conn = self._conn()
            conn.executescript(_SCHEMA)
            self._migrate(conn)

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Upgrade a pre-existing store file to the current jobs schema."""
        present = {row[1] for row in conn.execute("PRAGMA table_info(jobs)")}
        for column, ddl in _JOBS_MIGRATIONS:
            if column not in present:
                conn.execute(ddl)
                self._log.info("migrated jobs table", added_column=column)

    # ------------------------------------------------------------- plumbing

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise RuntimeError(f"JobStore({self.path}) is closed")
            conn = sqlite3.connect(
                str(self.path),
                timeout=10.0,
                isolation_level=None,  # autocommit; we BEGIN explicitly
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=10000")
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    @contextmanager
    def _op(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._m_op.labels(op=name).observe(time.perf_counter() - started)

    @contextmanager
    def _txn(self, conn: sqlite3.Connection):
        """``BEGIN IMMEDIATE`` transaction: take the write lock up front
        so read-then-update transitions (claim, cancel, requeue) are
        serialized across threads *and* processes."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def close(self) -> None:
        """Close every connection this store opened (idempotent)."""
        self._closed = True
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        self._local = threading.local()

    # --------------------------------------------------------------- submit

    def submit(self, record: JobRecord, queue_bound: Optional[int] = None) -> None:
        """Insert a queued job, atomically enforcing the queue bound.

        The depth check and the insert share one transaction: a
        submission rejected with :class:`JobQueueFull` leaves **no row**
        behind, and — because cancelled jobs leave the ``queued`` state —
        cancelling queued jobs genuinely frees queue capacity.  After
        the commit, worker loops of this process that wait on
        :meth:`wait_for_submit` wake at once.
        """
        with self._op("submit"):
            conn = self._conn()
            with self._txn(conn):
                if queue_bound is not None:
                    (depth,) = conn.execute(
                        "SELECT COUNT(*) FROM jobs WHERE state='queued'"
                    ).fetchone()
                    if depth >= queue_bound:
                        raise JobQueueFull(
                            f"job queue is full ({queue_bound} waiting jobs); "
                            "retry later"
                        )
                conn.execute(
                    f"INSERT INTO jobs ({_COLUMNS}) "
                    "VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    (
                        record.id,
                        record.kind,
                        json.dumps(record.params),
                        record.state,
                        record.submitted_at,
                        record.started_at,
                        record.finished_at,
                        record.error,
                        None if record.result is None else json.dumps(record.result),
                        None if record.surface is None else json.dumps(record.surface),
                        record.ledger_path,
                        record.checkpoint_path,
                        record.lease_owner,
                        record.lease_expires_at,
                        record.heartbeat_at,
                        record.attempt,
                        int(record.cancel_requested),
                        record.trace_id,
                    ),
                )
        self.notify_waiters()

    @property
    def submits(self) -> int:
        """How many times :meth:`notify_waiters` has run on this object."""
        with self._submitted:
            return self._submits

    def notify_waiters(self) -> None:
        """Wake every thread blocked in this object's :meth:`wait_for_submit`."""
        with self._submitted:
            self._submits += 1
            self._submitted.notify_all()

    def wait_for_submit(self, seen: int, timeout: float) -> None:
        """Block until :attr:`submits` differs from *seen*, or *timeout* s.

        Reading :attr:`submits` before looking at the queue and passing
        it here means a submit between the look and the wait is not
        missed.  Other processes' submits do not wake this one; a worker
        process finds them when *timeout* runs out.
        """
        with self._submitted:
            self._submitted.wait_for(lambda: self._submits != seen, timeout)

    # --------------------------------------------------------------- lookup

    def get(self, job_id: str) -> JobRecord:
        with self._op("get"):
            row = self._conn().execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJob(job_id)
        return JobRecord._from_row(row)

    def list_jobs(
        self, states: Optional[Iterable[str]] = None
    ) -> List[JobRecord]:
        """All jobs in submission order, optionally filtered by state."""
        with self._op("list"):
            conn = self._conn()
            if states is None:
                rows = conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs ORDER BY rowid"
                ).fetchall()
            else:
                wanted = tuple(states)
                marks = ",".join("?" * len(wanted))
                rows = conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE state IN ({marks}) "
                    "ORDER BY rowid",
                    wanted,
                ).fetchall()
        return [JobRecord._from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        with self._op("counts"):
            rows = self._conn().execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in JOB_STATES}
        for state, n in rows:
            out[state] = n
        return out

    def queued_depth(self) -> int:
        with self._op("depth"):
            (depth,) = self._conn().execute(
                "SELECT COUNT(*) FROM jobs WHERE state='queued'"
            ).fetchone()
        return depth

    def cancel_requested(self, job_id: str) -> bool:
        with self._op("cancel_check"):
            row = self._conn().execute(
                "SELECT cancel_requested FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
        return bool(row[0]) if row is not None else False

    # ---------------------------------------------------------------- claim

    def claim_next(
        self,
        owner: str,
        lease_s: float,
        now: Optional[float] = None,
    ) -> Optional[JobRecord]:
        """Transactionally claim the oldest queued job for *owner*.

        The claimed job flips to ``running`` with a lease expiring at
        ``now + lease_s`` and its attempt counter incremented; exactly
        one concurrent claimer wins each job.  Returns ``None`` when the
        queue is empty.
        """
        now = time.time() if now is None else now
        with self._op("claim"):
            conn = self._conn()
            with self._txn(conn):
                row = conn.execute(
                    "SELECT id FROM jobs WHERE state='queued' "
                    "ORDER BY rowid LIMIT 1"
                ).fetchone()
                if row is None:
                    return None
                job_id = row[0]
                conn.execute(
                    "UPDATE jobs SET state='running', lease_owner=?, "
                    "lease_expires_at=?, heartbeat_at=?, "
                    "started_at=COALESCE(started_at, ?), attempt=attempt+1 "
                    "WHERE id=?",
                    (owner, now + lease_s, now, now, job_id),
                )
        return self.get(job_id)

    def heartbeat(
        self,
        job_id: str,
        owner: str,
        lease_s: float,
        now: Optional[float] = None,
    ) -> bool:
        """Extend *owner*'s lease on a running job.

        Returns ``False`` when the lease is gone — the job was requeued
        (this worker was presumed dead) or reached a terminal state —
        which tells a live worker to abandon the now-duplicated run.
        """
        now = time.time() if now is None else now
        with self._op("heartbeat"):
            cursor = self._conn().execute(
                "UPDATE jobs SET lease_expires_at=?, heartbeat_at=? "
                "WHERE id=? AND state='running' AND lease_owner=?",
                (now + lease_s, now, job_id, owner),
            )
        return cursor.rowcount == 1

    # --------------------------------------------------------------- finish

    def finish(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        result: Optional[Dict[str, Any]] = None,
        surface: Optional[Dict[str, Any]] = None,
        owner: Optional[str] = None,
    ) -> bool:
        """Record a terminal state for a running job.

        With *owner* given the transition is lease-guarded: a worker
        whose lease was reclaimed (it was presumed dead, the job was
        requeued and claimed by someone else) cannot overwrite the new
        owner's progress.  Returns whether the transition applied.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() wants a terminal state, got {state!r}")
        guard = "" if owner is None else " AND lease_owner=?"
        args: Tuple[Any, ...] = (
            state,
            error,
            None if result is None else json.dumps(result),
            None if surface is None else json.dumps(surface),
            time.time(),
            job_id,
        )
        if owner is not None:
            args = args + (owner,)
        with self._op("finish"):
            cursor = self._conn().execute(
                "UPDATE jobs SET state=?, error=?, result=?, surface=?, "
                "finished_at=?, lease_owner=NULL, lease_expires_at=NULL "
                f"WHERE id=? AND state='running'{guard}",
                args,
            )
        return cursor.rowcount == 1

    # --------------------------------------------------------------- cancel

    def cancel(self, job_id: str, error: str = "cancelled while queued") -> JobRecord:
        """Cancel a job: queued jobs flip to ``cancelled`` immediately
        (freeing their queue slot), running jobs get their cancel flag
        set for the owning worker to honour at the next generation
        boundary.  Terminal jobs are left alone."""
        with self._op("cancel"):
            conn = self._conn()
            with self._txn(conn):
                row = conn.execute(
                    "SELECT state FROM jobs WHERE id=?", (job_id,)
                ).fetchone()
                if row is None:
                    raise UnknownJob(job_id)
                state = row[0]
                if state == "queued":
                    conn.execute(
                        "UPDATE jobs SET state='cancelled', error=?, "
                        "finished_at=?, cancel_requested=1 WHERE id=?",
                        (error, time.time(), job_id),
                    )
                elif state == "running":
                    conn.execute(
                        "UPDATE jobs SET cancel_requested=1 WHERE id=?",
                        (job_id,),
                    )
        return self.get(job_id)

    # -------------------------------------------------------------- requeue

    def requeue_expired(self, now: Optional[float] = None) -> List[JobRecord]:
        """Reclaim running jobs whose lease has expired.

        Each expired job goes back to ``queued`` (keeping its attempt
        count, so the next claimer knows to resume from the checkpoint)
        unless it has burned ``max_attempts`` attempts — then it fails —
        or carries a pending cancellation — then it is cancelled.
        Returns the transitioned records.
        """
        now = time.time() if now is None else now
        with self._op("requeue_scan"):
            rows = self._conn().execute(
                "SELECT id, attempt, cancel_requested FROM jobs "
                "WHERE state='running' AND lease_expires_at IS NOT NULL "
                "AND lease_expires_at < ?",
                (now,),
            ).fetchall()
        if not rows:
            return []
        transitioned: List[JobRecord] = []
        with self._op("requeue"):
            conn = self._conn()
            with self._txn(conn):
                for job_id, attempt, cancel_requested in rows:
                    # Re-check under the write lock: a last-instant
                    # heartbeat or finish wins over the reaper.
                    row = conn.execute(
                        "SELECT state, lease_expires_at FROM jobs WHERE id=?",
                        (job_id,),
                    ).fetchone()
                    if (
                        row is None
                        or row[0] != "running"
                        or row[1] is None
                        or row[1] >= now
                    ):
                        continue
                    self._m_expired.inc()
                    if cancel_requested:
                        conn.execute(
                            "UPDATE jobs SET state='cancelled', error=?, "
                            "finished_at=?, lease_owner=NULL, "
                            "lease_expires_at=NULL WHERE id=?",
                            (
                                "cancelled (lease expired with cancellation "
                                "pending)",
                                now,
                                job_id,
                            ),
                        )
                    elif attempt >= self.max_attempts:
                        conn.execute(
                            "UPDATE jobs SET state='failed', error=?, "
                            "finished_at=?, lease_owner=NULL, "
                            "lease_expires_at=NULL WHERE id=?",
                            (
                                f"lease expired on attempt {attempt} of "
                                f"{self.max_attempts}; giving up",
                                now,
                                job_id,
                            ),
                        )
                    else:
                        conn.execute(
                            "UPDATE jobs SET state='queued', lease_owner=NULL, "
                            "lease_expires_at=NULL, heartbeat_at=NULL "
                            "WHERE id=?",
                            (job_id,),
                        )
                        self._m_requeued.inc()
                    transitioned.append(job_id)
        for job_id in transitioned:
            self._log.warning("lease expired; job transitioned", job_id=job_id)
        return [self.get(job_id) for job_id in transitioned]

    # ------------------------------------------------------ worker metrics

    def flush_worker_metrics(
        self, worker: str, payload: str, now: Optional[float] = None
    ) -> None:
        """Upsert one worker's metrics snapshot (Prometheus text).

        Workers call this on the heartbeat cadence; the server's
        ``/metrics`` merges the stored snapshots under a ``worker``
        label.  Last write wins per worker id.
        """
        now = time.time() if now is None else now
        with self._op("metrics_flush"):
            self._conn().execute(
                "INSERT INTO worker_metrics (worker, updated_at, payload) "
                "VALUES (?,?,?) ON CONFLICT(worker) DO UPDATE SET "
                "updated_at=excluded.updated_at, payload=excluded.payload",
                (worker, now, payload),
            )
        self._m_flushes.inc()

    def worker_snapshots(
        self, ttl_s: Optional[float] = None, now: Optional[float] = None
    ) -> Dict[str, Tuple[float, str]]:
        """Worker snapshots as ``{worker: (age_s, payload)}``.

        With ``ttl_s`` given, snapshots older than the TTL are omitted —
        a worker that stopped flushing (crashed, drained) ages out of
        ``/metrics`` instead of reporting frozen counters forever.
        """
        now = time.time() if now is None else now
        with self._op("metrics_read"):
            rows = self._conn().execute(
                "SELECT worker, updated_at, payload FROM worker_metrics"
            ).fetchall()
        out: Dict[str, Tuple[float, str]] = {}
        for worker, updated_at, payload in rows:
            age = max(0.0, now - updated_at)
            if ttl_s is not None and age > ttl_s:
                continue
            out[worker] = (age, payload)
        return out

    def evict_stale_worker_metrics(
        self, ttl_s: float, now: Optional[float] = None
    ) -> int:
        """Delete snapshots older than ``ttl_s``; returns rows removed."""
        now = time.time() if now is None else now
        with self._op("metrics_evict"):
            cursor = self._conn().execute(
                "DELETE FROM worker_metrics WHERE updated_at < ?",
                (now - ttl_s,),
            )
        evicted = cursor.rowcount
        if evicted > 0:
            self._m_snapshots_evicted.inc(evicted)
            self._log.info("evicted stale worker metrics", count=evicted)
        return evicted

    # ------------------------------------------------------------ retention

    def evict_terminal(self, keep: int) -> int:
        """Delete the oldest terminal jobs beyond the newest *keep*.

        The long-lived-server retention bound: queued and running jobs
        are never touched.  Returns the number of rows deleted.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        marks = ",".join("?" * len(TERMINAL_STATES))
        with self._op("evict"):
            cursor = self._conn().execute(
                f"DELETE FROM jobs WHERE state IN ({marks}) AND id NOT IN ("
                f"SELECT id FROM jobs WHERE state IN ({marks}) "
                "ORDER BY finished_at DESC, rowid DESC LIMIT ?)",
                TERMINAL_STATES + TERMINAL_STATES + (keep,),
            )
        evicted = cursor.rowcount
        if evicted > 0:
            self._m_evicted.inc(evicted)
        return evicted

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "path": str(self.path),
            "jobs": sum(counts.values()),
            "queued": counts["queued"],
            "running": counts["running"],
            "max_attempts": self.max_attempts,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobStore(path={str(self.path)!r})"
