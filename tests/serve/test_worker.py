"""Durability suite: workers that die keep no job hostage.

Three layers of proof:

* stub-level — the WorkerLoop's claim/heartbeat/requeue/resume protocol,
  driven deterministically with injected runners and forced clock;
* process-level — a real ``repro workers`` process is ``kill -9``'d
  mid-optimization; the job's lease expires, it is requeued, and a
  fresh worker **resumes from the checkpoint** to a result byte-identical
  to an uninterrupted run;
* restart-level — a new JobManager over an existing store runs the jobs
  the dead server left queued and still lists the finished ones.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import Scale, run_one
from repro.experiments.tradeoff import DesignSurface
from repro.serve.jobs import JobManager
from repro.serve.store import JobRecord, JobStore
from repro.serve.surfaces import SurfaceStore
from repro.serve.worker import WorkerLoop

from tests.serve.test_jobs import build_summary, fast_runner, wait_for

DEADLINE_S = 60.0


def make_record(job_id, checkpoint_path=None, **params):
    return JobRecord(
        id=job_id,
        kind="run_one",
        params={"algorithm": "sacga", **params},
        checkpoint_path=checkpoint_path,
    )


class TestWorkerLoopProtocol:
    def test_reclaimed_job_resumes_from_checkpoint(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        checkpoint = tmp_path / "job-a.ckpt"
        checkpoint.write_bytes(b"stub checkpoint")
        store.submit(make_record("job-a", checkpoint_path=str(checkpoint)))

        # First worker claims, then "dies": lease forced to expire.
        assert store.claim_next("w-dead", lease_s=5.0, now=1000.0).attempt == 1
        store.requeue_expired(now=2000.0)

        calls = []

        def resume_stub(checkpoint_path, **kwargs):
            calls.append(("resume", checkpoint_path))
            return build_summary()

        def fresh_stub(algorithm, experiment_id, **kwargs):
            calls.append(("fresh", algorithm))
            return build_summary()

        loop = WorkerLoop(
            store, runner=fresh_stub, resume_runner=resume_stub,
            worker_id="w-new", poll_s=0.01,
        )
        loop.stop()  # drain the queue, then exit
        assert loop.run() == 1
        assert calls == [("resume", str(checkpoint))]
        record = store.get("job-a")
        assert record.state == "done"
        assert record.attempt == 2
        assert record.result["resumed"] is True
        assert record.result["worker"] == "w-new"
        store.close()

    def test_corrupt_checkpoint_falls_back_to_fresh_run(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        checkpoint = tmp_path / "job-a.ckpt"
        checkpoint.write_bytes(b"not a pickle")
        store.submit(make_record("job-a", checkpoint_path=str(checkpoint)))
        store.claim_next("w-dead", lease_s=5.0, now=1000.0)
        store.requeue_expired(now=2000.0)

        def resume_stub(checkpoint_path, **kwargs):
            raise ValueError("corrupt checkpoint")

        loop = WorkerLoop(
            store, runner=fast_runner, resume_runner=resume_stub,
            worker_id="w-new", poll_s=0.01,
        )
        loop.stop()
        assert loop.run() == 1
        record = store.get("job-a")
        assert record.state == "done"
        assert record.result["resumed"] is False
        store.close()

    def test_lease_lost_worker_records_nothing(self, tmp_path):
        # A worker that keeps running after its lease was reclaimed must
        # not clobber the new owner's job row.
        store = JobStore(tmp_path / "jobs.sqlite")
        store.submit(make_record("job-a"))
        record = store.claim_next("w-old", lease_s=5.0, now=time.time())
        release = threading.Event()

        def slow_runner(algorithm, experiment_id, callbacks=(), **kwargs):
            generation = 0
            while not release.wait(0.01):
                for callback in callbacks:
                    callback(generation, None)
                generation += 1
            return build_summary()

        loop = WorkerLoop(store, runner=slow_runner, worker_id="w-old",
                          lease_s=5.0)
        thread = threading.Thread(target=loop.run_job, args=(record,))
        thread.start()
        try:
            # The reaper decides w-old is dead and hands the job over.
            assert wait_for(
                lambda: bool(store.requeue_expired(now=time.time() + 60.0))
            )
            store.claim_next("w-new", lease_s=300.0)
            thread.join(DEADLINE_S)
            assert not thread.is_alive()
            # w-old aborted via JobLeaseLost: the row still belongs to w-new.
            record = store.get("job-a")
            assert record.state == "running"
            assert record.lease_owner == "w-new"
        finally:
            release.set()
            thread.join(DEADLINE_S)
            store.close()


    def test_submit_wakes_an_idle_loop_at_once(self, tmp_path):
        # The loop shares the submitter's JobStore object but no
        # JobManager: the submit itself must end the loop's idle wait,
        # and stop() must end it too, long before poll_s runs out.
        store = JobStore(tmp_path / "jobs.sqlite")
        idle = threading.Event()
        claim_next = store.claim_next

        def watched_claim(*args, **kwargs):
            record = claim_next(*args, **kwargs)
            if record is None:
                idle.set()
            return record

        store.claim_next = watched_claim
        started = threading.Event()

        def runner(algorithm, experiment_id, **kwargs):
            started.set()
            return build_summary()

        loop = WorkerLoop(store, runner=runner, worker_id="w", poll_s=5.0)
        thread = threading.Thread(target=loop.run)
        thread.start()
        try:
            assert idle.wait(DEADLINE_S)
            submitted = time.monotonic()
            store.submit(make_record("job-a"))
            assert started.wait(DEADLINE_S)
            assert time.monotonic() - submitted < 0.5
            assert wait_for(lambda: store.get("job-a").state == "done")
            idle.clear()
            assert idle.wait(DEADLINE_S)
            stopped = time.monotonic()
            loop.stop()
            thread.join(DEADLINE_S)
            assert not thread.is_alive()
            assert time.monotonic() - stopped < 0.5
        finally:
            loop.stop()
            thread.join(DEADLINE_S)
            store.close()


class TestKillDashNine:
    @pytest.mark.slow
    def test_killed_worker_job_resumes_byte_identical(self, tmp_path, capsys):
        """kill -9 a real worker mid-optimization; the reclaimed job's
        resumed result must be byte-identical to an uninterrupted run —
        and the job's single trace id must stitch both attempts."""
        data_dir = tmp_path / "serve-data"
        jobs_dir = data_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        store = JobStore(data_dir / "jobs.sqlite")
        params = {
            "algorithm": "tpg",
            "generations": 60,
            "population": 16,
            "n_mc": 2,
            "checkpoint_every": 3,
            "experiment_id": "kill9",
            "seed_index": 0,
            "surface": "amp",
        }
        checkpoint = jobs_dir / "job-kill9.ckpt"
        store.submit(
            JobRecord(
                id="job-kill9",
                kind="run_one",
                params=params,
                ledger_path=str(jobs_dir / "job-kill9.ledger.jsonl"),
                checkpoint_path=str(checkpoint),
                trace_id="kill9-trace",
            )
        )

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "workers", "-n", "1",
                "--data-dir", str(data_dir), "--lease", "5",
                "--poll", "0.05", "--max-jobs", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for real progress (first checkpoint), then murder the
            # worker with no chance to clean up.
            assert wait_for(checkpoint.exists, DEADLINE_S), (
                "worker never wrote a checkpoint"
            )
            assert store.get("job-kill9").state == "running"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(DEADLINE_S)

        # The dead worker stopped heartbeating: its lease expires and the
        # job goes back in the queue with its attempt count intact.
        requeued = store.requeue_expired(now=time.time() + 60.0)
        assert [r.id for r in requeued] == ["job-kill9"]
        assert store.get("job-kill9").state == "queued"
        assert store.get("job-kill9").attempt == 1

        # The requeued row still carries the trace the submitter minted.
        assert store.get("job-kill9").trace_id == "kill9-trace"

        # A fresh worker claims it and resumes from the checkpoint.
        from repro.obs.tracing import TraceRecorder

        surfaces = SurfaceStore(data_dir / "surfaces")
        loop = WorkerLoop(
            surfaces=surfaces, jobs=store, worker_id="w-new",
            recorder=TraceRecorder.for_process(data_dir / "traces", "w-new"),
        )
        loop.stop()
        assert loop.run() == 1
        record = store.get("job-kill9")
        assert record.state == "done", record.error
        assert record.attempt == 2
        assert record.result["resumed"] is True

        # Byte-identity: an uninterrupted run with the same derivation
        # inputs produces the same front, hypervolume and surface JSON.
        scale = Scale(population=16, generations=60, n_mc=2, n_seeds=1,
                      label="serve")
        baseline = run_one(
            "tpg", "kill9", seed_index=0, scale=scale,
            generations=scale.generations,
        )
        run = record.result["runs"][0]
        assert run["hv_paper"] == baseline.hv_paper
        assert run["front_size"] == baseline.front_size
        expected = DesignSurface.from_results([baseline.result]).to_dict()
        registered = json.loads(
            surfaces.path_for("amp", record.surface["version"]).read_text()
        )
        assert registered == json.loads(json.dumps(expected))

        # --- trace continuity across the kill -----------------------------
        # Both attempts exported spans under the one trace id: the killed
        # worker left a dangling start record (no end — that is the
        # evidence of the kill), the resuming worker a completed span.
        from repro.obs.tracing import collect_trace, stitch_trace

        events = collect_trace(data_dir / "traces", trace_id="kill9-trace")
        roots = stitch_trace(events)
        by_attempt = {
            n.get("attempt"): n for n in roots if n["name"] == "worker:attempt"
        }
        assert set(by_attempt) == {1, 2}
        assert by_attempt[1]["in_progress"] is True
        assert by_attempt[2]["in_progress"] is False
        assert {c["name"] for c in by_attempt[2]["children"]} >= {
            "worker:resume", "worker:finish",
        }

        # The killed worker's torn trace file reads cleanly (at most the
        # final line is dropped) and left no stray temp files behind.
        assert not list((data_dir / "traces").glob(".tmp*"))

        # Every ledger event of either attempt carries the trace id, and
        # both attempts are represented.
        ledger_lines = (
            (jobs_dir / "job-kill9.ledger.jsonl").read_text().splitlines()
        )
        ledger_events = []
        for line in ledger_lines:
            try:
                ledger_events.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line the kill tore mid-append
        assert ledger_events
        assert all(e["trace_id"] == "kill9-trace" for e in ledger_events)
        assert {e["attempt"] for e in ledger_events} == {1, 2}

        # Surface provenance names the trace and the attempt that won.
        meta = surfaces.metadata("amp", record.surface["version"])
        assert meta["trace_id"] == "kill9-trace"
        assert meta["attempt"] == 2
        assert meta["resumed"] is True

        # `repro trace-view` renders the stitched two-attempt tree.
        from repro.cli import main as cli_main

        assert cli_main(
            ["trace-view", "kill9-trace", "--data-dir", str(data_dir)]
        ) == 0
        rendered = capsys.readouterr().out
        assert "trace kill9-trace" in rendered
        assert "(unfinished)" in rendered
        assert "attempt=1" in rendered and "attempt=2" in rendered
        store.close()


class TestServerRestart:
    def test_new_manager_over_existing_store_runs_queued_jobs(self, tmp_path):
        # Server one: accepts jobs but has no workers, then "crashes"
        # (shutdown without draining anything — the store is the truth).
        first = JobManager(
            data_dir=tmp_path, workers=0, queue_size=8, runner=fast_runner
        )
        # One job finished before the crash (oldest, so the claim gets it).
        finished = first.submit({"algorithm": "sacga"})
        assert first.job_store.claim_next("w0", 30.0).id == finished.id
        first.job_store.finish(
            finished.id, "done", result={"n_runs": 1}, owner="w0"
        )
        queued = [first.submit({"algorithm": "sacga"}) for _ in range(3)]
        first.shutdown()
        first.job_store.close()

        # Server two opens the same data dir: the finished job is still
        # listed with its result, and the queued backlog actually runs.
        second = JobManager(
            data_dir=tmp_path, workers=2, queue_size=8, runner=fast_runner
        )
        try:
            assert second.status(finished.id)["state"] == "done"
            assert second.result(finished.id) == {"n_runs": 1}
            for job in queued:
                assert wait_for(
                    lambda j=job: second.status(j.id)["state"] == "done",
                    DEADLINE_S,
                ), f"job {job.id} never ran after restart"
        finally:
            second.shutdown()
        states = {j["id"]: j["state"] for j in second.list_jobs()}
        assert len(states) == 4
        assert set(states.values()) == {"done"}

    def test_claimed_job_interrupted_by_restart_is_reclaimed(self, tmp_path):
        # A job mid-run when the whole server dies (lease never released)
        # is picked up by the next server once the lease expires.
        first = JobManager(data_dir=tmp_path, workers=0, queue_size=8)
        job = first.submit({"algorithm": "sacga"})
        first.job_store.claim_next("dead-server:thread-0", lease_s=0.05)
        first.shutdown()
        first.job_store.close()

        time.sleep(0.1)  # let the abandoned lease expire
        second = JobManager(
            data_dir=tmp_path, workers=1, queue_size=8, runner=fast_runner,
            poll_s=0.01,
        )
        try:
            assert wait_for(
                lambda: second.status(job.id)["state"] == "done", DEADLINE_S
            )
            assert second.status(job.id)["attempt"] == 2
        finally:
            second.shutdown()
