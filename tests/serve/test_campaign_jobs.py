"""Campaign shards as durable jobs, end to end through the serve layer.

Covers submit-time validation of ``campaign_shard`` jobs, WorkerLoop
execution (including the lease-expiry requeue path and the opportunistic
finalize by whichever worker lands the last shard), and the socket-free
HTTP routes (``POST/GET /campaigns``).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.campaign.engine import CampaignRunner
from repro.campaign.scenarios import CampaignSpec
from repro.obs.registry import MetricsRegistry
from repro.serve import JobManager, ServeApp, SurfaceStore
from repro.serve.store import JobStore
from repro.serve.worker import WorkerLoop

from tests.campaign.conftest import design_batch
from tests.campaign.test_engine import comparable

DEADLINE_S = 60.0

TINY_SPEC = CampaignSpec(
    corners=("TT", "SS"), n_mc=4, shard_scenarios=1, yield_target=0.5
)


def make_campaign(tmp_path, campaign_id="camp-jobs", spec=TINY_SPEC):
    runner = CampaignRunner(tmp_path / "campaigns")
    x = design_batch()
    manifest = runner.create(
        spec,
        x,
        np.array([1e-12, 2e-12, 3e-12]),
        np.array([1e-4, 1.1e-4, 1.2e-4]),
        campaign_id=campaign_id,
    )
    return runner, manifest


def drain(store, **kwargs):
    """Run a WorkerLoop until the queue is empty, then return it."""
    loop = WorkerLoop(store, poll_s=0.01, **kwargs)
    loop.stop()
    loop.run()
    return loop


class TestSubmitValidation:
    @pytest.fixture
    def manager(self, tmp_path):
        manager = JobManager(data_dir=tmp_path, workers=0)
        yield manager
        manager.shutdown()

    def test_requires_pointer_params(self, manager, tmp_path):
        with pytest.raises(ValueError, match="campaign_id"):
            manager.submit({}, kind="campaign_shard")
        with pytest.raises(ValueError, match="shard_index"):
            manager.submit(
                {"campaign_id": "c", "campaign_root": str(tmp_path)},
                kind="campaign_shard",
            )

    def test_rejects_run_one_params(self, manager, tmp_path):
        with pytest.raises(ValueError, match="unknown job parameters"):
            manager.submit(
                {
                    "campaign_id": "c",
                    "campaign_root": str(tmp_path),
                    "shard_index": 0,
                    "algorithm": "sacga",
                },
                kind="campaign_shard",
            )

    def test_rejects_bad_backend(self, manager, tmp_path):
        # Shards have no evaluation-backend option any more.
        with pytest.raises(ValueError, match="unknown job parameters.*backend"):
            manager.submit(
                {
                    "campaign_id": "c",
                    "campaign_root": str(tmp_path),
                    "shard_index": 0,
                    "backend": "carrier-pigeon",
                },
                kind="campaign_shard",
            )

    def test_accepts_and_coerces(self, manager, tmp_path):
        record = manager.submit(
            {
                "campaign_id": "c",
                "campaign_root": str(tmp_path),
                "shard_index": "1",
            },
            kind="campaign_shard",
        )
        assert record.kind == "campaign_shard"
        assert record.params["shard_index"] == 1
        assert record.ledger_path is None
        assert record.checkpoint_path is None
        assert record.trace_id

    def test_campaign_params_not_valid_for_run_one(self, manager, tmp_path):
        with pytest.raises(ValueError, match="unknown job parameters"):
            manager.submit(
                {"algorithm": "sacga", "campaign_id": "c"}, kind="run_one"
            )


class TestWorkerExecution:
    def test_worker_runs_shards_and_finalizes(self, tmp_path):
        runner, manifest = make_campaign(tmp_path)
        store = JobStore(tmp_path / "jobs.sqlite")
        submitted = runner.submit_shards(manifest, store)
        assert len(submitted) == 2
        assert all(r.trace_id == manifest["trace_id"] for r in submitted)

        drain(store, worker_id="w-camp")

        for record in submitted:
            final = store.get(record.id)
            assert final.state == "done"
            assert final.result["kind"] == "campaign_shard"
            assert final.result["campaign"] == manifest["id"]
        # Whichever worker landed the last shard finalized the campaign.
        assert runner.report_path(manifest["id"]).exists()
        finalized = [store.get(r.id).result["finalized"] for r in submitted]
        assert sum(finalized) == 1
        assert not runner.pending_shards(manifest)

    def test_resubmission_is_idempotent(self, tmp_path):
        runner, manifest = make_campaign(tmp_path)
        store = JobStore(tmp_path / "jobs.sqlite")
        first = runner.submit_shards(manifest, store)
        again = runner.submit_shards(manifest, store)
        assert len(first) == 2
        assert again == []  # both shards already queued

    def test_lease_expiry_requeue_byte_identical(self, tmp_path):
        # Baseline: uninterrupted inline campaign over the same batch.
        baseline_runner, baseline_manifest = make_campaign(
            tmp_path / "baseline"
        )
        baseline = baseline_runner.run_inline(baseline_manifest)

        runner, manifest = make_campaign(tmp_path / "durable")
        store = JobStore(tmp_path / "jobs.sqlite")
        submitted = runner.submit_shards(manifest, store)

        # A doomed worker claims shard job 0 and "dies" (never
        # heartbeats); after the lease expires the job requeues and a
        # healthy worker takes over.
        claimed = store.claim_next("w-doomed", lease_s=5.0, now=1000.0)
        assert claimed.id in {r.id for r in submitted}
        requeued = store.requeue_expired(now=2000.0)
        assert [r.id for r in requeued] == [claimed.id]

        drain(store, worker_id="w-healthy")

        report = runner.finalize(runner.load(manifest["id"]))
        assert store.get(claimed.id).state == "done"
        assert store.get(claimed.id).attempt == 2
        assert comparable(report) == comparable(baseline)

    def test_completed_shard_not_reevaluated(self, tmp_path):
        runner, manifest = make_campaign(tmp_path)
        runner.run_shard(manifest, 0)
        before = runner.shard_path(manifest["id"], 0).stat().st_mtime_ns

        store = JobStore(tmp_path / "jobs.sqlite")
        submitted = runner.submit_shards(manifest, store)
        # Only the pending shard is enqueued...
        assert [r.params["shard_index"] for r in submitted] == [1]
        drain(store, worker_id="w")
        # ...and the finished shard's result file was never rewritten.
        after = runner.shard_path(manifest["id"], 0).stat().st_mtime_ns
        assert after == before
        assert runner.report_path(manifest["id"]).exists()


def make_app(tmp_path, workers=1):
    registry = MetricsRegistry()
    store = SurfaceStore(tmp_path / "surfaces")
    manager = JobManager(
        store=store, data_dir=tmp_path, workers=workers, metrics=registry
    )
    return ServeApp(manager, store, registry)


def body_json(response):
    status, content_type, payload = response
    assert content_type.startswith("application/json")
    return status, json.loads(payload.decode("utf-8"))


def register_front(store, name="front"):
    from repro.experiments.tradeoff import DesignSurface

    x = design_batch()
    store.register(
        name,
        DesignSurface(
            x, np.array([1e-12, 2e-12, 3e-12]), np.array([1e-4, 1.1e-4, 1.2e-4])
        ),
    )


class TestHttpCampaigns:
    SPEC = {"corners": ["TT"], "n_mc": 2, "shard_scenarios": 1}

    def test_missing_surface_key_400(self, tmp_path):
        app = make_app(tmp_path, workers=0)
        try:
            status, payload = body_json(
                app.handle("POST", "/campaigns", b"{}")
            )
            assert status == 400
            assert "surface" in payload["error"]
        finally:
            app.manager.shutdown()

    def test_unknown_surface_404(self, tmp_path):
        app = make_app(tmp_path, workers=0)
        try:
            status, payload = body_json(
                app.handle("POST", "/campaigns", b'{"surface": "ghost"}')
            )
            assert status == 404
        finally:
            app.manager.shutdown()

    def test_unknown_campaign_404(self, tmp_path):
        app = make_app(tmp_path, workers=0)
        try:
            status, _ = body_json(app.handle("GET", "/campaigns/nope"))
            assert status == 404
        finally:
            app.manager.shutdown()

    def test_bad_spec_400(self, tmp_path):
        app = make_app(tmp_path, workers=0)
        register_front(app.store)
        try:
            body = json.dumps(
                {"surface": "front", "spec": {"corners": ["XX"]}}
            ).encode()
            status, payload = body_json(app.handle("POST", "/campaigns", body))
            assert status == 400
            assert "unknown corners" in payload["error"]
        finally:
            app.manager.shutdown()

    def test_unknown_body_keys_400(self, tmp_path):
        """A misspelt key (which used to fall back silently to the latest
        surface version) and the removed ``backend`` option are both
        rejected, and no campaign or shard job is created."""
        app = make_app(tmp_path, workers=0)
        register_front(app.store)
        try:
            for extra in ({"verison": 1}, {"backend": "serial"}):
                body = json.dumps(
                    {"surface": "front", "spec": self.SPEC, **extra}
                ).encode()
                status, payload = body_json(
                    app.handle("POST", "/campaigns", body)
                )
                assert status == 400
                assert f"unknown campaign parameters {sorted(extra)}" in (
                    payload["error"]
                )
            assert app.campaigns.list_campaigns() == []
            assert app.manager.list_jobs() == []
        finally:
            app.manager.shutdown()

    def test_full_flow_over_http(self, tmp_path):
        app = make_app(tmp_path, workers=1)
        register_front(app.store)
        try:
            body = json.dumps(
                {"surface": "front", "spec": self.SPEC, "campaign_id": "http-c"}
            ).encode()
            status, payload = body_json(app.handle("POST", "/campaigns", body))
            assert status == 202
            assert payload["id"] == "http-c"
            assert len(payload["jobs"]) == 1

            deadline = time.monotonic() + DEADLINE_S
            while time.monotonic() < deadline:
                status, snap = body_json(app.handle("GET", "/campaigns/http-c"))
                assert status == 200
                if snap.get("report") is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never finished over HTTP")

            report = snap["report"]
            assert report["campaign"] == "http-c"
            assert report["n_scenarios"] == 1
            # The campaign catalog lists it as complete.
            status, listing = body_json(app.handle("GET", "/campaigns"))
            assert [c["id"] for c in listing["campaigns"]] == ["http-c"]
            assert listing["campaigns"][0]["complete"] is True

            # Re-POST of a finished campaign submits nothing new (resume
            # is a no-op when every shard has landed).
            status, payload = body_json(app.handle("POST", "/campaigns", body))
            assert status == 202
            assert payload["jobs"] == []
        finally:
            app.manager.shutdown()

    def test_post_that_loses_the_create_race_resumes(self, tmp_path, monkeypatch):
        """Another POST of the same id creates the campaign between this
        POST's lookup and its create: create raises the documented
        ValueError, and this POST answers as a re-POST of that id."""
        app = make_app(tmp_path, workers=0)
        register_front(app.store)
        real_create = app.campaigns.create_from_surface

        def create_after_the_other_post(*args, **kwargs):
            real_create(*args, **kwargs)  # the other POST wins the race
            return real_create(*args, **kwargs)

        monkeypatch.setattr(
            app.campaigns, "create_from_surface", create_after_the_other_post
        )
        try:
            body = json.dumps(
                {"surface": "front", "spec": self.SPEC, "campaign_id": "race-c"}
            ).encode()
            status, payload = body_json(app.handle("POST", "/campaigns", body))
            assert status == 202, payload
            assert payload["id"] == "race-c"
            assert len(payload["jobs"]) == 1
        finally:
            app.manager.shutdown()

    def test_derated_surface_registered_and_queryable(self, tmp_path):
        app = make_app(tmp_path, workers=1)
        register_front(app.store)
        try:
            body = json.dumps(
                {
                    "surface": "front",
                    "spec": dict(self.SPEC, yield_target=0.0),
                    "campaign_id": "http-d",
                }
            ).encode()
            status, _ = body_json(app.handle("POST", "/campaigns", body))
            assert status == 202
            deadline = time.monotonic() + DEADLINE_S
            while time.monotonic() < deadline:
                _, snap = body_json(app.handle("GET", "/campaigns/http-d"))
                if snap.get("report") is not None:
                    break
                time.sleep(0.05)
            derated = snap["report"]["derated_surface"]
            assert derated["registered"] is True
            assert derated["name"] == "front-derated"
            status, desc = body_json(
                app.handle("GET", "/surfaces/front-derated")
            )
            assert status == 200
        finally:
            app.manager.shutdown()
