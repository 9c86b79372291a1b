"""Tests for the CampaignRunner: create/run/resume/finalize lifecycle.

The headline acceptance test lives here: aggregated yields must be
byte-identical between an uninterrupted in-process run and a run that
was interrupted mid-campaign and resumed by a different runner instance
(the in-process analogue of the kill -9 CI smoke).
"""

import json
import threading

import numpy as np
import pytest

from repro.campaign.engine import CampaignRunner, UnknownCampaign
from repro.campaign.scenarios import CampaignSpec, OperatingCondition
from repro.campaign.shards import ShardResult, write_shard
from repro.obs.registry import MetricsRegistry
from repro.serve.surfaces import SurfaceStore

# Report keys that depend only on the evaluation, not on campaign
# identity (id, trace) or shard plan — the byte-identity contract
# compares exactly these.
COMPARABLE_KEYS = (
    "designs", "scenario_pass_rate", "n_designs", "n_scenarios", "n_mc",
    "n_evaluations", "yield_target", "n_yielding", "min_yield",
    "median_yield",
)


def comparable(report):
    return json.dumps(
        {k: report[k] for k in COMPARABLE_KEYS}, sort_keys=True
    )


@pytest.fixture
def runner(tmp_path):
    return CampaignRunner(tmp_path / "campaigns")


@pytest.fixture
def batch(designs):
    c_load = np.array([1e-12, 2e-12, 3e-12])
    nominal_power = np.array([1e-4, 1.1e-4, 1.2e-4])
    return designs, c_load, nominal_power


class TestCreate:
    def test_manifest_and_files(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(
            tiny_spec, x, c_load, power, campaign_id="camp-a",
            source={"kind": "test"},
        )
        assert manifest["id"] == "camp-a"
        assert manifest["n_designs"] == 3
        assert manifest["scenario_keys"] == ["TT@nom", "SS@nom"]
        assert manifest["shards"] == [[0], [1]]
        assert manifest["trace_id"]
        assert runner.manifest_path("camp-a").exists()
        rx, rc, rp = runner.designs(manifest)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(rc, c_load)
        np.testing.assert_array_equal(rp, power)

    def test_load_round_trip(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        created = runner.create(
            tiny_spec, x, c_load, power, campaign_id="camp-rt"
        )
        assert runner.load("camp-rt") == created

    def test_duplicate_id_refused(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        runner.create(tiny_spec, x, c_load, power, campaign_id="camp-dup")
        with pytest.raises(ValueError, match="already exists"):
            runner.create(tiny_spec, x, c_load, power, campaign_id="camp-dup")

    def test_concurrent_creates_of_one_id(self, runner, tiny_spec, batch, monkeypatch):
        """Two threads that create the same id at once: exactly one
        returns, the other raises the documented ValueError, and the
        manifest on disk is the winner's.

        Each thread that passes the existence check waits in
        ``expand_scenarios`` for the other one.  Creators queue on the
        campaign lock, so only one gets there; its wait times out, and
        the test does not deadlock."""
        import repro.campaign.engine as engine

        x, c_load, power = batch
        both_creating = threading.Barrier(2, timeout=2)
        real_expand = engine.expand_scenarios

        def expand_when_both_there(spec):
            try:
                both_creating.wait()
            except threading.BrokenBarrierError:
                pass  # the other creator is queued on the lock
            return real_expand(spec)

        monkeypatch.setattr(engine, "expand_scenarios", expand_when_both_there)
        manifests, errors = [], []

        def create(trace_id):
            try:
                manifests.append(
                    runner.create(
                        tiny_spec, x, c_load, power,
                        campaign_id="camp-race", trace_id=trace_id,
                    )
                )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=create, args=(trace_id,))
            for trace_id in ("a" * 32, "b" * 32)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert len(manifests) == 1
        assert [type(e) for e in errors] == [ValueError]
        assert "already exists" in str(errors[0])
        assert runner.load("camp-race") == manifests[0]

    def test_bad_id_refused(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        with pytest.raises(ValueError, match="invalid campaign id"):
            runner.create(tiny_spec, x, c_load, power, campaign_id="../evil")

    def test_inconsistent_batch_refused(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        with pytest.raises(ValueError, match="inconsistent design batch"):
            runner.create(tiny_spec, x, c_load[:2], power)

    def test_empty_batch_refused(self, runner, tiny_spec):
        with pytest.raises(ValueError, match="at least one design"):
            runner.create(
                tiny_spec, np.zeros((0, 15)), np.zeros(0), np.zeros(0)
            )

    def test_unknown_campaign(self, runner):
        with pytest.raises(UnknownCampaign):
            runner.load("no-such-campaign")


class TestShardLifecycle:
    def test_run_shard_persists(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        assert runner.pending_shards(manifest) == [0, 1]
        result = runner.run_shard(manifest, 0)
        assert result.scenario_keys == ["TT@nom"]
        assert runner.shard_path(manifest["id"], 0).exists()
        assert runner.pending_shards(manifest) == [1]

    def test_run_shard_skips_existing(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        first = runner.run_shard(manifest, 0)
        again = runner.run_shard(manifest, 0)
        assert json.dumps(again.to_dict()) == json.dumps(first.to_dict())

    def test_run_shard_out_of_range(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        with pytest.raises(ValueError, match="out of range"):
            runner.run_shard(manifest, 7)

    def test_status_progression(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        status = runner.status(manifest)
        assert status["complete"] is False
        assert status["shards_done"] == 0
        runner.run_inline(manifest)
        status = runner.status(manifest)
        assert status["complete"] is True
        assert status["shards_done"] == 2
        assert status["report_ready"] is True

    def test_metrics_counters(self, tmp_path, tiny_spec, batch):
        registry = MetricsRegistry()
        runner = CampaignRunner(tmp_path / "c", metrics=registry)
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        runner.run_shard(manifest, 0)
        runner.run_shard(manifest, 0)  # skipped
        from repro.obs.exporters import to_prometheus

        text = to_prometheus(registry)
        assert 'repro_campaign_shards_total{state="done"} 1' in text
        assert 'repro_campaign_shards_total{state="skipped"} 1' in text
        assert "repro_campaign_created_total 1" in text


class TestFinalize:
    def test_incomplete_raises(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        runner.run_shard(manifest, 0)
        with pytest.raises(ValueError, match="incomplete"):
            runner.finalize(manifest)

    def test_idempotent(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(tiny_spec, x, c_load, power)
        first = runner.run_inline(manifest)
        second = runner.finalize(manifest)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_concurrent_finalizers_in_one_process(
        self, tmp_path, batch, monkeypatch
    ):
        """Two threads that finalize at once register one derated
        version, and both return the report that names it.

        Each thread that reaches registration waits there for the other
        one.  Finalizers queue on the campaign lock, so only one gets
        there; its wait times out, and the test does not deadlock."""
        store = SurfaceStore(tmp_path / "surfaces")
        runner = CampaignRunner(tmp_path / "campaigns", surfaces=store)
        # Target 0: every design yields, so the derated surface registers.
        spec = CampaignSpec(
            corners=("TT", "SS"), n_mc=4, shard_scenarios=1, yield_target=0.0
        )
        x, c_load, power = batch
        manifest = runner.create(
            spec, x, c_load, power, derated_surface="front-derated"
        )
        for index in range(len(manifest["shards"])):
            runner.run_shard(manifest, index)
        both_registering = threading.Barrier(2, timeout=2)
        real_register = store.register

        def register_when_both_there(*args, **kwargs):
            try:
                both_registering.wait()
            except threading.BrokenBarrierError:
                pass  # the other finalizer is queued on the lock
            return real_register(*args, **kwargs)

        monkeypatch.setattr(store, "register", register_when_both_there)
        reports, errors = [], []

        def finalize():
            try:
                reports.append(runner.finalize(manifest))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=finalize) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(reports) == 2
        assert store.versions("front-derated") == [1]
        assert reports[0]["derated_surface"]["version"] == 1
        assert json.dumps(reports[0]) == json.dumps(reports[1])
        stored = runner.report_path(manifest["id"]).read_text(encoding="utf-8")
        assert json.loads(stored) == reports[0]

    def test_report_contents(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(
            tiny_spec, x, c_load, power, source={"kind": "test"}
        )
        report = runner.run_inline(manifest)
        assert report["campaign"] == manifest["id"]
        assert report["trace_id"] == manifest["trace_id"]
        assert report["source"] == {"kind": "test"}
        assert report["n_designs"] == 3
        assert report["n_scenarios"] == 2
        assert len(report["designs"]) == 3
        for d in report["designs"]:
            assert d["derated_power"] >= d["nominal_power"]
            assert 0.0 <= d["yield_lo"] <= d["yield"] <= d["yield_hi"] <= 1.0

    def test_no_store_reports_unregistered(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        manifest = runner.create(
            tiny_spec, x, c_load, power, derated_surface="front-derated"
        )
        report = runner.run_inline(manifest)
        derated = report["derated_surface"]
        if derated["registered"] is False:
            assert "reason" in derated

    def test_all_fail_skips_registration(self, runner, batch, tmp_path):
        # Hand-written all-fail shard: nobody meets the target, so no
        # surface is registered and the report says why.
        spec = CampaignSpec(corners=("TT",), n_mc=2, shard_scenarios=1)
        x, c_load, power = batch
        manifest = runner.create(
            spec, x, c_load, power, derated_surface="never-derated"
        )
        write_shard(
            runner.shard_path(manifest["id"], 0),
            ShardResult(
                shard_index=0,
                scenario_keys=["TT@nom"],
                n_mc=2,
                power=np.full((1, 3), 5e-4),
                passes=np.zeros((1, 2, 3), dtype=bool),
                n_evaluations=3,
            ),
        )
        report = runner.finalize(manifest)
        assert report["n_yielding"] == 0
        assert report["derated_surface"]["registered"] is False
        assert "yield target" in report["derated_surface"]["reason"]


class TestSurfaceIntegration:
    def test_create_from_surface_and_register_derated(
        self, tmp_path, tiny_spec, batch
    ):
        from repro.experiments.tradeoff import DesignSurface

        store = SurfaceStore(tmp_path / "surfaces")
        x, c_load, power = batch
        store.register("front", DesignSurface(x, c_load, power))
        runner = CampaignRunner(tmp_path / "campaigns", surfaces=store)
        manifest = runner.create_from_surface(store, "front", tiny_spec)
        assert manifest["source"]["kind"] == "surface"
        assert manifest["source"]["surface"] == "front"
        assert manifest["derated_surface"] == "front-derated"
        report = runner.run_inline(manifest)
        derated = report["derated_surface"]
        if derated["registered"]:
            surface = store.load("front-derated")
            meta = store.metadata("front-derated", derated["version"])
            assert meta["kind"] == "derated"
            assert meta["campaign"] == manifest["id"]
            assert meta["trace_id"] == manifest["trace_id"]
            assert surface.size == derated["size"]
            # Derating never undercuts the nominal surface at its knots.
            nominal = store.load("front")
            for cl, pw in zip(surface.c_load, surface.power):
                assert pw >= nominal.power_at(cl) - 1e-18

    def test_create_from_surface_unknown(self, tmp_path, tiny_spec):
        from repro.serve.surfaces import UnknownSurface

        store = SurfaceStore(tmp_path / "surfaces")
        runner = CampaignRunner(tmp_path / "campaigns", surfaces=store)
        with pytest.raises(UnknownSurface):
            runner.create_from_surface(store, "ghost", tiny_spec)


class TestCheckpointSource:
    def test_create_from_checkpoint(self, runner, tiny_spec, tmp_path, designs):
        from repro.core.checkpoint import save_checkpoint
        from repro.core.evaluation import Evaluation
        from repro.core.individual import Population

        # A feasible 3-member population whose objectives follow the
        # optimizer's (power, c_load margin) convention.
        power = np.array([1e-4, 1.1e-4, 1.2e-4])
        margin = np.array([3e-12, 2e-12, 1e-12])
        evaluation = Evaluation(
            objectives=np.column_stack([power, margin]),
            constraints=np.zeros((3, 0)),
        )
        population = Population(designs, evaluation)
        payload = {
            "version": 1,
            "algorithm": "test",
            "problem": "IntegratorSizing",
            "n_generations": 5,
            "generation": 3,
            "rng_state": None,
            "loop_state": {"population": population},
            "history": [],
            "n_evaluations": 0,
            "backend_stats": {"n_batches": 0, "eval_time": 0.0},
            "wall_time": 0.0,
        }
        path = save_checkpoint(payload, tmp_path / "ckpt.pkl")
        manifest = runner.create_from_checkpoint(path, tiny_spec)
        assert manifest["source"]["kind"] == "checkpoint"
        assert manifest["source"]["generation"] == 3
        assert manifest["n_designs"] >= 1
        x, c_load, nominal = runner.designs(manifest)
        # c_load comes from column 14 and power from objective 0.
        assert set(np.round(c_load, 20)) <= set(np.round(designs[:, 14], 20))


class TestResumeByteIdentity:
    """The acceptance contract: interruption must not change a byte."""

    def test_interrupted_resume_matches_uninterrupted(
        self, tmp_path, tiny_spec, batch
    ):
        x, c_load, power = batch

        # Baseline: uninterrupted inline run, one shard per scenario.
        baseline_runner = CampaignRunner(tmp_path / "a")
        baseline = baseline_runner.run_inline(
            baseline_runner.create(tiny_spec, x, c_load, power)
        )

        # Interrupted: a first runner completes only shard 0 and "dies";
        # a brand-new runner instance (fresh process state) resumes.
        crash_runner = CampaignRunner(tmp_path / "b")
        manifest = crash_runner.create(
            tiny_spec, x, c_load, power, campaign_id="resumed"
        )
        crash_runner.run_shard(manifest, 0)
        del crash_runner

        resumed_runner = CampaignRunner(tmp_path / "b")
        reloaded = resumed_runner.load("resumed")
        assert resumed_runner.pending_shards(reloaded) == [1]
        report = resumed_runner.run_inline(reloaded)
        assert comparable(report) == comparable(baseline)

    def test_stored_contiguous_plan_runs_to_the_same_report(self, tmp_path, batch):
        # A campaign created before shards were planned by op-amp card
        # stored contiguous chunks of its nom/hot grid in its manifest;
        # it resumes on that plan, to the report a fresh campaign gives.
        x, c_load, power = batch
        spec = CampaignSpec(
            corners=("TT", "SS"), n_mc=4, shard_scenarios=1,
            conditions=(
                OperatingCondition("nom"),
                OperatingCondition("hot", temperature=358.15),
            ),
        )
        runner = CampaignRunner(tmp_path / "plans")
        fresh = runner.create(spec, x, c_load, power, campaign_id="fresh")
        assert fresh["shards"] == [[0, 1], [2, 3]]
        old = runner.create(spec, x, c_load, power, campaign_id="old")
        manifest_path = runner.manifest_path("old")
        stored = json.loads(manifest_path.read_text(encoding="utf-8"))
        stored["shards"] = [[0], [1], [2], [3]]
        manifest_path.write_text(json.dumps(stored), encoding="utf-8")

        old = runner.load("old")
        assert runner.pending_shards(old) == [0, 1, 2, 3]
        rep_old = runner.run_inline(old)
        rep_fresh = runner.run_inline(fresh)
        assert rep_old["n_shards"] == 4
        assert rep_fresh["n_shards"] == 2
        assert comparable(rep_old) == comparable(rep_fresh)

    def test_single_vs_multi_shard_identical(self, tmp_path, batch):
        x, c_load, power = batch
        one = CampaignSpec(corners=("TT", "SS"), n_mc=4, shard_scenarios=2)
        many = CampaignSpec(corners=("TT", "SS"), n_mc=4, shard_scenarios=1)
        runner = CampaignRunner(tmp_path / "c")
        rep_one = runner.run_inline(runner.create(one, x, c_load, power))
        rep_many = runner.run_inline(runner.create(many, x, c_load, power))
        assert rep_one["n_shards"] == 1
        assert rep_many["n_shards"] == 2
        assert comparable(rep_one) == comparable(rep_many)


class TestListCampaigns:
    def test_lists_created(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        runner.create(tiny_spec, x, c_load, power, campaign_id="list-a")
        runner.create(tiny_spec, x, c_load, power, campaign_id="list-b")
        ids = [s["id"] for s in runner.list_campaigns()]
        assert ids == ["list-a", "list-b"]

    def test_skips_non_campaign_dirs(self, runner, tiny_spec, batch):
        x, c_load, power = batch
        runner.create(tiny_spec, x, c_load, power, campaign_id="only")
        (runner.root / "stray").mkdir()
        ids = [s["id"] for s in runner.list_campaigns()]
        assert ids == ["only"]
