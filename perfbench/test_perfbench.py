"""Tests of the benchmark itself.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench -q
"""

import copy
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["explore", "campaign", "serve"])
def test_short_run_emits_every_metric_with_its_unit(
    capsys, monkeypatch, workload, trace
):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    argv =["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    declared = {
        m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME_RE.match(name)
        assert metric["unit"] == declared[name]
        assert np.isfinite(metric["value"])


def test_wrappers_are_restored_and_leave_no_trace():
    originals = [
        (owner, attr, vars(owner)[attr])
        for _wid, owner, attr, _factory in layers.wrapper_plan()
    ]
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with layers.installed(tracer):
            assert all(vars(o)[a] is not raw for o, a, raw in originals)
            raise RuntimeError("restore on the way out of an error too")
    assert all(vars(o)[a] is raw for o, a, raw in originals)

    from repro.circuits.mosfet import MosfetModel
    from repro.circuits.technology import nominal_technology

    MosfetModel(nominal_technology().nmos).vgs_for_current(1e-5, 1e-6, 1e-5, 0.5)
    assert not tracer.calls and not tracer.fired


def test_self_times_exclude_child_spans():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        with tracer.span("other"):
            with tracer.span("inner"):
                pass
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.busy["outer"])
    assert tracer.self_s["outer"] < tracer.busy["outer"]
    assert tracer.self_s["other"] < tracer.busy["other"]


def test_time_outside_every_layer_is_rejected():
    covered = layers.Tracer()
    with covered.span(run.ROOT_SPAN):
        with covered.span("layer"):
            time.sleep(0.05)
    assert run.unattributed_errors(covered) == []

    uncovered = layers.Tracer()
    with uncovered.span(run.ROOT_SPAN):
        time.sleep(0.02)
        with uncovered.span("layer"):
            time.sleep(0.02)
    assert run.unattributed_errors(uncovered)


def test_card_tags_follow_the_sizing_problem_stacks():
    problem = workloads.make_problem(scale=workloads.EXPLORE_SCALE)
    assert layers.card_tag(problem.tech) == "nominal"
    assert layers.card_tag(problem._corner_tech) == "corner"
    assert layers.card_tag(problem._mc_tech) == "mc"


def test_campaign_check_rejects_a_corrupted_report(tmp_path):
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.serve import SurfaceStore

    problem = workloads.make_problem(scale=workloads.EXPLORE_SCALE)
    x = problem.lower + np.random.default_rng(0).random((3, problem.n_var)) * (
        problem.upper - problem.lower
    )
    nominal = problem.evaluate_batch(x).objectives[:, 0]
    runner = CampaignRunner(tmp_path / "c", surfaces=SurfaceStore(tmp_path / "s"))
    spec = CampaignSpec(corners=("TT", "SS"), n_mc=4, yield_target=0.0)
    manifest = runner.create(spec, x, x[:, 14], nominal, derated_surface="d")
    report = runner.run_inline(manifest)
    assert workloads.check_campaign_report(report, 3, 2) == []

    outside = copy.deepcopy(report)
    outside["designs"][1]["yield_hi"] = outside["designs"][1]["yield"] - 0.1
    assert workloads.check_campaign_report(outside, 3, 2)
    miscounted = dict(report, n_evaluations=report["n_evaluations"] - 1)
    assert workloads.check_campaign_report(miscounted, 3, 2)
    unregistered = dict(report, derated_surface={"registered": False})
    assert workloads.check_campaign_report(unregistered, 3, 2)


def test_query_and_job_checks_reject_corrupted_outputs():
    assert workloads.check_power(0.5, 0.0, 1.0) == []
    assert workloads.check_power(float("nan"), 0.0, 1.0)
    assert workloads.check_power(1.5, 0.0, 1.0)
    assert workloads.check_job({"id": "j", "state": "done", "surface": {"name": "s"}}) == []
    assert workloads.check_job({"id": "j", "state": "done", "surface": None})
    assert workloads.check_job({"id": "j", "state": "failed", "error": "boom"})


@pytest.mark.parametrize("workload", ["explore", "campaign", "serve"])
def test_reference_check_rejects_drifted_quality(workload):
    recorded = json.loads(run.REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    assert run.reference_errors(workload, recorded) == []
    assert run.reference_errors(workload, dict(recorded, coverage=0.0))
    assert run.reference_errors(
        workload, dict(recorded, hv_paper=1.15 * recorded["hv_paper"])
    )
    assert run.reference_errors(
        workload, dict(recorded, hv_paper=0.85 * recorded["hv_paper"])
    )


def test_serve_flags_a_job_that_ends_with_an_empty_front(tmp_path, monkeypatch):
    """Job seed index 8 ends ``done`` with an empty front: no surface is
    registered, so the describe call and every query 404.  All of it must
    count as failed, none of it masked by an earlier surface."""
    monkeypatch.setattr(workloads, "SERVE_SEED_POOL", (8,))
    monkeypatch.setattr(workloads, "HTTP_QUERIES", 5)
    workload = workloads.Serve(tmp_path, seed=0)
    workload.setup()
    try:
        it = workload.iterate()
    finally:
        workload.close()
    assert it.attempted == 1 + 1 + 5
    assert it.failed == it.attempted
    assert any("registered no surface" in e for e in it.errors)
    assert any("404" in e for e in it.errors)
