"""run_one's observability surface: metrics=, metrics_out=, ledger enrichment."""

import json

import pytest

from repro.obs.records import read_records
from repro.experiments.runner import Scale, resume_run, run_one
from repro.obs.exporters import parse_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import gate_probability_curves
from tests.experiments.test_ledger import Boom, KillAt

TINY = Scale(population=16, generations=5, n_mc=2, n_seeds=1, label="tiny")
# Long enough to get past the default Phase-I cap (10 generations), so
# SACGA's annealing gate actually engages and produces telemetry.
GATED = Scale(population=16, generations=12, n_mc=2, n_seeds=1, label="tiny")


def test_default_run_is_uninstrumented():
    summary = run_one("tpg", "obs-test", scale=TINY)
    assert summary.metrics is None
    assert summary.tracer is None
    assert summary.telemetry is None
    assert summary.profile is None


def test_metrics_true_populates_summary():
    summary = run_one("sacga", "obs-test", scale=GATED, metrics=True)
    names = {name for name, _, _, _ in summary.metrics.collect()}
    assert "repro_generation" in names
    assert "repro_gate_considered_total" in names
    assert summary.telemetry
    assert [r["generation"] for r in summary.telemetry] == list(
        range(GATED.generations + 1)
    )
    assert gate_probability_curves(summary.telemetry)
    top_level = [node["name"] for node in summary.profile]
    assert top_level == ["run"]


def test_supplied_registry_is_reused():
    registry = MetricsRegistry()
    summary = run_one("tpg", "obs-test", scale=TINY, metrics=registry)
    assert summary.metrics is registry
    assert registry.get("repro_generation").value == TINY.generations


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_metrics_out_writes_only_the_prometheus_snapshot(tmp_path):
    prefix = tmp_path / "run"
    ledger = tmp_path / "run.jsonl"
    summary = run_one(
        "mesacga", "obs-test", scale=TINY,
        metrics_out=str(prefix), ledger=str(ledger),
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl", "run.prom"]

    snapshot = parse_prometheus((tmp_path / "run.prom").read_text(encoding="utf-8"))
    assert "repro_generations_total" in snapshot
    assert "repro_backend_batch_seconds" in snapshot

    # The ledger holds the telemetry, one record per generation, as
    # strict JSON, equal to the summary's records.
    lines = ledger.read_text(encoding="utf-8").splitlines()
    events = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    generations = [e for e in events if e["event"] == "generation"]
    assert [
        {"generation": e["generation"], "telemetry": e["telemetry"]}
        for e in generations
    ] == summary.telemetry
    for event in generations:
        assert {"population_size", "front_size"} <= set(event["telemetry"])


def test_run_finished_carries_the_profile(tmp_path):
    ledger = tmp_path / "run.jsonl"
    summary = run_one("sacga", "obs-test", scale=TINY, metrics=True, ledger=str(ledger))
    finished = [e for e in read_records(ledger) if e["event"] == "run_finished"]
    assert len(finished) == 1
    profile = finished[0]["profile"]
    assert profile == summary.profile
    assert [node["name"] for node in profile] == ["run"]
    assert "generation" in {c["name"] for c in profile[0]["children"]}


def test_ledger_generation_events_carry_telemetry(tmp_path):
    path = tmp_path / "trace.jsonl"
    run_one("sacga", "obs-test", scale=TINY, metrics=True, ledger=str(path))
    assert "NaN" not in path.read_text(encoding="utf-8")
    gen_events = [e for e in read_records(path) if e["event"] == "generation"]
    assert gen_events
    for event in gen_events:
        assert "feasible_ratio" in event
        # SACGA's partitioned population may hold slightly fewer members
        # than the configured size, but the sample must be present and sane.
        assert 0 < event["telemetry"]["population_size"] <= TINY.population


def test_uninstrumented_ledger_has_no_telemetry_field(tmp_path):
    path = tmp_path / "trace.jsonl"
    run_one("tpg", "obs-test", scale=TINY, ledger=str(path))
    gen_events = [e for e in read_records(path) if e["event"] == "generation"]
    assert gen_events
    assert all("telemetry" not in e for e in gen_events)
    # The NaN-safety enrichment is on regardless of instrumentation.
    assert all("feasible_ratio" in e for e in gen_events)
    finished = [e for e in read_records(path) if e["event"] == "run_finished"]
    assert finished and "profile" not in finished[0]


def _sample(snapshot, name, sample_name=None):
    (value,) = [
        s["value"]
        for s in snapshot[name]["samples"]
        if s["name"] == (sample_name or name)
    ]
    return value


def test_resumed_run_counts_the_run_and_this_process(tmp_path):
    """After a resume, the Prometheus instruments count the batches this
    process ran (generations 9-12), while the result and ``run_finished``
    count the whole run (generations 0-12)."""
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(Boom):
        run_one(
            "sacga", "obs-resume", scale=GATED, n_partitions=4,
            checkpoint_path=str(ckpt), checkpoint_every=4,
            callbacks=[KillAt(8)],
        )
    prefix = tmp_path / "resumed"
    ledger = tmp_path / "run.jsonl"
    summary = resume_run(
        str(ckpt), metrics=True, metrics_out=str(prefix), ledger=str(ledger)
    )
    snapshot = parse_prometheus((tmp_path / "resumed.prom").read_text("utf-8"))
    batches = _sample(snapshot, "repro_backend_batches_total")
    assert batches == 4
    assert _sample(snapshot, "repro_backend_rows_total") == 4 * GATED.population
    assert (
        _sample(snapshot, "repro_backend_batch_seconds",
                "repro_backend_batch_seconds_count")
        == batches
    )
    assert "repro_evaluations_total" not in snapshot

    whole_run = (GATED.generations + 1) * GATED.population
    assert summary.n_evaluations == whole_run
    assert summary.result.metadata["backend_stats"]["n_batches"] == 13
    (finished,) = [e for e in read_records(ledger) if e["event"] == "run_finished"]
    assert finished["n_evaluations"] == whole_run
    assert finished["backend_stats"]["n_batches"] == 13
