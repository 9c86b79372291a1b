"""run_one's observability surface: metrics=, metrics_out=, ledger enrichment."""

import json
from pathlib import Path

from repro.obs.records import read_records
from repro.experiments.runner import Scale, run_one
from repro.obs.exporters import (
    parse_prometheus,
    read_metrics_csv,
    read_telemetry_csv,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import gate_probability_curves

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
    assert summary.metrics_paths is None


def test_metrics_true_populates_summary():
    summary = run_one("sacga", "obs-test", scale=GATED, metrics=True)
    names = {name for name, _, _, _ in summary.metrics.collect()}
    assert "repro_generation" in names
    assert "repro_gate_considered_total" in names
    assert summary.telemetry
    assert gate_probability_curves(summary.telemetry)
    top_level = [node["name"] for node in summary.profile]
    assert top_level == ["run"]
    assert summary.metrics_paths is None  # no metrics_out requested


def test_supplied_registry_is_reused():
    registry = MetricsRegistry()
    summary = run_one("tpg", "obs-test", scale=TINY, metrics=registry)
    assert summary.metrics is registry
    assert registry.get("repro_generation").value == TINY.generations


def test_metrics_out_writes_all_four_artifacts(tmp_path):
    prefix = tmp_path / "run"
    summary = run_one("mesacga", "obs-test", scale=TINY, metrics_out=str(prefix))
    paths = summary.metrics_paths
    assert set(paths) == {"prometheus", "metrics_csv", "telemetry_csv", "profile"}

    snapshot = parse_prometheus(Path(paths["prometheus"]).read_text(encoding="utf-8"))
    assert "repro_generations_total" in snapshot

    rows = read_metrics_csv(paths["metrics_csv"])
    assert any(r["metric"] == "repro_backend_batch_seconds" for r in rows)

    samples = read_telemetry_csv(paths["telemetry_csv"])
    assert {name for _, name, _ in samples} >= {"population_size", "front_size"}

    profile = json.loads(Path(paths["profile"]).read_text(encoding="utf-8"))
    assert profile[0]["name"] == "run"
    child_names = {c["name"] for c in profile[0]["children"]}
    assert "generation" in child_names


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
