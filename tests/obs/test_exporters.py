"""Exporter round-trips: Prometheus text exposition and telemetry records."""

import pytest

from repro.obs.exporters import (
    merge_prometheus,
    parse_prometheus,
    render_parsed,
    save_prometheus,
    to_prometheus,
)
from repro.obs.records import append_record, read_records
from repro.obs.registry import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_backend_rows_total", "Design rows").inc(880)
    reg.gauge("repro_temperature", "Annealing T_A").set(0.125)
    fam = reg.gauge("repro_occupancy", "Per-partition members", labels=("partition",))
    fam.labels(partition="0").set(10)
    fam.labels(partition="1").set(12)
    h = reg.histogram("repro_batch_seconds", "Batch latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    return reg


class TestPrometheus:
    def test_round_trip_preserves_values(self):
        text = to_prometheus(populated_registry())
        metrics = parse_prometheus(text)
        assert metrics["repro_backend_rows_total"]["kind"] == "counter"
        assert metrics["repro_backend_rows_total"]["help"] == "Design rows"
        (sample,) = metrics["repro_backend_rows_total"]["samples"]
        assert sample["value"] == 880.0

        occ = {
            s["labels"]["partition"]: s["value"]
            for s in metrics["repro_occupancy"]["samples"]
        }
        assert occ == {"0": 10.0, "1": 12.0}

    def test_histogram_expansion_is_cumulative_with_inf(self):
        metrics = parse_prometheus(to_prometheus(populated_registry()))
        hist = metrics["repro_batch_seconds"]
        assert hist["kind"] == "histogram"
        buckets = {
            s["labels"]["le"]: s["value"]
            for s in hist["samples"]
            if s["name"].endswith("_bucket")
        }
        assert buckets == {"0.01": 1.0, "0.1": 2.0, "1": 3.0, "+Inf": 4.0}
        by_name = {s["name"]: s["value"] for s in hist["samples"]}
        assert by_name["repro_batch_seconds_count"] == 4.0
        assert by_name["repro_batch_seconds_sum"] == pytest.approx(5.555)

    def test_counter_names_end_in_total(self):
        # Convention check on our own exposition, not a parser rule.
        metrics = parse_prometheus(to_prometheus(populated_registry()))
        for name, info in metrics.items():
            if info["kind"] == "counter":
                assert name.endswith("_total")

    def test_parse_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            parse_prometheus("orphan_metric 1\n")

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="malformed sample line"):
            parse_prometheus("# TYPE x gauge\nx one two three\n")

    def test_parse_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus('# TYPE x gauge\nx{bad} 1\n')

    def test_parse_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus("# TYPE x gauge\nx notanumber\n")

    def test_parse_rejects_help_without_type(self):
        with pytest.raises(ValueError, match="HELP but no TYPE"):
            parse_prometheus("# HELP x something\n")

    def test_save_prometheus(self, tmp_path):
        path = save_prometheus(populated_registry(), tmp_path / "snap.prom")
        metrics = parse_prometheus(path.read_text(encoding="utf-8"))
        assert "repro_backend_rows_total" in metrics


class TestLabelEscaping:
    # The exposition format defines exactly three label escapes: \\ \" \n.

    TRICKY = [
        'quote"inside',
        "back\\slash",
        "new\nline",
        "a\\nb",          # literal backslash then the letter n — NOT a newline
        "trailing\\",
        '\\"mixed\\n"',
    ]

    def test_escaped_label_values_round_trip(self):
        reg = MetricsRegistry()
        fam = reg.gauge("repro_weird", "odd labels", labels=("val",))
        for i, value in enumerate(self.TRICKY):
            fam.labels(val=value).set(i)
        metrics = parse_prometheus(to_prometheus(reg))
        seen = {
            s["labels"]["val"]: s["value"]
            for s in metrics["repro_weird"]["samples"]
        }
        assert seen == {v: float(i) for i, v in enumerate(self.TRICKY)}

    def test_backslash_n_is_not_a_newline(self):
        # Regression: a sequential .replace() chain decoded the wire form
        # \\n (escaped backslash, then n) as backslash-newline.
        text = '# TYPE x gauge\nx{v="a\\\\nb"} 1\n'
        (sample,) = parse_prometheus(text)["x"]["samples"]
        assert sample["labels"]["v"] == "a\\nb"
        assert "\n" not in sample["labels"]["v"]

    def test_unknown_escape_keeps_backslash(self):
        text = '# TYPE x gauge\nx{v="a\\tb"} 1\n'
        (sample,) = parse_prometheus(text)["x"]["samples"]
        assert sample["labels"]["v"] == "a\\tb"

    def test_render_parsed_round_trips(self):
        original = to_prometheus(populated_registry())
        assert parse_prometheus(render_parsed(parse_prometheus(original))) == (
            parse_prometheus(original)
        )


class TestMergePrometheus:
    def _snapshot(self, jobs: int) -> str:
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "Jobs executed").inc(jobs)
        return to_prometheus(reg)

    def test_injects_worker_label(self):
        merged = parse_prometheus(
            merge_prometheus({"w1": self._snapshot(3), "w2": self._snapshot(5)})
        )
        by_worker = {
            s["labels"]["worker"]: s["value"]
            for s in merged["repro_jobs_total"]["samples"]
        }
        assert by_worker == {"w1": 3.0, "w2": 5.0}
        assert merged["repro_jobs_total"]["kind"] == "counter"

    def test_base_stays_unlabeled_and_first(self):
        base_reg = MetricsRegistry()
        base_reg.gauge("repro_up", "Service liveness").set(1)
        merged_text = merge_prometheus(
            {"w1": self._snapshot(2)}, base=to_prometheus(base_reg)
        )
        merged = parse_prometheus(merged_text)
        (up,) = merged["repro_up"]["samples"]
        assert up["labels"] == {}
        assert merged_text.index("repro_up") < merged_text.index("repro_jobs_total")

    def test_label_values_with_escapes_survive(self):
        merged = parse_prometheus(
            merge_prometheus({'w"1\\n': self._snapshot(1)})
        )
        (sample,) = merged["repro_jobs_total"]["samples"]
        assert sample["labels"]["worker"] == 'w"1\\n'

    def test_kind_conflict_skips_samples(self):
        gauge_reg = MetricsRegistry()
        gauge_reg.gauge("repro_jobs_total", "Misdeclared").set(9)
        merged = parse_prometheus(
            merge_prometheus(
                {"a": self._snapshot(1), "b": to_prometheus(gauge_reg)}
            )
        )
        samples = merged["repro_jobs_total"]["samples"]
        assert [s["labels"]["worker"] for s in samples] == ["a"]

    def test_unparseable_snapshot_raises(self):
        with pytest.raises(ValueError):
            merge_prometheus({"w1": "orphan 1\n"})


class TestTelemetryCsv:
    """Per-generation telemetry records, which replaced the telemetry CSV,
    keep a ``None`` value through the JSON-lines round trip."""

    def test_round_trip_with_none_values(self, tmp_path):
        samples = [
            # zero-feasible generation
            {"generation": 0, "telemetry": {"feasible_ratio": None}},
            {"generation": 1, "telemetry": {"feasible_ratio": 0.25, "temperature": 1.0}},
        ]
        path = tmp_path / "t.jsonl"
        for sample in samples:
            append_record(path, sample)
        text = path.read_text(encoding="utf-8")
        assert "nan" not in text.lower()
        assert read_records(path) == samples
