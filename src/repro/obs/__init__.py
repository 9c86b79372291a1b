"""Instrumentation subsystem: metrics, spans, telemetry, records, exporters.

``repro.obs`` sits *below* :mod:`repro.core` in the layering — it
depends only on the standard library and numpy, and the optimizers
import it (never the reverse).  The pieces:

* :class:`MetricsRegistry` (+ :data:`NULL_METRICS`) — named counters,
  gauges and fixed-bucket histograms, cheap enough to be always-on.
* :class:`TraceRecorder` (+ :data:`NULL_TRACE_RECORDER`) — the one span
  API: ``with recorder.span(...)`` regions aggregated into a bounded
  hierarchical profile and, given a path, exported as JSON lines that
  ``repro trace-view`` stitches across processes.
* :class:`TelemetryCallback` — per-generation algorithm-internals
  sampling (annealing temperature, gate probabilities and accept/reject
  counts, partition occupancy, feasibility, ...).
* :mod:`repro.obs.records` — the one JSON-lines writer, value converter
  and torn-tail-tolerant reader behind the run ledger, the trace files
  and the structured log (:mod:`repro.obs.logging`).

Exporters render a registry as a Prometheus text snapshot or tidy CSV,
telemetry samples as per-generation CSV, and the span tree as JSON.
Instrumentation is strictly read-only with respect to the optimization
trajectory: instrumented runs are byte-identical to uninstrumented ones.
"""

from repro.obs.exporters import (
    merge_prometheus,
    metrics_to_csv_rows,
    parse_prometheus,
    read_metrics_csv,
    read_telemetry_csv,
    render_parsed,
    save_metrics_csv,
    save_profile,
    save_prometheus,
    save_telemetry_csv,
    to_prometheus,
)
from repro.obs.logging import (
    StructuredLogger,
    configure_logging,
    disable_logging,
    get_logger,
)
from repro.obs.records import append_record, jsonable, read_records, tail_records
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullMetrics,
    NULL_INSTRUMENT,
    NULL_METRICS,
)
from repro.obs.telemetry import (
    TelemetryCallback,
    TelemetrySample,
    gate_probability_curves,
)
from repro.obs.tracing import (
    NULL_TRACE_RECORDER,
    NullTraceRecorder,
    TraceRecorder,
    check_trace_id,
    collect_trace,
    format_profile,
    format_trace_tree,
    mint_trace_id,
    stitch_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_INSTRUMENT",
    "NULL_METRICS",
    "DEFAULT_LATENCY_BUCKETS",
    "TelemetryCallback",
    "TelemetrySample",
    "gate_probability_curves",
    "to_prometheus",
    "save_prometheus",
    "parse_prometheus",
    "merge_prometheus",
    "render_parsed",
    "TraceRecorder",
    "NullTraceRecorder",
    "NULL_TRACE_RECORDER",
    "mint_trace_id",
    "check_trace_id",
    "collect_trace",
    "stitch_trace",
    "format_trace_tree",
    "format_profile",
    "jsonable",
    "append_record",
    "read_records",
    "tail_records",
    "StructuredLogger",
    "configure_logging",
    "disable_logging",
    "get_logger",
    "metrics_to_csv_rows",
    "save_metrics_csv",
    "read_metrics_csv",
    "save_telemetry_csv",
    "read_telemetry_csv",
    "save_profile",
]
