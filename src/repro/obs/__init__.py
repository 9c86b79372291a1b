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

The exporters render a registry as a Prometheus text snapshot.  An
instrumented run's telemetry and span profile are written once, into
its run ledger (``generation`` and ``run_finished`` events).
Instrumentation is strictly read-only with respect to the optimization
trajectory: instrumented runs are byte-identical to uninstrumented ones.
"""

from repro.obs.exporters import (
    merge_prometheus,
    parse_prometheus,
    render_parsed,
    save_prometheus,
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
from repro.obs.telemetry import TelemetryCallback, gate_probability_curves
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
]
