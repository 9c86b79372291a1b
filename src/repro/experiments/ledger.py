"""Structured JSONL run ledger: an append-only event trace of experiments.

Long sweeps (the paper's 800-1250-generation runs across seeds) need
observability that survives crashes: a plain log line is unparseable and
an in-memory record dies with the process.  The ledger is the middle
ground — one JSON object per line, appended (and flushed) per event, so

* a crash never loses more than the event being written,
* the trace is greppable/`jq`-able as-is, and
* ``repro trace <ledger>`` can tail or summarize it after the fact.

Event vocabulary (all carry ``event``, ``ts`` — wall clock — plus
``mono``, an absolute ``time.monotonic()`` reading immune to clock
steps, and ``elapsed_s``, seconds since this ledger object was created):

==================  =====================================================
``sweep_started``    ``run_many`` begins (algorithm, seeds, scale label)
``run_started``      one seed's run begins (run id, seed, generations)
``generation``       per-generation progress (emitted by
                     :class:`LedgerCallback`: feasible count, evaluation
                     counters, cumulative eval wall-clock; on an
                     instrumented run also the ``telemetry`` sample)
``checkpoint``       a checkpoint was persisted (generation, path)
``run_finished``     the run's scores + backend stats; on an
                     instrumented run also its span ``profile``
``run_failed``       exception text for a crashed/hung seed
``retry``            a failed seed is being retried
``seed_abandoned``   retries exhausted; the sweep moves on
``sweep_finished``   sweep totals
==================  =====================================================

Nothing here imports the optimizers — the ledger is a pure sink, wired
in by :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.obs.records import append_record

PathLike = Union[str, Path]


class RunLedger:
    """Append-only JSONL event sink.

    Each :meth:`emit` appends one line through
    :func:`repro.obs.records.append_record`, so every completed event is
    durable regardless of how the process dies (a generation of circuit
    evaluation dwarfs the per-record open/close).  Read a ledger back
    with :func:`repro.obs.records.read_records`.

    *bound* fields are merged into **every** record this ledger writes —
    the serve stack binds ``trace_id``/``job_id``/worker/attempt here so
    a single grep stitches a job's events across worker attempts.  Bound
    fields never overwrite an event's own fields of the same name.

    Every record carries three timestamps: ``ts`` (wall clock, ISO),
    ``elapsed_s`` (relative to ledger creation — resets across resumed
    attempts), and ``mono`` (absolute ``time.monotonic()`` — immune to
    wall-clock steps, comparable only within one process boot).
    """

    def __init__(
        self, path: PathLike, bound: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.bound = dict(bound) if bound else {}
        self._t0 = time.perf_counter()

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record as written."""
        record = {
            "event": str(event),
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "elapsed_s": round(time.perf_counter() - self._t0, 6),
            "mono": round(time.monotonic(), 6),
        }
        record.update(self.bound)
        record.update(fields)
        return append_record(self.path, record)


class LedgerCallback:
    """Per-generation progress callback that feeds a :class:`RunLedger`.

    Emits a ``generation`` event every *every* generations with the
    population's feasibility count, and the run's evaluated rows
    (``n_evaluations``) and evaluation seconds (``eval_time_s``) so far,
    both read from the optimizer's backend stats.  They are cumulative,
    so the trace is self-contained even when generations are skipped.

    *extras_fn*, when given, is called per emitted event and its return
    value is attached under ``telemetry`` — the runner wires the
    telemetry callback's latest sample in here, enriching the trace with
    annealing temperature, gate probabilities, partition occupancy, etc.
    All fields pass through :func:`repro.obs.records.jsonable`, so
    degenerate populations (zero feasible members, or empty after
    truncation) serialize NaN-free (``null``, never ``NaN``, in the JSON).
    """

    def __init__(
        self,
        ledger: RunLedger,
        optimizer,
        run_id: Optional[str] = None,
        every: int = 1,
        extras_fn: Optional[Any] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.ledger = ledger
        self.optimizer = optimizer
        self.run_id = run_id
        self.every = int(every)
        self.extras_fn = extras_fn

    def __call__(self, generation: int, population) -> None:
        if generation % self.every:
            return
        stats = self.optimizer.backend.stats
        size = int(population.size)
        n_feasible = int(population.feasible.sum()) if size else 0
        fields: Dict[str, Any] = {
            "run": self.run_id,
            "generation": int(generation),
            "n_feasible": n_feasible,
            "population_size": size,
            "feasible_ratio": (n_feasible / size) if size else None,
            "n_evaluations": int(stats.n_evaluations),
            "eval_time_s": round(float(stats.eval_time), 6),
        }
        if self.extras_fn is not None:
            extras = self.extras_fn()
            if extras:
                fields["telemetry"] = extras
        self.ledger.emit("generation", **fields)


# ------------------------------------------------------- trace summaries


def summarize_ledger(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace into sweep-level facts (what ``repro trace`` prints)."""
    events = list(events)
    counts = Counter(e.get("event", "?") for e in events)
    runs: Dict[str, Dict[str, Any]] = {}
    for e in events:
        run = e.get("run")
        if run is None:
            continue
        info = runs.setdefault(
            run, {"status": "running", "last_generation": None, "failures": 0}
        )
        elapsed = e.get("elapsed_s")
        if isinstance(elapsed, (int, float)) and math.isfinite(elapsed):
            if "_first_elapsed" not in info:
                info["_first_elapsed"] = float(elapsed)
            info["_last_elapsed"] = float(elapsed)
        mono = e.get("mono")
        if isinstance(mono, (int, float)) and math.isfinite(mono):
            if "_first_mono" not in info:
                info["_first_mono"] = float(mono)
            info["_last_mono"] = float(mono)
        kind = e.get("event")
        if kind == "generation" or kind == "checkpoint":
            info["last_generation"] = e.get("generation")
        elif kind == "run_finished":
            info["status"] = "finished"
            if "wall_time" in e:
                info["wall_time"] = e["wall_time"]
        elif kind == "run_failed":
            info["failures"] += 1
            info["status"] = "failed"
            info["error"] = e.get("error")
        elif kind == "seed_abandoned":
            info["status"] = "abandoned"
        elif kind == "retry":
            info["status"] = "retrying"
    for info in runs.values():
        # Crash-torn ledgers never see a run_finished event; fall back to
        # the span of the run's own event timestamps so `repro trace`
        # still reports wall-clock (tagged so readers know the source).
        # Absolute monotonic stamps are preferred over elapsed_s: they
        # survive wall-clock steps AND ledger re-opens across resumed
        # attempts (elapsed_s resets to 0 per RunLedger object).
        first = info.pop("_first_elapsed", None)
        last = info.pop("_last_elapsed", None)
        first_mono = info.pop("_first_mono", None)
        last_mono = info.pop("_last_mono", None)
        if info.get("wall_time") is not None:
            info["wall_time_source"] = "run_finished"
        elif first_mono is not None and last_mono is not None:
            info["wall_time"] = round(last_mono - first_mono, 6)
            info["wall_time_source"] = "monotonic"
        elif first is not None and last is not None:
            info["wall_time"] = round(last - first, 6)
            info["wall_time_source"] = "events"
    summary: Dict[str, Any] = {
        "n_events": len(events),
        "event_counts": dict(sorted(counts.items())),
        "runs": runs,
        "n_runs_finished": sum(
            1 for r in runs.values() if r["status"] == "finished"
        ),
        "n_runs_failed": sum(
            1 for r in runs.values() if r["status"] in ("failed", "abandoned")
        ),
    }
    if events:
        summary["first_ts"] = events[0].get("ts")
        summary["last_ts"] = events[-1].get("ts")
    return summary


def format_event(event: Dict[str, Any]) -> str:
    """One human-readable line for ``repro trace --tail``."""
    ts = event.get("ts", "")
    kind = event.get("event", "?")
    rest = {
        k: v
        for k, v in event.items()
        if k not in ("event", "ts", "elapsed_s", "mono") and v is not None
    }
    details = " ".join(f"{k}={v}" for k, v in rest.items())
    return f"{ts}  {kind:<14s} {details}".rstrip()


def format_summary(summary: Dict[str, Any]) -> str:
    """Multi-line report for ``repro trace`` without ``--tail``."""
    lines = [
        f"events: {summary['n_events']}"
        + (
            f"  ({summary.get('first_ts')} .. {summary.get('last_ts')})"
            if summary.get("first_ts")
            else ""
        )
    ]
    for kind, count in summary["event_counts"].items():
        lines.append(f"  {kind:<16s} {count}")
    runs = summary["runs"]
    if runs:
        lines.append(
            f"runs: {len(runs)}  finished={summary['n_runs_finished']}  "
            f"failed={summary['n_runs_failed']}"
        )
        for run, info in runs.items():
            bits = [f"  {run:<32s} {info['status']}"]
            if info.get("last_generation") is not None:
                bits.append(f"gen={info['last_generation']}")
            if info.get("wall_time") is not None:
                # "~" flags wall-clock reconstructed from event timestamps
                # (torn ledger) rather than reported by run_finished.
                approx = (
                    "~"
                    if info.get("wall_time_source") in ("events", "monotonic")
                    else ""
                )
                bits.append(f"wall={approx}{info['wall_time']:.2f}s")
            if info.get("failures"):
                bits.append(f"failures={info['failures']}")
            if info.get("error"):
                bits.append(f"error={info['error']!r}")
            lines.append(" ".join(bits))
    return "\n".join(lines)
