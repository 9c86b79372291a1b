"""Exporters: the Prometheus text exposition of a metrics registry.

* :func:`to_prometheus` / :func:`save_prometheus` — a point-in-time
  snapshot of a :class:`~repro.obs.registry.MetricsRegistry` in the
  Prometheus *text exposition format* (``# HELP`` / ``# TYPE`` headers,
  ``name{label="v"} value`` samples, histogram ``_bucket``/``_sum``/
  ``_count`` expansion).
* :func:`parse_prometheus` — the matching dependency-free line-format
  checker used by ``repro stats``, the tests and the CI smoke job;
  :func:`render_parsed` is its inverse.
* :func:`merge_prometheus` — several snapshots merged into one view
  under a distinguishing label (the server's ``/metrics`` and
  ``repro stats DIR``).

Per-generation telemetry and the span profile are not exported here:
both ride in the run ledger (:mod:`repro.experiments.ledger`).

This module depends only on the standard library.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.registry import Histogram, MetricsRegistry

PathLike = Union[str, Path]

__all__ = [
    "to_prometheus",
    "save_prometheus",
    "parse_prometheus",
    "merge_prometheus",
    "render_parsed",
]


def _fmt_value(value: float) -> str:
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry as Prometheus text exposition format."""
    lines: List[str] = []
    for name, kind, help, samples in registry.collect():
        if help:
            lines.append(f"# HELP {name} {help}".replace("\n", " "))
        lines.append(f"# TYPE {name} {kind}")
        for labels, instrument in samples:
            if isinstance(instrument, Histogram):
                cumulative = instrument.cumulative_counts()
                bounds = [_fmt_value(b) for b in instrument.buckets] + ["+Inf"]
                for bound, count in zip(bounds, cumulative):
                    lines.append(
                        f"{name}_bucket{_label_str(labels, ('le', bound))} {count}"
                    )
                lines.append(
                    f"{name}_sum{_label_str(labels)} {_fmt_value(instrument.sum)}"
                )
                lines.append(f"{name}_count{_label_str(labels)} {instrument.count}")
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {_fmt_value(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def save_prometheus(registry: MetricsRegistry, path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(registry), encoding="utf-8")
    return path


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)
_ESCAPE_SEQ_RE = re.compile(r"\\(.)")


def _unescape_label(value: str) -> str:
    """Decode exposition-format label escapes in a single pass.

    Sequential ``str.replace`` chains mis-decode values like a literal
    backslash followed by ``n`` (on the wire: ``\\\\n``), turning them
    into backslash-newline.  Only ``\\\\``, ``\\"`` and ``\\n`` are
    defined by the format; any other escaped char is kept verbatim
    (lenient, with the backslash preserved).
    """

    def sub(match: "re.Match[str]") -> str:
        c = match.group(1)
        if c == "n":
            return "\n"
        if c in ('"', "\\"):
            return c
        return "\\" + c

    return _ESCAPE_SEQ_RE.sub(sub, value)


def _parse_value(text: str) -> float:
    lowered = text.lower()
    if lowered == "nan":
        return float("nan")
    if lowered in ("+inf", "inf"):
        return float("inf")
    if lowered == "-inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text exposition into ``{metric: {...}}``.

    A deliberately simple checker (no client-library dependency): every
    non-comment line must match ``name{labels} value``, labels must be
    well-formed quoted pairs, and samples must fall under a declared
    ``# TYPE`` (histogram samples under their ``_bucket``/``_sum``/
    ``_count`` expansions).  Raises :class:`ValueError` on any violation
    — this is the validation gate the CI ``obs-smoke`` job runs.
    """
    metrics: Dict[str, Dict[str, Any]] = {}

    def base_metric(name: str) -> Optional[str]:
        if name in metrics:
            return name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                stem = name[: -len(suffix)]
                if stem in metrics and metrics[stem]["kind"] == "histogram":
                    return stem
        return None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            metrics.setdefault(
                name, {"kind": None, "help": "", "samples": []}
            )["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            metrics.setdefault(name, {"kind": None, "help": "", "samples": []})[
                "kind"
            ] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        name = m.group("name")
        labels: Dict[str, str] = {}
        raw_labels = m.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels[pair.group(1)] = _unescape_label(pair.group(2))
                consumed += len(pair.group(0))
            stripped = re.sub(r"[,\s]", "", raw_labels)
            matched = re.sub(
                r"[,\s]", "", "".join(p.group(0) for p in _LABEL_PAIR_RE.finditer(raw_labels))
            )
            if stripped != matched:
                raise ValueError(f"line {lineno}: malformed labels: {raw_labels!r}")
        try:
            value = _parse_value(m.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {m.group('value')!r}"
            )
        stem = base_metric(name)
        if stem is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        metrics[stem]["samples"].append({"name": name, "labels": labels, "value": value})

    for name, info in metrics.items():
        if info["kind"] is None:
            raise ValueError(f"metric {name!r} has HELP but no TYPE")
    return metrics


def render_parsed(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Re-render :func:`parse_prometheus` output as exposition text.

    Inverse of the parser (modulo float formatting): used to re-emit
    worker snapshots with injected labels.  Metrics appear in dict
    order; samples keep their recorded order.
    """
    lines: List[str] = []
    for name, info in metrics.items():
        if info.get("help"):
            lines.append(f"# HELP {name} {info['help']}".replace("\n", " "))
        lines.append(f"# TYPE {name} {info.get('kind') or 'untyped'}")
        for sample in info["samples"]:
            labels = sample.get("labels") or {}
            label_str = _label_str(labels) if labels else ""
            lines.append(f"{sample['name']}{label_str} {_fmt_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_prometheus(
    snapshots: Dict[str, str],
    label: str = "worker",
    base: Optional[str] = None,
) -> str:
    """Merge exposition-format snapshots under a distinguishing label.

    ``snapshots`` maps a label value (worker id, file stem, ...) to that
    source's exposition text; every sample from a snapshot gets
    ``label="<key>"`` injected.  ``base`` — the server's own live
    snapshot — is included unlabeled and first.  Families present in
    several sources are emitted once (first-seen ``HELP``/``TYPE`` win);
    a family whose declared kind conflicts with the first-seen kind is
    skipped rather than corrupting the stream.  Raises
    :class:`ValueError` if any input fails to parse — callers that want
    per-snapshot leniency should parse each snapshot first.
    """
    merged: Dict[str, Dict[str, Any]] = {}

    def fold(parsed: Dict[str, Dict[str, Any]], tag: Optional[str]) -> None:
        for name, info in parsed.items():
            target = merged.setdefault(
                name, {"kind": info["kind"], "help": info["help"], "samples": []}
            )
            if target["kind"] != info["kind"]:
                continue  # kind conflict: keep the first-seen family intact
            if not target["help"] and info["help"]:
                target["help"] = info["help"]
            for sample in info["samples"]:
                labels = dict(sample.get("labels") or {})
                if tag is not None:
                    labels[label] = tag
                target["samples"].append(
                    {"name": sample["name"], "labels": labels, "value": sample["value"]}
                )

    if base is not None:
        fold(parse_prometheus(base), None)
    for key in sorted(snapshots):
        fold(parse_prometheus(snapshots[key]), key)
    return render_parsed(merged)
