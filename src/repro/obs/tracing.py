"""Spans: one API with an in-memory aggregate and a JSON-lines export.

``with recorder.span("evaluate"):`` is the package's only span API.  A
:class:`TraceRecorder` gives every finished span two sinks:

* **An aggregate** — each span folds into a bounded tree keyed by the
  path of span names open on the calling thread (run → generation →
  evaluate, ...), accumulating ``count`` and ``total_s``.  The tree grows
  with the *shapes* of nesting, not with how often they occur, so an
  800-generation run costs no more memory than an 8-generation one.
  :meth:`TraceRecorder.profile` returns it for ``--metrics`` /
  ``--metrics-out`` and :func:`format_profile` renders it.
* **A JSON-lines file** (when the recorder has a path) — a ``start``
  record on entry and an ``end`` record (with duration and status) on
  exit, so a ``kill -9``-ed process still leaves evidence of the attempt
  it was executing.  Records carry a wall-clock timestamp (comparable
  across processes, subject to skew) and a monotonic one (skew-proof
  within one process).  ``repro trace-view`` stitches these files:

  * :func:`mint_trace_id` / :func:`check_trace_id` — trace identifiers
    minted at ``POST /jobs`` (or accepted from an ``X-Trace-Id``
    header) and threaded through the JobStore, worker loop, ledger and
    surface registration.
  * :func:`collect_trace` — every record of one trace, gathered from a
    directory of trace files.
  * :func:`stitch_trace` / :func:`format_trace_tree` — reconstruct and
    render the cross-process call tree: parent links bind spans within
    a process, wall-clock ordering arranges the per-process roots, and
    durations always come from monotonic clocks.

:data:`NULL_TRACE_RECORDER` hands out one shared no-op span, so ``with
tracer.span(...)`` costs two empty method calls when tracing is off.
Recording is strictly read-only with respect to the optimization
trajectory.  Like the rest of ``repro.obs`` this depends only on the
standard library; the record format lives in :mod:`repro.obs.records`.
"""

from __future__ import annotations

import os
import re
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.records import append_record, read_records

PathLike = Union[str, Path]

__all__ = [
    "mint_trace_id",
    "check_trace_id",
    "TraceRecorder",
    "NullTraceRecorder",
    "NULL_TRACE_RECORDER",
    "TRACE_FILE_SUFFIX",
    "collect_trace",
    "stitch_trace",
    "format_trace_tree",
    "format_profile",
]

TRACE_FILE_SUFFIX = ".trace.jsonl"

_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")
_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def mint_trace_id() -> str:
    """Return a fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


def check_trace_id(trace_id: str) -> str:
    """Validate an externally supplied trace id (e.g. ``X-Trace-Id``).

    Accepts 1-128 chars of ``[A-Za-z0-9._:-]`` starting alphanumeric —
    wide enough for W3C-style ids, narrow enough to embed safely in
    filenames, SQL, and log lines.  Raises :class:`ValueError` otherwise.
    """
    if not isinstance(trace_id, str) or not _TRACE_ID_RE.match(trace_id):
        raise ValueError(f"invalid trace id: {trace_id!r}")
    return trace_id


def safe_process_name(process: str) -> str:
    """Collapse a process/worker id into a filesystem-safe token."""
    return _UNSAFE_RE.sub("-", process).strip("-") or "process"


class _Node:
    """One aggregate bucket: every finished span with this name path."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: Dict[str, "_Node"] = {}

    def as_dict(self) -> Dict[str, Any]:
        children = [c.as_dict() for c in self.children.values()]
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.total_s - sum(c["total_s"] for c in children),
            "children": children,
        }


class _Span:
    """Context manager for one recorded span (internal)."""

    __slots__ = ("recorder", "record", "node", "mono_start")

    def __init__(
        self, recorder: "TraceRecorder", record: Dict[str, Any], node: _Node
    ):
        self.recorder = recorder
        self.record = record
        self.node = node
        self.mono_start = record["mono"]

    @property
    def span_id(self) -> str:
        return self.record["span_id"]

    @property
    def trace_id(self) -> Optional[str]:
        return self.record.get("trace_id")

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields to the eventual ``end`` record."""
        self.record.update(fields)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.recorder._finish(self, error=exc)
        return False


class _NullSpan:
    """The shared no-op span :data:`NULL_TRACE_RECORDER` hands out."""

    __slots__ = ()

    span_id = None
    trace_id = None

    def annotate(self, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ThreadStack(threading.local):
    """The calling thread's open spans, innermost last."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []


class TraceRecorder:
    """Aggregate spans in memory and, given a *path*, append them as JSON lines.

    Thread-safe: the serve stack records from HTTP handler threads and
    in-server worker threads concurrently, and each thread keeps its own
    stack of open spans.  With a path, each span appends two records
    sharing a ``span_id``::

        {"phase": "start", "trace_id": ..., "span_id": ..., "parent_id": ...,
         "name": ..., "process": ..., "pid": ..., "wall": <time.time()>,
         "mono": <time.monotonic()>, ...}
        {"phase": "end", ..., "duration_s": <monotonic delta>, "status": "ok"|"error"}

    Records go through :func:`repro.obs.records.append_record`, so a
    ``kill -9`` can tear at most the final line — which the readers
    tolerate — and never corrupts earlier records.
    """

    def __init__(self, path: Optional[PathLike] = None, process: str = ""):
        self.path = Path(path) if path is not None else None
        self.process = process or f"pid-{os.getpid()}"
        self._lock = threading.Lock()
        self._local = _ThreadStack()
        self._root = _Node("")
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_process(cls, traces_dir: PathLike, process: str) -> "TraceRecorder":
        """Build a recorder writing ``<traces_dir>/<process>-<pid>.trace.jsonl``."""
        name = f"{safe_process_name(process)}-{os.getpid()}{TRACE_FILE_SUFFIX}"
        return cls(Path(traces_dir) / name, process=process)

    # -- recording -------------------------------------------------------

    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **fields: Any,
    ) -> _Span:
        """Open a span; use as ``with recorder.span("execute", trace_id=t):``.

        ``parent_id`` defaults to the innermost open span on this thread,
        and ``trace_id`` is likewise inherited when omitted, so nested
        spans stitch automatically.
        """
        stack = self._thread_stack()
        parent = stack[-1].node if stack else self._root
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        if trace_id is None and stack:
            trace_id = stack[-1].trace_id
        node = parent.children.get(name)
        if node is None:
            with self._lock:
                node = parent.children.setdefault(name, _Node(name))
        record: Dict[str, Any] = {
            "phase": "start",
            "trace_id": trace_id,
            "span_id": uuid.uuid4().hex[:16],
            "parent_id": parent_id,
            "name": name,
            "process": self.process,
            "pid": os.getpid(),
            "wall": time.time(),
            "mono": time.monotonic(),
        }
        record.update(fields)
        span = _Span(self, record, node)
        if self.path is not None:
            append_record(self.path, record)
        stack.append(span)
        return span

    def _finish(self, span: _Span, error: Optional[BaseException] = None) -> None:
        duration = max(0.0, time.monotonic() - span.mono_start)
        stack = self._thread_stack()
        if span in stack:
            stack.remove(span)
        with self._lock:
            span.node.count += 1
            span.node.total_s += duration
        if self.path is None:
            return
        end = dict(span.record)
        end["phase"] = "end"
        end["duration_s"] = duration
        end["status"] = "error" if error is not None else "ok"
        if error is not None:
            end["error"] = f"{type(error).__name__}: {error}"
        append_record(self.path, end)

    def _thread_stack(self) -> List[_Span]:
        return self._local.spans

    # -- reporting -------------------------------------------------------

    def profile(self) -> List[Dict[str, Any]]:
        """The aggregate span forest as plain JSON-able dicts: ``name``,
        ``count``, ``total_s``, ``self_s`` and ``children`` per node."""
        with self._lock:
            return [node.as_dict() for node in self._root.children.values()]


class NullTraceRecorder(TraceRecorder):
    """Recorder that records nothing; safe default everywhere."""

    def __init__(self):  # noqa: D107 - trivially disabled
        super().__init__(process="null")

    def span(self, name: str, *args: Any, **fields: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACE_RECORDER = NullTraceRecorder()


def format_profile(profile: List[Dict[str, Any]]) -> str:
    """Render a profile (from :meth:`TraceRecorder.profile` or the
    ``profile`` of a ledger's ``run_finished`` event) as an indented
    timing tree::

        run                         1x   2.134s  (  3.1% self)
          generation              200x   2.067s  (  8.8% self)
            evaluate              200x   1.401s  (100.0% self)
            rank                  200x   0.412s  ( 21.2% self)
    """
    if not profile:
        return "(no spans recorded)"
    width = _max_label_width(profile, 0)
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        label = "  " * depth + node["name"]
        total = node["total_s"]
        self_pct = 100.0 * node["self_s"] / total if total > 0 else 100.0
        lines.append(
            f"{label:<{width}} {node['count']:>7}x {total:>9.3f}s"
            f"  ({self_pct:5.1f}% self)"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for node in profile:
        walk(node, 0)
    return "\n".join(lines)


def _max_label_width(nodes: List[Dict[str, Any]], depth: int) -> int:
    width = 0
    for node in nodes:
        width = max(width, 2 * depth + len(node["name"]))
        width = max(width, _max_label_width(node["children"], depth + 1))
    return max(width, 12)


# ---------------------------------------------------------------- reading

def trace_files(root: PathLike) -> List[Path]:
    """All trace files under ``root`` (a directory, file, or glob)."""
    root = Path(root)
    if root.is_file():
        return [root]
    if root.is_dir():
        return sorted(root.rglob(f"*{TRACE_FILE_SUFFIX}"))
    parent = root.parent if root.parent != Path("") else Path(".")
    return sorted(parent.glob(root.name))


def collect_trace(
    root: PathLike, trace_id: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Gather span events from every trace file under ``root``.

    With ``trace_id`` given, only that trace's events are returned.
    """
    events: List[Dict[str, Any]] = []
    for path in trace_files(root):
        for event in read_records(path):
            if trace_id is None or event.get("trace_id") == trace_id:
                events.append(event)
    return events


# --------------------------------------------------------------- stitching

def stitch_trace(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge start/end records and rebuild the cross-process span tree.

    Returns the list of root span nodes.  Each node is the merged span
    record plus ``children`` (list of nodes) and ``in_progress`` (True
    when only the ``start`` record survived — e.g. the process was
    ``kill -9``-ed mid-span).

    Ordering is wall-clock-skew tolerant: children of one span belong to
    a single process, so they sort by the monotonic timestamp; only the
    relative placement of *roots* from different processes relies on
    wall clocks, and then only for display order.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for event in events:
        span_id = event.get("span_id")
        if not span_id:
            continue
        if span_id not in merged:
            merged[span_id] = dict(event)
            merged[span_id]["in_progress"] = event.get("phase") != "end"
            order.append(span_id)
        elif event.get("phase") == "end":
            merged[span_id].update(event)
            merged[span_id]["in_progress"] = False

    for span_id in order:
        merged[span_id]["children"] = []
    roots: List[Dict[str, Any]] = []
    for span_id in order:
        node = merged[span_id]
        parent_id = node.get("parent_id")
        if parent_id and parent_id in merged:
            merged[parent_id]["children"].append(node)
        else:
            roots.append(node)

    def sort_children(node: Dict[str, Any]) -> None:
        node["children"].sort(key=lambda n: n.get("mono", 0.0))
        for child in node["children"]:
            sort_children(child)

    for root in roots:
        sort_children(root)
    roots.sort(key=lambda n: (n.get("wall", 0.0), n.get("mono", 0.0)))
    return roots


_DETAIL_KEYS = ("job_id", "attempt", "worker", "resumed", "status", "error")


def _format_node(node: Dict[str, Any], indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    if node.get("in_progress"):
        duration = "(unfinished)"
    else:
        duration = f"{float(node.get('duration_s', 0.0)) * 1000.0:.1f}ms"
    details = []
    for key in _DETAIL_KEYS:
        value = node.get(key)
        if value is not None and value != "" and not (key == "status" and value == "ok"):
            details.append(f"{key}={value}")
    detail = f"  [{' '.join(details)}]" if details else ""
    process = node.get("process", "?")
    lines.append(f"{pad}{node.get('name', '?')}  ({process})  {duration}{detail}")
    for child in node.get("children", ()):
        _format_node(child, indent + 1, lines)


def format_trace_tree(
    roots: Iterable[Dict[str, Any]], trace_id: Optional[str] = None
) -> str:
    """Render a stitched trace as an indented, human-readable tree."""
    lines: List[str] = []
    if trace_id:
        lines.append(f"trace {trace_id}")
    for root in roots:
        _format_node(root, 1 if trace_id else 0, lines)
    processes = sorted({r.get("process", "?") for r in _walk(roots)})
    if processes:
        lines.append(f"processes: {', '.join(processes)}")
    return "\n".join(lines)


def _walk(nodes: Iterable[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    for node in nodes:
        yield node
        for sub in _walk(node.get("children", ())):
            yield sub
