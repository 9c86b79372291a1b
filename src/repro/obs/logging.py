"""Structured JSON-lines logging for the serve/worker stack.

The serve stack spans multiple processes (server, external ``repro
workers``); free-form prints cannot be correlated after the fact.  This
module emits one JSON object per line, each carrying whatever context
was bound onto the logger — ``trace_id``, ``job_id``, worker id — so a
single ``grep trace_id`` reconstructs a job's path through the fleet.

Design points:

* **Silent by default.**  Library code logs unconditionally; nothing is
  written until :func:`configure_logging` is called (or the
  ``REPRO_LOG`` / ``REPRO_LOG_LEVEL`` environment variables are set),
  so unit tests and CLI output stay clean.
* **Crash-safe appends.**  Records go through
  :func:`repro.obs.records.append_record`, like the run ledger and the
  trace files, so a ``kill -9`` tears at most one line.
* **Context binding.**  ``log = get_logger("serve.worker").bind(
  worker=..., trace_id=...)`` returns a child logger whose records all
  carry those fields; rebinding layers additively.

Stdlib only; no handler/formatter machinery — a logger is a name, a
bound field dict, and a shared sink.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.obs.records import append_record

PathLike = Union[str, Path]

__all__ = [
    "LEVELS",
    "StructuredLogger",
    "LogSink",
    "configure_logging",
    "disable_logging",
    "logging_configured",
    "get_logger",
]

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _check_level(level: str) -> str:
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; expected one of {sorted(LEVELS)}")
    return level


class LogSink:
    """Destination + threshold shared by every logger.

    Writes either to an open stream (kept open) or to a path (opened,
    appended and closed per record, so multiple sinks — or a log
    shipper — can read the file live); both get the same line.
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        stream: Optional[TextIO] = None,
        level: str = "info",
    ):
        if path is not None and stream is not None:
            raise ValueError("LogSink takes a path or a stream, not both")
        self.threshold = LEVELS[_check_level(level)]
        self.target = stream
        if path is not None:
            self.target = Path(path)
            self.target.parent.mkdir(parents=True, exist_ok=True)

    def write(self, record: Dict[str, Any]) -> None:
        if self.target is not None:
            append_record(self.target, record)


_state_lock = threading.Lock()
_sink: Optional[LogSink] = None
_env_checked = False


def configure_logging(
    path: Optional[PathLike] = None,
    stream: Optional[TextIO] = None,
    level: str = "info",
) -> LogSink:
    """Route all structured logs to ``path`` or ``stream`` at ``level``.

    Returns the installed sink.  Calling again replaces the previous
    sink (last writer wins — one sink per process).
    """
    global _sink, _env_checked
    sink = LogSink(path=path, stream=stream, level=level)
    with _state_lock:
        _sink = sink
        _env_checked = True
    return sink


def disable_logging() -> None:
    """Drop the active sink; logging reverts to silent."""
    global _sink, _env_checked
    with _state_lock:
        _sink = None
        _env_checked = True


def logging_configured() -> bool:
    return _active_sink() is not None


def _active_sink() -> Optional[LogSink]:
    """Current sink, honoring ``REPRO_LOG`` on first touch.

    ``REPRO_LOG=stderr`` (or a file path) enables logging without code
    changes — useful for debugging external worker processes; optional
    ``REPRO_LOG_LEVEL`` picks the threshold (default ``info``).
    """
    global _sink, _env_checked
    with _state_lock:
        if not _env_checked:
            _env_checked = True
            target = os.environ.get("REPRO_LOG", "").strip()
            if target:
                level = os.environ.get("REPRO_LOG_LEVEL", "info").strip() or "info"
                if level in LEVELS:
                    if target == "stderr":
                        _sink = LogSink(stream=sys.stderr, level=level)
                    elif target == "stdout":
                        _sink = LogSink(stream=sys.stdout, level=level)
                    else:
                        _sink = LogSink(path=target, level=level)
        return _sink


class StructuredLogger:
    """Named logger with bound context fields.

    Cheap to construct; loggers share the process-wide sink installed by
    :func:`configure_logging` and are no-ops when none is installed.
    """

    __slots__ = ("component", "_bound")

    def __init__(self, component: str, bound: Optional[Dict[str, Any]] = None):
        self.component = component
        self._bound = dict(bound or {})

    def bind(self, **fields: Any) -> "StructuredLogger":
        """Child logger whose records also carry ``fields``."""
        merged = dict(self._bound)
        merged.update(fields)
        return StructuredLogger(self.component, merged)

    @property
    def bound(self) -> Dict[str, Any]:
        return dict(self._bound)

    def log(self, level: str, message: str, **fields: Any) -> None:
        sink = _active_sink()
        if sink is None:
            return
        numeric = LEVELS[_check_level(level)]
        if numeric < sink.threshold:
            return
        record: Dict[str, Any] = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "mono": time.monotonic(),
            "level": level,
            "component": self.component,
            "message": message,
            "pid": os.getpid(),
        }
        record.update(self._bound)
        record.update(fields)
        sink.write(record)

    def debug(self, message: str, **fields: Any) -> None:
        self.log("debug", message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log("info", message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self.log("warning", message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log("error", message, **fields)


def get_logger(component: str, **bound: Any) -> StructuredLogger:
    """The way serve modules obtain their logger."""
    return StructuredLogger(component, bound)
