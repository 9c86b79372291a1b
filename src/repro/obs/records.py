"""JSON-lines records: the one format shared by the run ledger, the span
trace files and the structured log.

Every stream the package appends to is one JSON object per line, and
every decision about those lines lives here:

* **Format** — :func:`append_record` writes one compact line with sorted
  keys and ``allow_nan=False``, so every line is strict JSON.
* **Values** — :func:`jsonable` is the one converter: numpy arrays become
  nested lists, numpy scalars native numbers, non-finite floats ``null``
  and anything else that is not native JSON its ``str()``.
* **Durability** — a file is opened, appended, flushed and closed for
  each record, under a lock, so a crash loses at most the record being
  written and leaves every earlier line intact.
* **Torn tails** — :func:`read_records` and :func:`tail_records` drop a
  torn final line (the trace of a crash mid-append) and raise on a
  corrupt line anywhere else, which is real corruption.

Result files (:mod:`repro.utils.serialization`) are not JSON lines and
keep non-finite floats on purpose; they do not go through this module.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple, Union

PathLike = Union[str, Path]

__all__ = ["jsonable", "append_record", "read_records", "tail_records"]

_WRITE_LOCK = threading.Lock()


def jsonable(value: Any) -> Any:
    """Strictly JSON-able copy of *value*.

    Dict keys become ``str``; lists and tuples convert recursively.
    Numpy arrays convert via ``tolist()`` — checked first, because a
    multi-element array also has ``.item``, which raises — and other
    numpy scalars via ``item()``.  Non-finite floats become ``None``; any
    other value that is not native JSON becomes ``str(value)``.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays (any shape) and scalars
        return jsonable(value.tolist())
    if hasattr(value, "item"):
        return jsonable(value.item())
    return str(value)


def append_record(
    path: Union[PathLike, TextIO], record: Dict[str, Any]
) -> Dict[str, Any]:
    """Append *record* as one JSON line and return its converted form.

    *path* is a file, opened and closed around this one line; an open
    text stream (the stderr/stdout log sink) gets the same line and is
    left open.
    """
    converted = jsonable(record)
    line = json.dumps(
        converted, sort_keys=True, separators=(",", ":"), allow_nan=False
    ) + "\n"
    with _WRITE_LOCK:
        if hasattr(path, "write"):
            path.write(line)
            path.flush()
        else:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
    return converted


def read_records(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a JSON-lines file, skipping blank lines.

    A torn final line (a crash mid-append) is dropped; a corrupt line
    before it raises :class:`ValueError` naming its line number.  A
    missing file raises :class:`FileNotFoundError`.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    return _parse(path, enumerate(lines, start=1))


def tail_records(
    path: PathLike, n: int = 10, block_size: int = 65536
) -> List[Dict[str, Any]]:
    """The last *n* records of a JSON-lines file, read from its end.

    Streams fixed-size blocks backwards from EOF until enough newlines
    have been seen, so tailing a multi-gigabyte sweep ledger costs only
    the bytes the last *n* lines occupy — not a full-file parse.  Like
    :func:`read_records`, a torn final line (crash mid-write) is skipped;
    a corrupt line elsewhere in the tail window raises.
    """
    if n <= 0:
        return []
    path = Path(path)
    with path.open("rb") as fh:
        fh.seek(0, 2)  # SEEK_END
        pos = fh.tell()
        buf = b""
        while pos > 0 and buf.count(b"\n") <= n:
            step = min(block_size, pos)
            pos -= step
            fh.seek(pos)
            buf = fh.read(step) + buf
    # errors="replace" only matters for a multi-byte char cut at the block
    # boundary, which can only sit in the partial first line dropped below.
    lines = buf.decode("utf-8", errors="replace").split("\n")
    if pos > 0:
        lines = lines[1:]  # mid-line cut: the first fragment is partial
    # Line numbers are unknown without reading the whole file.
    return _parse(path, ((None, line) for line in lines))[-n:]


def _parse(
    path: Path, numbered: Iterable[Tuple[Optional[int], str]]
) -> List[Dict[str, Any]]:
    """Parse ``(line number, text)`` pairs under the torn-tail rule."""
    lines = [(number, line) for number, line in numbered if line.strip()]
    records: List[Dict[str, Any]] = []
    for index, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn tail from a crash — everything before it is good
            at = f" at line {number}" if number is not None else ""
            raise ValueError(f"{path}: corrupt record{at}: {line[:80]}")
    return records
