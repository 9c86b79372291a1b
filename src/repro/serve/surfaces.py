"""SurfaceStore: versioned, queryable persistence for design surfaces.

The paper's deliverable is a reusable *design surface* — min-power vs.
load capacitance — that downstream sigma-delta designers query over and
over.  The store is the service-side home for those artifacts:

* :meth:`SurfaceStore.register` persists a
  :class:`~repro.experiments.tradeoff.DesignSurface` as a **versioned**
  JSON artifact (``<root>/<name>/v0001.json``, ``v0002.json``, ...)
  using the same write-temp-fsync-``os.replace`` discipline as
  :mod:`repro.core.checkpoint`, so a crash mid-write can never corrupt
  a previously registered version.
* :meth:`power_at` / :meth:`design_for` answer queries behind a bounded
  LRU cache keyed by ``(name, version, query)``.  Cached answers are the
  exact floats a direct :class:`DesignSurface` call produces — the cache
  is a pure speed layer, locked in by ``tests/serve/test_http.py``'s
  byte-identity check.

Everything is thread-safe: the HTTP layer serves queries from many
request threads while the job pool registers new versions concurrently.

This module depends only on the standard library and numpy.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.tradeoff import DesignSurface

PathLike = Union[str, Path]

__all__ = ["SurfaceStore", "UnknownSurface"]

#: Surface names become directory names; keep them boring and safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_VERSION_RE = re.compile(r"^v(\d{4})\.json$")


class UnknownSurface(KeyError):
    """Raised when a query names a surface (or version) the store lacks."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid surface name {name!r} (want letters/digits/._- only, "
            "not starting with a dot, at most 64 chars)"
        )
    return name


class _LruCache:
    """Minimal bounded LRU (the caller holds the store lock)."""

    def __init__(self, max_size: int) -> None:
        if max_size < 1:
            raise ValueError(f"cache size must be >= 1, got {max_size}")
        self.max_size = int(max_size)
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.max_size:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)


class SurfaceStore:
    """Registry of versioned :class:`DesignSurface` JSON artifacts.

    Versions of a name are contiguous (``v0001`` .. ``vNNNN``, no gaps):
    :meth:`register` hands out the next free number and nothing deletes
    one.  Finding the latest version relies on that: the store checks
    only for the version after the one it last saw, instead of listing
    the directory.  Files removed or added by hand outside that scheme
    can hide versions from :meth:`latest_version`.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per surface name (created on
        demand).
    cache_size:
        Bound on each LRU cache: one for loaded surface objects, one for
        scalar query answers.
    """

    def __init__(self, root: PathLike, cache_size: int = 4096) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._surfaces = _LruCache(max(8, cache_size // 64))
        self._queries = _LruCache(cache_size)
        self._latest: Dict[str, int] = {}
        self.n_registered = 0

    # -------------------------------------------------------------- catalog

    def names(self) -> List[str]:
        """Registered surface names (sorted), i.e. directories with versions."""
        with self._lock:
            out = []
            for child in sorted(self.root.iterdir() if self.root.exists() else []):
                if child.is_dir() and self._versions_in(child):
                    out.append(child.name)
            return out

    def _versions_in(self, directory: Path) -> List[int]:
        versions = []
        for entry in directory.iterdir():
            m = _VERSION_RE.match(entry.name)
            if m:
                versions.append(int(m.group(1)))
        return sorted(versions)

    def versions(self, name: str) -> List[int]:
        _check_name(name)
        directory = self.root / name
        with self._lock:
            if not directory.is_dir():
                raise UnknownSurface(name)
            found = self._versions_in(directory)
            if not found:
                raise UnknownSurface(name)
            return found

    def latest_version(self, name: str) -> int:
        _check_name(name)
        with self._lock:
            version = self._latest_or_zero(name)
        if not version:
            raise UnknownSurface(name)
        return version

    def _latest_or_zero(self, name: str) -> int:
        """Latest version of *name*, 0 if it has none (caller holds the lock).

        Versions are contiguous, so from the latest version seen before
        only the next one can have appeared, perhaps registered by
        another process: a ``stat`` per step finds it, where a listing
        costs more with every version.  A cold cache, or a cached version
        whose file is gone, falls back to listing the directory.
        """
        version = self._latest.get(name, 0)
        if version and self.path_for(name, version).exists():
            while self.path_for(name, version + 1).exists():
                version += 1
        else:
            directory = self.root / name
            found = self._versions_in(directory) if directory.is_dir() else []
            version = found[-1] if found else 0
        if version:
            self._latest[name] = version
        return version

    def path_for(self, name: str, version: int) -> Path:
        _check_name(name)
        return self.root / name / f"v{int(version):04d}.json"

    # ------------------------------------------------------------- register

    def register(
        self,
        name: str,
        surface: DesignSurface,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Persist *surface* as the next version of *name*; returns it.

        The write is atomic *and exclusive*: the payload is written to a
        temp file, fsynced, then **hard-linked** to the version path —
        ``os.link`` fails if the version already exists, so two
        processes registering concurrently (multiple ``repro workers``
        against one surface root) can never clobber each other's
        version; the loser simply retries with the next number.  A
        crash mid-write cannot damage earlier versions.

        *metadata* (provenance: ``trace_id``, ``job_id``, worker,
        attempt) is written to a ``v%04d.meta.json`` sidecar — kept out
        of the surface payload itself so surface bytes stay a pure
        function of the optimization results.
        """
        _check_name(name)
        payload = json.dumps(surface.to_dict(), indent=2)
        with self._lock:
            directory = self.root / name
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f".tmp-{os.getpid()}"
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            try:
                while True:
                    version = self._latest_or_zero(name) + 1
                    try:
                        os.link(tmp, self.path_for(name, version))
                    except FileExistsError:
                        continue  # another process claimed this version
                    break
            finally:
                os.unlink(tmp)
            self._latest[name] = version
            if metadata is not None:
                self.meta_path_for(name, version).write_text(
                    json.dumps(metadata, indent=2, default=str) + "\n",
                    encoding="utf-8",
                )
            self._surfaces.put((name, version), surface)
            self.n_registered += 1
            return version

    def meta_path_for(self, name: str, version: int) -> Path:
        _check_name(name)
        return self.root / name / f"v{int(version):04d}.meta.json"

    def metadata(
        self, name: str, version: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Provenance sidecar for one surface version (``None`` if absent)."""
        with self._lock:
            v = self.latest_version(name) if version is None else int(version)
            path = self.meta_path_for(name, v)
            try:
                return json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError):
                return None

    # ---------------------------------------------------------------- load

    def load(self, name: str, version: Optional[int] = None) -> DesignSurface:
        """The surface object for *name* (latest version by default)."""
        surface, _ = self._load_versioned(name, version)
        return surface

    def _load_versioned(
        self, name: str, version: Optional[int]
    ) -> Tuple[DesignSurface, int]:
        with self._lock:
            v = self.latest_version(name) if version is None else int(version)
            cached = self._surfaces.get((name, v))
            if cached is not None:
                return cached, v
            path = self.path_for(name, v)
            if not path.exists():
                raise UnknownSurface(f"{name} v{v}")
            surface = DesignSurface.load(path)
            self._surfaces.put((name, v), surface)
            return surface, v

    def describe(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """JSON-able summary of one surface version."""
        surface, v = self._load_versioned(name, version)
        lo, hi = surface.load_range
        out = {
            "name": name,
            "version": v,
            "versions": self.versions(name),
            "size": surface.size,
            "c_load_min": lo,
            "c_load_max_stored": hi,
            "c_load_max": surface.c_load_max,
            "power_min": float(surface.power.min()),
            "power_max": float(surface.power.max()),
            "path": str(self.path_for(name, v)),
        }
        metadata = self.metadata(name, v)
        if metadata is not None:
            out["metadata"] = metadata
        return out

    # -------------------------------------------------------------- queries

    def power_at(
        self, name: str, c_load: float, version: Optional[int] = None
    ) -> float:
        """Cached scalar :meth:`DesignSurface.power_at` (NaN above range).

        The cached value is exactly ``float(surface.power_at(c_load))`` —
        byte-identical to the direct call.
        """
        with self._lock:
            surface, v = self._load_versioned(name, version)
            key = (name, v, "power_at", float(c_load))
            hit = self._queries.get(key)
            if hit is not None:
                return hit
            answer = float(surface.power_at(float(c_load)))
            self._queries.put(key, answer)
            return answer

    def design_for(
        self, name: str, c_load: float, version: Optional[int] = None
    ) -> Dict[str, Any]:
        """Cached :meth:`DesignSurface.design_for` as a JSON-able dict.

        Raises :class:`ValueError` (propagated from the surface) when no
        stored design drives *c_load*.
        """
        with self._lock:
            surface, v = self._load_versioned(name, version)
            key = (name, v, "design_for", float(c_load))
            hit = self._queries.get(key)
            if hit is not None:
                return dict(hit)
            x, actual_c, power = surface.design_for(float(c_load))
            answer = {
                "x": x.tolist(),
                "c_load": float(actual_c),
                "power": float(power),
            }
            self._queries.put(key, answer)
            return dict(answer)

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "surfaces": len(self.names()),
                "registered": self.n_registered,
                "query_cache_size": len(self._queries),
                "query_hits": self._queries.hits,
                "query_misses": self._queries.misses,
                "query_evictions": self._queries.evictions,
                "surface_cache_size": len(self._surfaces),
            }
