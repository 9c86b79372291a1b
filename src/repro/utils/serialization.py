"""JSON serialization of optimization results.

Keeps long experiment campaigns restartable and lets the benchmarks
persist the measured series that EXPERIMENTS.md reports.  Only plain
JSON types are written; numpy arrays round-trip as nested lists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.core.results import GenerationRecord, OptimizationResult

PathLike = Union[str, Path]


def result_to_dict(
    result: OptimizationResult,
    include_history: bool = True,
    include_population: bool = False,
    include_timing: bool = True,
) -> Dict[str, Any]:
    """Plain-dict view of a result (see :func:`save_result`).

    ``include_timing=False`` zeroes/strips the only wall-clock fields
    (``wall_time``, the run's ``backend_stats["eval_time"]`` and each
    record's ``eval_time_s``), so two runs with the same seed and config
    serialize byte-identically (locked in by
    ``tests/core/test_determinism_regression.py``).
    """
    metadata = _jsonable(result.metadata)
    if not include_timing and isinstance(metadata.get("backend_stats"), dict):
        metadata["backend_stats"].pop("eval_time", None)
    payload: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "problem": result.problem_name,
        "front_x": np.asarray(result.front_x).tolist(),
        "front_objectives": np.asarray(result.front_objectives).tolist(),
        "n_generations": int(result.n_generations),
        "n_evaluations": int(result.n_evaluations),
        "wall_time": float(result.wall_time) if include_timing else 0.0,
        "metadata": metadata,
    }
    if include_history:
        history = []
        for rec in result.history:
            extras = _jsonable(rec.extras)
            if not include_timing:
                extras.pop("eval_time_s", None)
            history.append(
                {
                    "generation": rec.generation,
                    "n_feasible": rec.n_feasible,
                    "front_objectives": np.asarray(rec.front_objectives).tolist(),
                    "n_evaluations": rec.n_evaluations,
                    "extras": extras,
                }
            )
        payload["history"] = history
    if include_population and result.population is not None:
        payload["population"] = {
            "x": result.population.x.tolist(),
            "objectives": result.population.objectives.tolist(),
            "violation": result.population.violation.tolist(),
        }
    return payload


def save_result(result: OptimizationResult, path: PathLike, **kwargs) -> Path:
    """Write *result* as JSON; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(result_to_dict(result, **kwargs), fh, indent=2)
    return path


def load_result_dict(path: PathLike) -> Dict[str, Any]:
    """Load a result previously written by :func:`save_result`.

    Arrays come back as numpy arrays (``front_x``, ``front_objectives``
    and per-record fronts); the rest stays plain.
    """
    with Path(path).open() as fh:
        payload = json.load(fh)
    payload["front_x"] = np.asarray(payload["front_x"], dtype=float)
    payload["front_objectives"] = np.asarray(
        payload["front_objectives"], dtype=float
    )
    for rec in payload.get("history", []):
        rec["front_objectives"] = np.asarray(rec["front_objectives"], dtype=float)
    return payload


def history_from_dicts(records) -> "list[GenerationRecord]":
    """Rebuild GenerationRecord objects from a loaded payload."""
    out = []
    for rec in records:
        out.append(
            GenerationRecord(
                generation=int(rec["generation"]),
                n_feasible=int(rec["n_feasible"]),
                front_objectives=np.asarray(rec["front_objectives"], dtype=float),
                n_evaluations=int(rec["n_evaluations"]),
                extras=dict(rec.get("extras", {})),
            )
        )
    return out


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
