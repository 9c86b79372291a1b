"""Crash-safe checkpointing of in-flight optimizer runs.

The paper's headline experiments are 800-1250-generation runs repeated
across seeds; at that scale a crash at generation 700 must not cost the
whole run.  This module provides the persistence half of the robustness
layer:

* :func:`save_checkpoint` / :func:`load_checkpoint` — pickle a
  checkpoint payload to disk *atomically* (write-temp-then-rename, with
  an fsync before the rename), so a crash mid-write can never corrupt
  the previous good checkpoint.
* :class:`CheckpointCallback` — a per-generation progress callback that
  snapshots the owning optimizer every ``every`` generations via
  :meth:`BaseOptimizer.capture_checkpoint`.

A checkpoint captures *everything* the generational loop needs to
continue: the loop state (population arrays, SACGA/MESACGA phase,
live-partition and annealing-gate state), the RNG bit-generator state,
recorded history, evaluation counters and backend statistics.  Resuming
with ``BaseOptimizer.run(n_generations, resume_from=ckpt)`` therefore
reproduces the uninterrupted run's result **byte-for-byte** (under
``result_to_dict(include_timing=False)``; wall-clock fields obviously
differ).  The equivalence is locked in by
``tests/core/test_checkpoint_resume.py`` for all three paper algorithms.

Usage::

    algo = SACGA(problem, grid, seed=7)
    algo.add_callback(CheckpointCallback(algo, "run.ckpt", every=25))
    try:
        result = algo.run(800)
    except SomethingTerrible:
        ...  # machine died at generation ~700
    # later, in a fresh process:
    algo = SACGA(problem, grid, seed=7)      # same configuration
    result = algo.run(800, resume_from="run.ckpt")
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

PathLike = Union[str, Path]

#: Bump when the payload layout changes incompatibly; ``load_checkpoint``
#: rejects payloads written by a different major layout.
CHECKPOINT_VERSION = 1

#: Keys every checkpoint payload carries (the runner may add "context").
REQUIRED_KEYS = (
    "version",
    "algorithm",
    "problem",
    "n_generations",
    "generation",
    "rng_state",
    "loop_state",
    "history",
    "n_evaluations",
    "problem_evaluations",
    "backend_stats",
    "backend_stats_prev",
    "wall_time",
)


def save_checkpoint(payload: Dict[str, Any], path: PathLike) -> Path:
    """Atomically persist a checkpoint payload; returns the resolved path.

    The payload is pickled to ``<path>.tmp`` first, flushed and fsynced,
    then renamed over *path* — on every POSIX filesystem the rename is
    atomic, so readers only ever observe a complete checkpoint.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(source: Union[PathLike, Dict[str, Any]]) -> Dict[str, Any]:
    """Load and validate a checkpoint payload (path or already-loaded dict)."""
    if isinstance(source, dict):
        payload = source
    else:
        with Path(source).open("rb") as fh:
            payload = pickle.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint does not hold a payload dict: {type(payload)}")
    missing = [key for key in REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"checkpoint is missing required keys: {missing}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {payload['version']} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload


class CheckpointCallback:
    """Progress callback that checkpoints the optimizer every K generations.

    Parameters
    ----------
    optimizer:
        The optimizer being run (anything exposing ``capture_checkpoint``).
    path:
        Checkpoint file; each save atomically replaces the previous one.
    every:
        Checkpoint cadence in generations (generation 0 is never saved —
        there is nothing to resume before the first generation).
    context:
        Optional JSON-able dict stored as ``payload["context"]``; the
        experiment runner uses it to record how to rebuild the optimizer
        so that ``repro resume <ckpt>`` is self-contained.
    extra_state:
        Optional mapping ``name -> zero-arg callable``; each callable's
        return value is stored under ``payload["extra"][name]``.  Use it
        to persist run-adjacent objects such as a
        :class:`~repro.core.archive.ParetoArchive`
        (``extra_state={"archive": archive.state_dict}``).
    ledger:
        Optional :class:`~repro.experiments.ledger.RunLedger`; when given,
        a ``checkpoint`` event is emitted after every successful save.
    run_id:
        Label echoed into ledger events.
    """

    def __init__(
        self,
        optimizer,
        path: PathLike,
        every: int = 10,
        context: Optional[Dict[str, Any]] = None,
        extra_state: Optional[Dict[str, Callable[[], Any]]] = None,
        ledger=None,
        run_id: Optional[str] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.optimizer = optimizer
        self.path = Path(path)
        self.every = int(every)
        self.context = context
        self.extra_state = dict(extra_state or {})
        self.ledger = ledger
        self.run_id = run_id
        self.n_saved = 0
        self.last_generation: Optional[int] = None

    def __call__(self, generation: int, population) -> None:
        if generation == 0 or generation % self.every:
            return
        self.save(generation)

    def save(self, generation: Optional[int] = None) -> Path:
        """Capture and persist a checkpoint right now."""
        extra = {name: fn() for name, fn in self.extra_state.items()}
        payload = self.optimizer.capture_checkpoint(extra=extra)
        if self.context is not None:
            payload["context"] = self.context
        path = save_checkpoint(payload, self.path)
        self.n_saved += 1
        self.last_generation = payload["generation"]
        if self.ledger is not None:
            self.ledger.emit(
                "checkpoint",
                run=self.run_id,
                generation=payload["generation"],
                path=str(path),
            )
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointCallback(path={str(self.path)!r}, every={self.every}, "
            f"n_saved={self.n_saved})"
        )
