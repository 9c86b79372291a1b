"""Per-layer timing from outside the program.

The traced run wraps public functions of ``repro``'s modules where their
callers look them up -- class attributes, or module attributes bound by
``from ... import`` -- and times every call into them.  Nothing under
``src/`` is edited.

Each timed wrapper is a span on a thread-local stack.  A span's *self*
time is its duration minus the time of the spans opened inside it.  The
harness opens one span around each traced iteration, so that span's self
time is the part of the traced wall that no layer claims; the run fails
when it is more than a stated share of the wall.

:func:`installed` puts every wrapper in place for a ``with`` block and
restores the originals when it ends, so an untraced iteration after a
traced one runs the original functions.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Leading stack depth of the technology card the sizing problem uses for
#: its corner analysis (FF/SS/FS/SF).  Nominal cards are unstacked; every
#: other stack is a Monte-Carlo stack.
CORNER_STACK_DEPTH = 4

#: Job-store operations timed on the serve workload.
STORE_OPS = ("submit", "claim_next", "heartbeat", "finish", "flush_worker_metrics")


def card_tag(tech) -> str:
    """``nominal`` / ``corner`` / ``mc`` for a technology card."""
    depth = np.shape(tech.nmos.vt0)
    if not depth:
        return "nominal"
    return "corner" if depth[0] == CORNER_STACK_DEPTH else "mc"


class Tracer:
    """Thread-safe per-layer accumulator of spans, counts and samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.fired: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.amount: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._seen_rows: set = set()
        self._problems: List[Any] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, wid: Optional[str] = None):
        """Time the ``with`` block; the yielded frame's last item is its
        duration once the block has ended."""
        stack = self._stack()
        frame = [layer, 0.0, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield frame
        finally:
            elapsed = frame[2] = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                if wid is not None:
                    self.fired[wid] += 1
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]

    def count(self, layer: str, wid: str) -> None:
        with self._lock:
            self.fired[wid] += 1
            self.calls[layer] += 1

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.amount[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def note_rows(self, problem, x) -> None:
        """Count rows already evaluated under the same problem object."""
        arr = np.ascontiguousarray(np.atleast_2d(x), dtype=float)
        with self._lock:
            # Holding the problem keeps its id from being reused.
            self._problems.append(problem)
            key = id(problem)
            for row in arr:
                item = (key, row.tobytes())
                if item in self._seen_rows:
                    self.amount["circuits.evaluate_batch.dup_rows"] += 1
                else:
                    self._seen_rows.add(item)

    def forget_rows(self) -> None:
        """Start a new optimizer run for the duplicate-row count."""
        with self._lock:
            self._seen_rows.clear()
            self._problems.clear()


# --------------------------------------------------------------- wrappers


def _timed(layer, after=None, sample=None) -> Callable:
    """Factory of a span wrapper; *layer* may be a function of the call.

    *after* sees the call's arguments and result; *sample* maps the
    arguments to a sample key (or ``None``) under which the call's
    duration is kept.
    """

    def factory(tracer: Tracer, wid: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            with tracer.span(name, wid) as frame:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            key = sample(*args, **kwargs) if sample is not None else None
            if key is not None:
                tracer.sample(key, frame[2])
            return result

        return wrapper

    return factory


def _counted(layer: str) -> Callable:
    """Factory of a count-only wrapper (for calls too frequent to time)."""

    def factory(tracer: Tracer, wid: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(layer, wid)
            return fn(*args, **kwargs)

        return wrapper

    return factory


def _bias_elems(tracer, args, kwargs, result) -> None:
    tracer.add("circuits.bias_solve.elems", float(np.size(result)))


def _batch_rows(tracer, args, kwargs, result) -> None:
    problem = args[0]
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.add("circuits.evaluate_batch.rows", float(np.atleast_2d(x).shape[0]))
    tracer.note_rows(problem, x)


def _shard_rows(tracer, args, kwargs, result) -> None:
    rows = result.n_designs * len(result.scenario_keys)
    tracer.add("campaign.shards.rows", float(rows))


def _checkpoint_bytes(tracer, args, kwargs, result) -> None:
    tracer.add("core.checkpoint.bytes", float(result.stat().st_size))


def _integrator_layer(tech, *args, **kwargs) -> str:
    return f"circuits.analyze_integrator.{card_tag(tech)}"


def _query_handle(app, method, target, *args, **kwargs) -> Optional[str]:
    return "serve.http.query_handle_s" if "/query" in target else None


def wrapper_plan() -> List[Tuple[str, Any, str, Callable]]:
    """``(wrapper id, owner, attribute, factory)`` for every wrapper.

    The owner is where the caller looks the name up.  SACGA ranks through
    ``local_rank_and_crowd`` (bound in ``repro.core.partitions``) and
    ``constrained_fronts`` (bound in ``repro.core.nds``); NSGA-II's
    ``truncate_and_rank``/``rank_and_crowd`` are not reached by any
    workload, so they are not wrapped.
    """
    import repro.campaign.engine as engine
    import repro.campaign.shards as shards
    import repro.circuits.sizing_problem as sizing_problem
    import repro.core.checkpoint as checkpoint
    import repro.core.nds as nds
    import repro.core.partitions as partitions
    from repro.circuits.mosfet import MosfetModel
    from repro.core.base_optimizer import BaseOptimizer
    from repro.core.evaluation import EvaluationBackend
    from repro.experiments.ledger import RunLedger
    from repro.problems.base import Problem
    from repro.serve.client import ServeClient
    from repro.serve.http import ServeApp
    from repro.serve.store import JobStore
    from repro.serve.surfaces import SurfaceStore

    plan = [
        ("circuits.bias_solve", MosfetModel, "vgs_for_current",
         _timed("circuits.bias_solve", _bias_elems)),
        ("circuits.drain_current", MosfetModel, "drain_current",
         _counted("circuits.drain_current")),
        ("circuits.analyze_integrator@sizing_problem", sizing_problem,
         "analyze_integrator", _timed(_integrator_layer)),
        ("circuits.analyze_integrator@campaign.shards", shards,
         "analyze_integrator", _timed(_integrator_layer)),
        ("circuits.evaluate_batch", Problem, "evaluate_batch",
         _timed("circuits.evaluate_batch", _batch_rows)),
        ("core.evaluation", EvaluationBackend, "evaluate",
         _timed("core.evaluation")),
        ("core.kernels.local_rank_and_crowd", partitions,
         "local_rank_and_crowd", _timed("core.kernels")),
        ("core.kernels.constrained_fronts", nds, "constrained_fronts",
         _timed("core.kernels")),
        ("core.optimizer", BaseOptimizer, "run", _timed("core.optimizer")),
        ("core.checkpoint", checkpoint, "save_checkpoint",
         _timed("core.checkpoint", _checkpoint_bytes)),
        ("experiments.ledger", RunLedger, "emit", _timed("experiments.ledger")),
        ("serve.http.handle", ServeApp, "handle",
         _timed("serve.http.handle", sample=_query_handle)),
        ("serve.surfaces.register", SurfaceStore, "register",
         _timed("serve.surfaces.register")),
        ("serve.surfaces.power_at", SurfaceStore, "power_at",
         _timed("serve.surfaces.power_at")),
        ("campaign.shards", engine, "evaluate_shard",
         _timed("campaign.shards", _shard_rows)),
        ("campaign.aggregate.aggregate_report", engine, "aggregate_report",
         _timed("campaign.aggregate")),
        ("campaign.aggregate.build_derated_surface", engine,
         "build_derated_surface", _timed("campaign.aggregate")),
        ("campaign.io.write_shard", engine, "write_shard",
         _timed("campaign.io")),
        ("campaign.io.read_shard", engine, "read_shard",
         _timed("campaign.io")),
    ]
    plan += [
        (f"serve.store.{op}", JobStore, op, _timed(f"serve.store.{op}"))
        for op in STORE_OPS
    ]
    # The client side of the serve workload, so that its thread's time
    # (requests, and polling a job until it is done) is attributed to a
    # layer rather than left outside every span.
    plan += [
        (f"serve.client.{method}", ServeClient, method, _timed("serve.client"))
        for method in ("submit", "wait", "job", "surface", "query")
    ]
    return plan


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the ``with`` block, then restore them."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for wid, owner, attr, factory in wrapper_plan():
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            setattr(owner, attr, factory(tracer, wid, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
