"""Algorithm-internals telemetry: per-generation samples of GA dynamics.

:class:`TelemetryCallback` is a progress callback (the ``fn(generation,
population)`` seam every optimizer exposes) that mirrors the paper's
*internal* quantities into a :class:`~repro.obs.registry.MetricsRegistry`
and one record per generation, shaped like the run ledger's own
``generation`` event (``{"generation": g, "telemetry": {...}}``):

* the annealing temperature ``T_A`` and gate participation probabilities
  of eqns (2)-(4), read from the live ``CompetitionGate``,
* gate accept/reject counters (how many locally superior solutions were
  considered vs actually exposed to global competition),
* per-partition occupancy and non-dominated counts (which partitions
  starve during Phase II),
* feasibility ratio, global front size, archive size,
* kernel call counts.

Evaluation rows and seconds are not sampled here: the ledger's
``generation`` event and the history carry them, and the optimizer's
``repro_backend_*`` instruments count the batches at the call.

Everything is *read* from state the optimizer already computed — the
callback never mutates the optimizer, never touches its RNG, and
therefore cannot perturb the trajectory (instrumented runs stay
byte-identical to uninstrumented ones).

The callback **duck-types** the optimizer: it probes ``_loop_state`` for
the keys SACGA/MESACGA/NSGA-II/islands maintain (``phase``, ``gate``,
``gen_t``, ``step_in_phase``, ``parted``, ``islands``) and silently
skips whatever a given algorithm does not have.  This keeps
:mod:`repro.obs` below :mod:`repro.core` in the layering — nothing here
imports the optimizers.

All registry calls happen in ``__init__``; the per-generation path only
touches pre-resolved instrument handles (locked in by the counting-stub
test in ``tests/obs/test_telemetry.py``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["TelemetryCallback", "gate_probability_curves"]


def _finite(value: Any) -> Optional[float]:
    """Float value, or None for NaN/inf (never leak non-finite into JSON)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


class TelemetryCallback:
    """Per-generation algorithm-internals telemetry.

    Parameters
    ----------
    optimizer:
        Any :class:`~repro.core.base_optimizer.BaseOptimizer` subclass.
        Attach with ``optimizer.add_callback(telemetry)`` *before* other
        consumers (e.g. the ledger callback) that want to read
        :attr:`last_sample`.
    registry:
        A :class:`~repro.obs.registry.MetricsRegistry` (or
        :data:`~repro.obs.registry.NULL_METRICS`).  All instruments are
        registered here, in ``__init__``, exactly once.
    archive:
        Optional :class:`~repro.core.archive.ParetoArchive` whose size /
        observation counters should be exported.  The archive's own
        ``observe`` callback must still be attached separately (this
        callback only reads it).
    kernel_counts:
        Optional zero-arg callable returning cumulative kernel call
        counts as ``{"fn": n}`` (see
        :func:`repro.core.kernels.kernel_call_counts`).  Passed in as a
        callable so this module stays import-independent of the core.
    """

    def __init__(
        self,
        optimizer: Any,
        registry: Any,
        archive: Any = None,
        kernel_counts: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        self.optimizer = optimizer
        self.archive = archive
        #: ``{"generation": g, "telemetry": sample}`` per generation.
        self.samples: List[Dict[str, Any]] = []
        self.last_sample: Dict[str, Optional[float]] = {}
        self._kernel_counts = kernel_counts
        self._kernel_prev: Dict[str, int] = (
            dict(kernel_counts()) if kernel_counts is not None else {}
        )
        self._gate_prev = (0, 0)  # (considered, exposed) cumulative

        # --- instrument handles, resolved once (never on the hot loop) ---
        self._g_generation = registry.gauge(
            "repro_generation", "Current generation index"
        )
        self._c_generations = registry.counter(
            "repro_generations_total", "Generations completed"
        )
        self._g_population = registry.gauge(
            "repro_population_size", "Individuals in the current population"
        )
        self._g_feasible = registry.gauge(
            "repro_feasible_count", "Constraint-satisfying individuals"
        )
        self._g_feasible_ratio = registry.gauge(
            "repro_feasible_ratio", "Feasible fraction of the population"
        )
        self._g_front = registry.gauge(
            "repro_front_size", "Rank-0 individuals in the current population"
        )
        self._g_phase = registry.gauge(
            "repro_phase", "Algorithm phase (1=pure local, 2+=SA-mixed)"
        )
        self._g_live = registry.gauge(
            "repro_live_partitions", "Partitions alive in Phase II"
        )
        self._g_temperature = registry.gauge(
            "repro_annealing_temperature", "Annealing temperature T_A, eqn (4)"
        )
        self._g_gate_prob = registry.gauge(
            "repro_gate_probability",
            "Gate participation probability of eqn (3) per cost index i",
            labels=("i",),
        )
        self._c_gate_considered = registry.counter(
            "repro_gate_considered_total",
            "Locally superior solutions considered by the SA gate",
        )
        self._c_gate_exposed = registry.counter(
            "repro_gate_exposed_total",
            "Solutions the SA gate exposed to global competition",
        )
        self._c_gate_rejected = registry.counter(
            "repro_gate_rejected_total",
            "Solutions the SA gate kept under local competition",
        )
        self._g_occupancy = registry.gauge(
            "repro_partition_occupancy",
            "Members per objective-space partition",
            labels=("partition",),
        )
        self._g_local_front = registry.gauge(
            "repro_partition_nondominated",
            "Locally non-dominated members per partition",
            labels=("partition",),
        )
        self._g_island = registry.gauge(
            "repro_island_size", "Members per island", labels=("island",)
        )
        self._g_archive = registry.gauge(
            "repro_archive_size", "Solutions held by the Pareto archive"
        )
        self._c_archive_seen = registry.counter(
            "repro_archive_observed_total", "Feasible points offered to the archive"
        )
        self._archive_seen_prev = (
            int(getattr(archive, "n_observed", 0)) if archive is not None else 0
        )
        self._c_kernel_calls = registry.counter(
            "repro_kernel_calls_total",
            "Dominance/selection kernel calls",
            labels=("fn",),
        )

    # ------------------------------------------------------------- sampling

    def __call__(self, generation: int, population: Any) -> None:
        sample: Dict[str, Optional[float]] = {}
        gen = int(generation)

        self._g_generation.set(gen)
        if gen > 0:
            self._c_generations.inc()

        size = int(population.size)
        n_feasible = int(population.feasible.sum()) if size else 0
        front = int(np.count_nonzero(population.rank == 0)) if size else 0
        self._g_population.set(size)
        self._g_feasible.set(n_feasible)
        self._g_front.set(front)
        sample["population_size"] = float(size)
        sample["feasible_count"] = float(n_feasible)
        sample["front_size"] = float(front)
        ratio = _finite(n_feasible / size) if size else None
        sample["feasible_ratio"] = ratio
        if ratio is not None:
            self._g_feasible_ratio.set(ratio)

        self._sample_loop_state(sample)
        self._sample_archive(sample)
        self._sample_kernels(sample)

        self.last_sample = sample
        self.samples.append({"generation": gen, "telemetry": sample})

    # ------------------------------------------------- algorithm internals

    def _sample_loop_state(self, sample: Dict[str, Optional[float]]) -> None:
        state = getattr(self.optimizer, "_loop_state", None)
        if not isinstance(state, dict):
            state = {}

        phase = state.get("phase")
        if phase is not None:
            # MESACGA refines phase 2 into its schedule phases.
            idx = state.get("phase_idx")
            if phase == 2 and isinstance(idx, int) and idx >= 0:
                phase = idx + 2
            self._g_phase.set(float(phase))
            sample["phase"] = _finite(phase)

        live = state.get("live")
        if live is not None:
            self._g_live.set(float(len(live)))
            sample["live_partitions"] = float(len(live))

        gate = state.get("gate")
        if gate is not None and state.get("phase") == 2:
            # SACGA counts Phase-II steps from gen_t; MESACGA restarts the
            # schedule (and the gate) every phase, tracked by step_in_phase.
            if "step_in_phase" in state:
                step = int(state["step_in_phase"])
            else:
                gen_t = state.get("gen_t") or 0
                step = int(state["generation"]) - int(gen_t)
            if step > 0:
                temperature = _finite(gate.schedule.temperature(step))
                sample["temperature"] = temperature
                if temperature is not None:
                    self._g_temperature.set(temperature)
                # Sequence positions are 1-based in eqn (2): i = 1..n.
                for i in range(1, int(gate.n) + 1):
                    p = _finite(gate.probability(i, step))
                    sample[f"gate_probability_{i}"] = p
                    if p is not None:
                        self._g_gate_prob.labels(i=str(i)).set(p)

        considered = getattr(self.optimizer, "_gate_considered", None)
        if considered is not None:
            exposed = int(getattr(self.optimizer, "_gate_exposed", 0))
            considered = int(considered)
            d_considered = considered - self._gate_prev[0]
            d_exposed = exposed - self._gate_prev[1]
            if d_considered > 0:
                self._c_gate_considered.inc(d_considered)
            if d_exposed > 0:
                self._c_gate_exposed.inc(d_exposed)
            if d_considered - d_exposed > 0:
                self._c_gate_rejected.inc(d_considered - d_exposed)
            self._gate_prev = (considered, exposed)
            sample["gate_considered"] = float(d_considered)
            sample["gate_exposed"] = float(d_exposed)

        parted = state.get("parted")
        if parted is not None:
            pop = parted.population
            occupancy = parted.occupancy()
            front_mask = pop.rank == 0
            local_front = np.bincount(
                pop.partition[front_mask], minlength=parted.grid.n_partitions
            )
            for p, (occ, nd) in enumerate(zip(occupancy, local_front)):
                label = str(p)
                self._g_occupancy.labels(partition=label).set(float(occ))
                self._g_local_front.labels(partition=label).set(float(nd))
                sample[f"partition_occupancy_{p}"] = float(occ)
                sample[f"partition_nondominated_{p}"] = float(nd)

        islands = state.get("islands")
        if islands is not None:
            for i, island in enumerate(islands):
                self._g_island.labels(island=str(i)).set(float(island.size))
                sample[f"island_size_{i}"] = float(island.size)

    def _sample_archive(self, sample: Dict[str, Optional[float]]) -> None:
        if self.archive is None:
            return
        size = int(self.archive.size)
        seen = int(getattr(self.archive, "n_observed", 0))
        self._g_archive.set(float(size))
        if seen > self._archive_seen_prev:
            self._c_archive_seen.inc(seen - self._archive_seen_prev)
        self._archive_seen_prev = seen
        sample["archive_size"] = float(size)

    def _sample_kernels(self, sample: Dict[str, Optional[float]]) -> None:
        if self._kernel_counts is None:
            return
        counts = self._kernel_counts()
        total_delta = 0
        for fn, count in counts.items():
            delta = int(count) - self._kernel_prev.get(fn, 0)
            if delta > 0:
                self._c_kernel_calls.labels(fn=fn).inc(delta)
                total_delta += delta
        self._kernel_prev = dict(counts)
        if total_delta:
            sample["kernel_calls"] = float(total_delta)


def gate_probability_curves(
    records: Iterable[Dict[str, Any]],
) -> Dict[int, List[Tuple[int, float]]]:
    """Extract the Fig.-4 family of curves from recorded telemetry.

    *records* are one run's ``{"generation": g, "telemetry": {...}}``
    records: :attr:`TelemetryCallback.samples`, or a run ledger read back
    with :func:`repro.obs.records.read_records` (records without
    ``telemetry``, such as ``run_started``, are skipped).  Returns
    ``{i: [(generation, probability), ...]}`` for each cost index ``i``
    that appears — the participation-probability trajectories of
    eqn (3), as actually applied during the run.
    """
    curves: Dict[int, List[Tuple[int, float]]] = {}
    prefix = "gate_probability_"
    for record in records:
        telemetry = record.get("telemetry")
        if not telemetry:
            continue
        generation = int(record["generation"])
        for name, value in telemetry.items():
            if name.startswith(prefix) and value is not None:
                i = int(name[len(prefix):])
                curves.setdefault(i, []).append((generation, float(value)))
    for curve in curves.values():
        curve.sort()
    return curves
