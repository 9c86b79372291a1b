"""Same seed + same config => byte-identical serialized results.

This is the regression net under the evaluation and kernel layers: if
any future change to evaluation order or to the ranking kernels perturbs
the optimization trajectory, the serialized payloads stop matching at
the byte level and this file fails first.  Timing fields are stripped via
``result_to_dict(include_timing=False)`` — everything else must match
exactly.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.sizing_problem import IntegratorSizingProblem
from repro.core.islands import IslandNSGA2
from repro.core.kernels import kernel_call_counts
from repro.core.mesacga import MESACGA
from repro.core.nsga2 import NSGA2
from repro.core.sacga import SACGA, SACGAConfig
from repro.core.partitions import PartitionGrid
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import TelemetryCallback
from repro.obs.tracing import TraceRecorder
from repro.problems.synthetic import ClusteredFeasibility
from repro.utils.serialization import result_to_dict, save_result
from tests.core.reference_kernels import use_reference_kernels

POP = 16
GENS = 5
SEED = 1234

ALL_ALGOS = ["nsga2", "sacga", "mesacga", "islands"]


def build(name, problem=None, metrics=None, tracer=None):
    if problem is None:
        problem = ClusteredFeasibility(n_var=4)
    high = 1.0
    if isinstance(problem, IntegratorSizingProblem):
        high = 5.0e-12
    config = SACGAConfig(phase1_max_iterations=2)
    if name == "nsga2":
        return NSGA2(
            problem, population_size=POP, seed=SEED,
            metrics=metrics, tracer=tracer,
        )
    if name == "sacga":
        grid = PartitionGrid(axis=1, low=0.0, high=high, n_partitions=4)
        return SACGA(
            problem, grid, population_size=POP, seed=SEED,
            config=config, metrics=metrics, tracer=tracer,
        )
    if name == "mesacga":
        return MESACGA(
            problem, axis=1, low=0.0, high=high, partition_schedule=(4, 2, 1),
            population_size=POP, seed=SEED, config=config,
            metrics=metrics, tracer=tracer,
        )
    if name == "islands":
        return IslandNSGA2(
            problem, population_size=POP, n_islands=2, migration_interval=2,
            seed=SEED, metrics=metrics, tracer=tracer,
        )
    raise KeyError(name)


def serialized(result):
    payload = result_to_dict(result, include_timing=False)
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_two_runs_serialize_byte_identical(algo):
    blob_a = serialized(build(algo).run(GENS))
    blob_b = serialized(build(algo).run(GENS))
    assert blob_a == blob_b


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_instrumented_run_serializes_byte_identical(algo):
    """Observability is read-only: a fully instrumented run (metrics
    registry + span tracer + per-generation telemetry callback) must
    serialize byte-identically to a bare run.  This is the acceptance
    gate for the instrumentation subsystem."""
    plain = serialized(build(algo).run(GENS))
    registry = MetricsRegistry()
    tracer = TraceRecorder()
    algorithm = build(algo, metrics=registry, tracer=tracer)
    algorithm.add_callback(
        TelemetryCallback(algorithm, registry, kernel_counts=kernel_call_counts)
    )
    instrumented = serialized(algorithm.run(GENS))
    assert instrumented == plain
    # Guard against the instrumented leg silently running uninstrumented.
    collected = {name for name, _, _, _ in registry.collect()}
    assert "repro_generation" in collected
    assert "repro_backend_batches_total" in collected
    assert [node["name"] for node in tracer.profile()] == ["run"]


@pytest.mark.parametrize("algo", ["nsga2", "sacga"])
def test_distributed_observability_is_byte_invisible(algo, tmp_path):
    """The serve-stack observability — span export, structured logging,
    and a trace-bound run ledger — must not perturb the trajectory: a run
    wrapped the way a traced worker wraps it serializes byte-identically
    to a bare run."""
    from repro.experiments.ledger import LedgerCallback, RunLedger
    from repro.obs.logging import configure_logging, disable_logging, get_logger
    from repro.obs.records import read_records

    plain = serialized(build(algo).run(GENS))
    recorder = TraceRecorder(tmp_path / "run.trace.jsonl", process="test-worker")
    ledger = RunLedger(
        tmp_path / "run.jsonl",
        bound={"trace_id": "det-trace", "job_id": "job-det", "attempt": 1},
    )
    try:
        configure_logging(path=tmp_path / "run.log", level="debug")
        algorithm = build(algo, tracer=recorder)
        algorithm.add_callback(LedgerCallback(ledger, algorithm, run_id="det"))
        with recorder.span("worker:run", trace_id="det-trace"):
            get_logger("test").info("instrumented run")
            result = algorithm.run(GENS)
    finally:
        disable_logging()
    assert serialized(result) == plain
    # Guard against the instrumented leg silently not instrumenting.
    spans = read_records(recorder.path)
    assert {"worker:run", "generation", "evaluate"} <= {s["name"] for s in spans}
    assert all(s["trace_id"] == "det-trace" for s in spans)
    events = read_records(ledger.path)
    assert events
    assert all(e["trace_id"] == "det-trace" for e in events)


def test_saved_files_byte_identical(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_result(build("nsga2").run(GENS), path_a, include_timing=False)
    save_result(build("nsga2").run(GENS), path_b, include_timing=False)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_include_timing_strips_wall_clock_fields():
    result = build("nsga2").run(GENS)
    with_timing = result_to_dict(result, include_timing=True)
    without = result_to_dict(result, include_timing=False)
    assert with_timing["wall_time"] > 0.0
    assert without["wall_time"] == 0.0
    assert "eval_time" in with_timing["metadata"]["backend_stats"]
    assert "eval_time" not in without["metadata"]["backend_stats"]
    assert all("eval_time_s" in rec["extras"] for rec in with_timing["history"])
    assert all("eval_time_s" not in rec["extras"] for rec in without["history"])


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_blocked_and_reference_kernels_serialize_byte_identical(algo, monkeypatch):
    """The library kernels match the textbook loops over whole runs: full
    serialized payloads — fronts, per-generation history, metadata —
    match at the byte level when the oracle is swapped in."""
    blocked = serialized(build(algo).run(GENS))
    assert use_reference_kernels(monkeypatch) > 0
    reference = serialized(build(algo).run(GENS))
    assert blocked == reference


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_kernels_byte_identical_on_integrator_problem(algo, monkeypatch):
    """Same contract on the real circuit-sizing problem (constraints,
    Monte-Carlo evaluation, physical partition range)."""
    blocked = serialized(
        build(algo, problem=IntegratorSizingProblem(n_mc=2)).run(GENS)
    )
    assert use_reference_kernels(monkeypatch) > 0
    reference = serialized(
        build(algo, problem=IntegratorSizingProblem(n_mc=2)).run(GENS)
    )
    assert blocked == reference


# --------------------------------------------------------------- golden fronts
#
# tests/core/golden_fronts.json pins sha256 hashes of the serialized runs
# captured on the pre-batch-refactor tree (before evaluate_batch /
# evaluate_one split, CachedBackend key canonicalization, and the circuit
# model routing changes).  Matching these hashes proves the refactor is
# byte-invisible to every optimizer on both a synthetic and the real
# sizing problem.  Regenerate ONLY for an intentional trajectory change:
#
#     PYTHONPATH=src python tests/core/test_determinism_regression.py --regen

GOLDEN_PATH = Path(__file__).parent / "golden_fronts.json"

GOLDEN_PROBLEMS = {
    "clustered": lambda: ClusteredFeasibility(n_var=4),
    "integrator": lambda: IntegratorSizingProblem(n_mc=2),
}


def golden_run(algo, problem_key):
    return build(algo, problem=GOLDEN_PROBLEMS[problem_key]()).run(GENS)


def golden_digest(result):
    return hashlib.sha256(serialized(result)).hexdigest()


def load_golden():
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["pop"] == POP and payload["generations"] == GENS
    assert payload["seed"] == SEED
    return payload["hashes"]


@pytest.mark.parametrize("problem_key", sorted(GOLDEN_PROBLEMS))
@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("kernel", ["blocked", "reference"])
def test_golden_fronts_all_algorithms_both_kernels(
    algo, problem_key, kernel, monkeypatch
):
    """All four optimizers reproduce the pre-refactor goldens byte-for-byte
    with the library kernels and with the textbook loops swapped in."""
    if kernel == "reference":
        assert use_reference_kernels(monkeypatch) > 0
    want = load_golden()[f"{algo}/{problem_key}"]
    got = golden_digest(golden_run(algo, problem_key))
    assert got == want, (
        f"{algo}/{problem_key} (kernel={kernel}) diverged from the "
        f"pre-refactor golden: {got} != {want}"
    )


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_golden_fronts_default_backend(algo):
    """The default evaluation path hits the same goldens, and its
    metadata reports the run's batches and seconds, not a backend echo."""
    result = golden_run(algo, "clustered")
    assert "backend" not in result.metadata
    assert list(result.metadata["backend_stats"]) == ["n_batches", "eval_time"]
    assert golden_digest(result) == load_golden()[f"{algo}/clustered"]


def test_different_seeds_actually_differ():
    """Guard against the test proving nothing (e.g. constant output)."""
    problem = ClusteredFeasibility(n_var=4)
    r1 = NSGA2(problem, population_size=POP, seed=1).run(GENS)
    r2 = NSGA2(ClusteredFeasibility(n_var=4), population_size=POP, seed=2).run(GENS)
    assert not np.array_equal(r1.front_objectives, r2.front_objectives)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/core/test_determinism_regression.py --regen")
    hashes = {
        f"{algo}/{problem_key}": golden_digest(golden_run(algo, problem_key))
        for algo in ALL_ALGOS
        for problem_key in GOLDEN_PROBLEMS
    }
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "_comment": (
                    "sha256 of result_to_dict(include_timing=False) JSON blobs, "
                    f"pop={POP} gens={GENS} seed={SEED}; regenerate via "
                    "tests/core/test_determinism_regression.py --regen "
                    "(see module docstring)"
                ),
                "generations": GENS,
                "hashes": hashes,
                "pop": POP,
                "seed": SEED,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} with {len(hashes)} hashes")
