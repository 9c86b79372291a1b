"""End-to-end benchmark of the design-space-exploration stack.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Workloads: ``explore``, ``campaign``, ``serve`` (see ``workloads.py``).
``--trace 0`` times untraced iterations and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics (``layers.py``).  Either way the program
prints one ``name value unit`` line per metric, a ``context`` line, and
as the last line of standard output one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record`` re-measures the reference quality of a workload and stores
it in ``reference.json`` (do this only when a change moves the fronts on
purpose, and say why).
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: with one job worker and one
# client connection the load stays within two cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Timed iterations per untraced run, at least (more if time allows).
MIN_ITERATIONS = 3
#: Measuring stops here whatever the minimums say.
HARD_LIMIT_S = 120.0
#: Quality guards checked against ``reference.json``, each within its
#: bound in BENCHMARK.json (a share of the recorded value).
QUALITY = ("coverage", "hv_paper")
#: Share of the traced wall that may fall outside every layer's span.
UNATTRIBUTED_MAX = 0.1
#: What ``setup_s`` imports, in a fresh interpreter each time.
IMPORTS = "import repro.experiments.runner, repro.campaign, repro.serve"
ROOT_SPAN = "perfbench.iteration"


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            report(errors)

    def add(self, it) -> None:
        self.attempted += it.attempted
        self.failed += it.failed
        report(it.errors)


def report(errors) -> None:
    for error in list(errors)[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    if len(errors) > 5:
        print(f"FAILED: ... and {len(errors) - 5} more", file=sys.stderr)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORTS}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def file_counts(paths):
    """``(records, bytes)`` of JSON-lines files (missing files count 0)."""
    records = size = 0
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            continue
        records += data.count(b"\n")
        size += len(data)
    return records, size


def set_up(workload_cls, seed: int, data: Path):
    """Set the workload up SETUP_REPEATS times; keep the last one."""
    totals = []
    workload = None
    for k in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        imported = import_seconds()
        workload = workload_cls(data / f"setup-{k}", seed)
        started = time.perf_counter()
        workload.setup()
        totals.append(imported + time.perf_counter() - started)
    return statistics.median(totals), workload


def run_iteration(workload, tally, span=None):
    gc.collect()
    try:
        with span if span is not None else contextlib.nullcontext():
            it = workload.iterate()
    except Exception:
        tally.op([traceback.format_exc()])
        return None
    tally.add(it)
    return it


def quality_bounds() -> dict:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"] if m["name"] in QUALITY}


def reference_errors(name: str, quality) -> list:
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[name]
    errors = []
    for key, bound in quality_bounds().items():
        if abs(quality[key] - ref[key]) > bound * abs(ref[key]):
            errors.append(
                f"reference {key} {quality[key]!r} is not within "
                f"{bound:.0%} of the recorded {ref[key]!r}"
            )
    return errors


def measure_untraced(workload, seconds: float, tally):
    iters = []
    started = time.perf_counter()
    while time.perf_counter() - started < HARD_LIMIT_S:
        if time.perf_counter() - started >= seconds and len(iters) >= MIN_ITERATIONS:
            break
        it = run_iteration(workload, tally)
        if it is not None:
            iters.append(it)
    return iters


def e2e_metrics(iters, setup_s: float, quality):
    if not iters:
        raise SystemExit("perfbench: no iteration completed")
    bursts = [it.query_s for it in iters if it.query_s]
    queries = [q for b in bursts for q in b]

    def query_ms(q):
        """Median over the run's query bursts of one burst's percentile."""
        return 1e3 * statistics.median(percentile(b, q) for b in bursts) if bursts else 0.0

    # The round trip is bimodal (two modes ~0.25 ms apart whose weights
    # shift with the host), so its median jumps between modes from run to
    # run; the mean over every query of the run moves with the weights
    # only.  The median is reported in the context line.
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(it.wall_s for it in iters), "s"),
        "evals_per_s": (
            statistics.median(it.n_evaluations / it.wall_s for it in iters), "1/s"
        ),
        "job_s_p50": (statistics.median(it.job_s for it in iters), "s"),
        "query_ms_mean": (1e3 * statistics.fmean(queries) if queries else 0.0, "ms"),
        "query_ms_p99": (query_ms(99), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "coverage": (quality["coverage"], "ratio"),
        "hv_paper": (quality["hv_paper"], "0.1mW.pF"),
    }, {
        "iterations": len(iters),
        "queries": len(queries),
        "query_ms_p50": round(query_ms(50), 4),
    }


def unattributed_errors(tracer) -> list:
    """The layers' self times must account for the traced wall: what the
    root span keeps for itself is time outside every layer."""
    share = tracer.self_s[ROOT_SPAN] / tracer.busy[ROOT_SPAN]
    if share > UNATTRIBUTED_MAX:
        return [
            f"{share:.1%} of the traced wall is in no layer "
            f"(at most {UNATTRIBUTED_MAX:.0%} allowed)"
        ]
    return []


def measure_traced(workload, seconds: float, tally):
    """Alternate untraced and traced iterations; returns what the layer
    metrics need."""
    from layers import Tracer, installed
    from workloads import EXPECTED_WRAPPERS

    tracer = Tracer()
    untraced, traced = [], []
    obs = {}
    hits = misses = 0
    started = time.perf_counter()
    while time.perf_counter() - started < HARD_LIMIT_S:
        if time.perf_counter() - started >= seconds and traced and untraced:
            break
        it = run_iteration(workload, tally)
        if it is not None:
            untraced.append(it)
        before_files = {k: file_counts(v) for k, v in workload.obs_files().items()}
        before_cache = workload.store.stats()
        workload.tracer = tracer
        try:
            with installed(tracer):
                it = run_iteration(workload, tally, tracer.span(ROOT_SPAN))
        finally:
            workload.tracer = None
        after_cache = workload.store.stats()
        hits += after_cache["query_hits"] - before_cache["query_hits"]
        misses += after_cache["query_misses"] - before_cache["query_misses"]
        for layer, paths in workload.obs_files().items():
            records, size = file_counts(paths)
            old = before_files.get(layer, (0, 0))
            total = obs.get(layer, (0, 0))
            obs[layer] = (total[0] + records - old[0], total[1] + size - old[1])
        if it is not None:
            traced.append(it)
    if not traced or not untraced:
        raise SystemExit("perfbench: no traced/untraced iteration pair completed")
    missing = [w for w in EXPECTED_WRAPPERS[workload.name] if not tracer.fired[w]]
    tally.op([f"wrapper {w} never fired" for w in missing])
    tally.op(unattributed_errors(tracer))
    return tracer, untraced, traced, obs, (hits, misses)


def layer_metrics(tracer, untraced, traced, obs, cache):
    from layers import STORE_OPS

    n = len(traced)
    wall = tracer.busy[ROOT_SPAN]
    calls, busy, own, amount = tracer.calls, tracer.busy, tracer.self_s, tracer.amount
    samples = tracer.samples

    def per(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    bias, batch = "circuits.bias_solve", "circuits.evaluate_batch"
    elems = amount[f"{bias}.elems"]
    rows = amount[f"{batch}.rows"]
    m = {
        f"{bias}.calls": (per(calls[bias]), "count"),
        f"{bias}.elems": (per(elems), "count"),
        f"{bias}.busy_s": (per(busy[bias]), "s"),
        f"{bias}.share": (ratio(busy[bias], wall), "ratio"),
        f"{bias}.ns_per_elem": (1e9 * ratio(busy[bias], elems), "ns"),
        "circuits.drain_current.calls": (per(calls["circuits.drain_current"]), "count"),
    }
    for tag in ("nominal", "corner", "mc"):
        layer = f"circuits.analyze_integrator.{tag}"
        m[f"{layer}.calls"] = (per(calls[layer]), "count")
        m[f"{layer}.self_s"] = (per(own[layer]), "s")
    run_s = samples["serve.jobs.run_s"]
    handle = samples["serve.http.query_handle_s"]
    round_trips = [q for it in traced for q in it.query_s]
    m.update({
        f"{batch}.calls": (per(calls[batch]), "count"),
        f"{batch}.rows": (per(rows), "count"),
        f"{batch}.rows_per_call": (ratio(rows, calls[batch]), "rows"),
        f"{batch}.busy_s": (per(busy[batch]), "s"),
        f"{batch}.dup_row_frac": (ratio(amount[f"{batch}.dup_rows"], rows), "ratio"),
        "core.evaluation.overhead_s": (per(own["core.evaluation"]), "s"),
        "core.kernels.calls": (per(calls["core.kernels"]), "count"),
        "core.kernels.busy_s": (per(busy["core.kernels"]), "s"),
        "core.optimizer.gen_ms_p50": (
            1e3 * percentile(samples["core.optimizer.gen_s"], 50), "ms"
        ),
        "core.optimizer.gen_ms_p90": (
            1e3 * percentile(samples["core.optimizer.gen_s"], 90), "ms"
        ),
        "core.optimizer.self_s": (per(own["core.optimizer"]), "s"),
        "core.checkpoint.calls": (per(calls["core.checkpoint"]), "count"),
        "core.checkpoint.bytes": (per(amount["core.checkpoint.bytes"]), "B"),
        "core.checkpoint.busy_s": (per(busy["core.checkpoint"]), "s"),
        "experiments.ledger.events": (per(calls["experiments.ledger"]), "count"),
        "experiments.ledger.busy_s": (per(busy["experiments.ledger"]), "s"),
        "obs.tracing.records": (per(obs.get("obs.tracing", (0, 0))[0]), "count"),
        "obs.tracing.bytes": (per(obs.get("obs.tracing", (0, 0))[1]), "B"),
        "obs.logging.records": (per(obs.get("obs.logging", (0, 0))[0]), "count"),
    })
    for op in STORE_OPS:
        layer = f"serve.store.{op}"
        m[f"{layer}.calls"] = (per(calls[layer]), "count")
        m[f"{layer}.busy_s"] = (per(busy[layer]), "s")
    m.update({
        "serve.jobs.queue_wait_s_p50": (
            percentile(samples["serve.jobs.queue_wait_s"], 50), "s"
        ),
        "serve.jobs.run_s_p50": (percentile(run_s, 50), "s"),
        "serve.jobs.observe_lag_s_p50": (
            percentile(samples["serve.jobs.observe_lag_s"], 50), "s"
        ),
        "serve.worker.overhead_frac": (
            ratio(sum(run_s) - busy["serve.worker.runner"], sum(run_s)), "ratio"
        ),
        "serve.surfaces.register_s": (
            ratio(busy["serve.surfaces.register"], calls["serve.surfaces.register"]),
            "s",
        ),
        "serve.surfaces.power_at_s": (
            ratio(busy["serve.surfaces.power_at"], calls["serve.surfaces.power_at"]),
            "s",
        ),
        "serve.surfaces.cache_hit_ratio": (ratio(cache[0], cache[0] + cache[1]), "ratio"),
        "serve.http.handle_ms_p50": (1e3 * percentile(handle, 50), "ms"),
        "serve.http.transport_ms_p50": (
            1e3 * (percentile(round_trips, 50) - percentile(handle, 50))
            if handle else 0.0,
            "ms",
        ),
        "campaign.shards.calls": (per(calls["campaign.shards"]), "count"),
        "campaign.shards.rows": (per(amount["campaign.shards.rows"]), "count"),
        "campaign.shards.busy_s": (per(busy["campaign.shards"]), "s"),
        "campaign.aggregate.busy_s": (per(busy["campaign.aggregate"]), "s"),
        "campaign.io_s": (per(busy["campaign.io"]), "s"),
        "trace.overhead_frac": (
            statistics.median(it.wall_s for it in traced)
            / statistics.median(it.wall_s for it in untraced) - 1.0,
            "ratio",
        ),
        "trace.unattributed_frac": (ratio(own[ROOT_SPAN], wall), "ratio"),
    })
    return m, {"iterations": n, "untraced_iterations": len(untraced)}


def record_reference(name: str, quality) -> None:
    try:
        table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    table[name] = quality
    REFERENCE_FILE.write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explore", "campaign", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import REFERENCE_SEED, WORKLOADS

    data = ROOT / ".perfbench-data" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        setup_s, workload = set_up(WORKLOADS[args.workload], args.seed, data)
        try:
            quality = workload.reference()
            if not all(math.isfinite(v) for v in quality.values()):
                raise SystemExit(f"perfbench: reference quality is not finite: {quality}")
            if args.record:
                record_reference(args.workload, quality)
                print(json.dumps({args.workload: quality}))
                return 0
            tally.op(reference_errors(args.workload, quality))
            if args.trace:
                measured = measure_traced(workload, args.seconds, tally)
                metrics, counts = layer_metrics(*measured)
            else:
                iters = measure_untraced(workload, args.seconds, tally)
                metrics, counts = e2e_metrics(iters, setup_s, quality)
        finally:
            workload.close()
    finally:
        shutil.rmtree(data, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        **counts,
    }
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
