"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------

``repro figures [IDS...]``
    Reproduce the paper's figures/tables (default: all) and print the
    series.  ``--full`` uses paper-scale budgets.

``repro run ALGO``
    Run one algorithm on the integrator sizing problem and print the
    resulting design surface.  ``--checkpoint FILE`` makes the run
    crash-safe; ``--ledger FILE`` appends a JSONL event trace.

``repro resume CKPT``
    Continue a checkpointed ``repro run`` after a crash; the finished
    result is byte-identical to an uninterrupted run.

``repro trace LEDGER``
    Summarize a run ledger, then print the timing-span tree of each
    instrumented run in it (``repro run --metrics --ledger``); or tail
    its last events with ``--tail N``.

``repro stats RUN``
    Print the metrics snapshot of an instrumented run (*RUN* is a
    ``--metrics-out`` prefix or a ``.prom`` file).  Pointing it at a
    directory or glob of ``.prom`` files merges them into one view with
    each file's stem as the ``worker`` label.

``repro trace-view TRACE_ID``
    Reconstruct one distributed trace from the span files the server
    and workers export under ``<data-dir>/traces`` and print it as a
    cross-process tree (unfinished spans — e.g. from a killed worker —
    are marked).

``repro spec-ladder``
    Print the 20-step specification difficulty ladder.

``repro serve``
    Run the JSON/HTTP optimization service: a bounded job pool plus a
    versioned design-surface store (see :mod:`repro.serve`).

``repro submit ALGO``
    Submit an optimization job to a running ``repro serve`` instance;
    ``--wait`` polls it to completion and prints the outcome.

``repro query NAME C_LOAD_PF``
    Ask a running service for the minimum power at a load point on a
    registered design surface (``--design`` adds the sizing vector).

``repro campaign run|status|report``
    Robustness campaigns: re-evaluate a registered surface's designs
    across a corner x Monte-Carlo x operating-condition scenario grid,
    inline or as durable shard jobs (``--durable`` + ``repro workers``),
    and aggregate yields plus a derated design surface.

Commands that read files (``resume``, ``trace``, ``stats``) exit with
status 2 and a one-line message — never a traceback — when the file is
missing, unreadable or corrupt.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.circuits.specs import spec_ladder
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.ledger import format_event, format_summary, summarize_ledger
from repro.experiments.reporting import format_table, front_rows
from repro.experiments.runner import Scale, RunSummary, resume_run, run_one
from repro.obs.exporters import merge_prometheus, parse_prometheus
from repro.obs.logging import configure_logging
from repro.obs.records import read_records, tail_records
from repro.obs.tracing import format_profile


def _int_at_least(low: int):
    """argparse type: an int >= *low* (a smaller value exits with code 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _scale_from_args(args: argparse.Namespace) -> Scale:
    scale = Scale.full() if getattr(args, "full", False) else Scale.from_env()
    generations = getattr(args, "generations", None)
    n_mc = getattr(args, "n_mc", None)
    if generations is not None:
        scale = replace(scale, generations=generations)
    if n_mc is not None:
        scale = replace(scale, n_mc=n_mc)
    return scale


def cmd_figures(args: argparse.Namespace) -> int:
    ids = args.ids or list(ALL_FIGURES)
    scale = _scale_from_args(args)
    unknown = [i for i in ids if i not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure ids: {unknown}; known: {sorted(ALL_FIGURES)}")
        return 2
    for fid in ids:
        data = ALL_FIGURES[fid](scale=scale)
        print(data.render())
        print()
    return 0


def _print_run_summary(
    summary: RunSummary,
    max_rows: int = 20,
    json_path: Optional[str] = None,
) -> None:
    front = summary.result.front_objectives
    print(
        f"{summary.algorithm}: front={summary.front_size} "
        f"coverage={summary.coverage:.2f} hv_paper={summary.hv_paper:.2f} "
        f"({summary.n_evaluations} evaluations, {summary.wall_time:.1f}s)"
    )
    rows = front_rows(front, max_rows=max_rows)
    print(format_table(["c_load_pF", "power_mW"], rows))
    if json_path:
        payload = {
            "algorithm": summary.algorithm,
            "front": front.tolist(),
            "coverage": summary.coverage,
            "hv_paper": summary.hv_paper,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {json_path}")


def cmd_run(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    kwargs = {}
    if args.algorithm == "sacga":
        kwargs["n_partitions"] = args.partitions
    summary = run_one(
        args.algorithm,
        "cli",
        scale=scale,
        use_corners=not args.no_corners,
        mc_seed=args.mc_seed,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        ledger=args.ledger,
        metrics=args.metrics,
        metrics_out=args.metrics_out,
        **kwargs,
    )
    _print_run_summary(summary, max_rows=args.max_rows, json_path=args.json)
    _print_metrics_outcome(summary, args.metrics_out)
    return 0


def _print_metrics_outcome(summary: RunSummary, metrics_out: Optional[str]) -> None:
    if metrics_out is not None:
        print(f"wrote {metrics_out}.prom")
    if summary.profile:
        print(format_profile(summary.profile))


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        summary = resume_run(
            args.checkpoint,
            ledger=args.ledger,
            metrics=args.metrics,
            metrics_out=args.metrics_out,
        )
    except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
        print(f"cannot resume from {args.checkpoint!r}: {exc}", file=sys.stderr)
        return 2
    _print_run_summary(summary, max_rows=args.max_rows, json_path=args.json)
    _print_metrics_outcome(summary, args.metrics_out)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        if args.tail:
            for event in tail_records(args.ledger, args.tail):
                print(format_event(event))
            return 0
        events = read_records(args.ledger)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.ledger!r}: {exc}", file=sys.stderr)
        return 2
    print(format_summary(summarize_ledger(events)))
    for event in events:
        if event.get("event") == "run_finished" and event.get("profile"):
            print(f"\nspans of {event.get('run')}:")
            print(format_profile(event["profile"]))
    return 0


def cmd_trace_view(args: argparse.Namespace) -> int:
    from repro.obs.tracing import collect_trace, format_trace_tree, stitch_trace

    root = Path(args.traces) if args.traces else Path(args.data_dir) / "traces"
    if not root.exists() and not any(ch in str(root) for ch in "*?["):
        print(f"no trace files under {str(root)!r}", file=sys.stderr)
        return 2
    try:
        events = collect_trace(root, trace_id=args.trace_id)
    except OSError as exc:
        print(f"cannot read {str(root)!r}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"trace {args.trace_id!r} not found under {root}", file=sys.stderr)
        return 1
    print(format_trace_tree(stitch_trace(events), trace_id=args.trace_id))
    return 0


def _format_label_set(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _prom_file_set(spec: str) -> Optional[List[Path]]:
    """The ``.prom`` files *spec* names, or ``None`` for a single file.

    A directory means every ``*.prom`` directly inside it; a glob
    pattern (``*``/``?``/``[``) expands relative to the cwd.
    """
    path = Path(spec)
    if path.is_dir():
        return sorted(path.glob("*.prom"))
    if any(ch in spec for ch in "*?["):
        return sorted(Path(p) for p in globlib.glob(spec))
    return None


def cmd_stats(args: argparse.Namespace) -> int:
    prom_set = _prom_file_set(args.run)
    if prom_set is not None:
        if not prom_set:
            print(f"no .prom files under {args.run!r}")
            return 2
        snapshots = {}
        for prom in prom_set:
            try:
                snapshots[prom.stem] = prom.read_text(encoding="utf-8")
            except OSError as exc:
                print(f"cannot read {str(prom)!r}: {exc}", file=sys.stderr)
                return 2
        try:
            metrics = parse_prometheus(merge_prometheus(snapshots, label="worker"))
        except ValueError as exc:
            print(f"{args.run}: invalid Prometheus snapshot: {exc}")
            return 2
        path = Path(args.run)
    else:
        path = Path(args.run)
        if not path.exists() and not str(path).endswith(".prom"):
            path = Path(f"{args.run}.prom")
        if not path.exists():
            print(
                f"no metrics snapshot at {args.run!r} (expected a .prom file, "
                f"a --metrics-out prefix, or a directory/glob of .prom files)"
            )
            return 2
        try:
            metrics = parse_prometheus(path.read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"cannot read {str(path)!r}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"{path}: invalid Prometheus snapshot: {exc}")
            return 2
    names = sorted(metrics)
    if args.metric:
        names = [n for n in names if args.metric in n]
        if not names:
            print(f"no metric matching {args.metric!r} in {path}")
            return 2
    for name in names:
        info = metrics[name]
        help_text = f"  ({info['help']})" if info["help"] else ""
        print(f"{name} [{info['kind']}]{help_text}")
        for sample in info["samples"]:
            suffix = sample["name"][len(name):]
            label = _format_label_set(sample["labels"])
            value = sample["value"]
            text = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
            print(f"  {suffix or '.'}{label:<40s} {text}")
    return 0


def cmd_spec_ladder(args: argparse.Namespace) -> int:
    rows = []
    for spec in spec_ladder(args.n):
        rows.append(
            [
                spec.name,
                spec.dr_min_db,
                spec.or_min,
                spec.st_max * 1e6,
                spec.se_max,
                spec.robustness_min,
            ]
        )
    print(
        format_table(
            ["name", "DR_dB", "OR_V", "ST_us", "SE", "robustness"], rows
        )
    )
    return 0


def _configure_cli_logging(args: argparse.Namespace) -> None:
    """Apply ``--log-file`` / ``--log-level`` and export them as
    ``REPRO_LOG`` / ``REPRO_LOG_LEVEL`` so spawned worker processes
    inherit the same sink."""
    log_file = getattr(args, "log_file", None)
    log_level = getattr(args, "log_level", None)
    if log_file:
        configure_logging(path=log_file, level=log_level or "info")
        os.environ["REPRO_LOG"] = str(log_file)
    elif log_level:
        configure_logging(stream=sys.stderr, level=log_level)
        os.environ["REPRO_LOG"] = "stderr"
    if log_level:
        os.environ["REPRO_LOG_LEVEL"] = log_level


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily so `repro run` and friends never pay for the
    # service layer.
    from repro.obs.registry import MetricsRegistry
    from repro.serve import JobManager, JobStore, ReproServer, ServeApp, SurfaceStore

    _configure_cli_logging(args)
    registry = MetricsRegistry()
    store = SurfaceStore(Path(args.data_dir) / "surfaces")
    job_store = (
        JobStore(args.store, metrics=registry) if args.store else None
    )
    manager = JobManager(
        store=store,
        data_dir=args.data_dir,
        workers=args.workers,
        queue_size=args.queue_size,
        metrics=registry,
        job_store=job_store,
        lease_s=args.lease,
        retain_terminal=args.retain,
        snapshot_ttl_s=args.snapshot_ttl,
        tracing=not args.no_tracing,
    )
    server = ReproServer(
        ServeApp(manager, store, registry), host=args.host, port=args.port
    )
    server.start()
    if args.port_file:
        Path(args.port_file).write_text(str(server.port), encoding="utf-8")
    print(
        f"repro serve listening on {server.url} "
        f"(workers={args.workers}, queue={args.queue_size}, "
        f"data={args.data_dir}, store={manager.job_store.path})"
    )

    stop = {"flag": False}

    def _graceful(signum, frame):  # pragma: no cover - signal path
        stop["flag"] = True

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _graceful)
    try:
        import time as _time

        while not stop["flag"]:
            _time.sleep(0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("draining job pool ...")
        server.close(drain=not args.no_drain)
        print("repro serve stopped")
    return 0


def cmd_workers(args: argparse.Namespace) -> int:
    # Lazy import, same as cmd_serve: plain `repro run` stays light.
    from repro.serve.worker import run_worker_pool

    _configure_cli_logging(args)
    data_dir = Path(args.data_dir)
    store_path = Path(args.store) if args.store else data_dir / "jobs.sqlite"
    surfaces_root = data_dir / "surfaces"
    traces_root = None if args.no_tracing else data_dir / "traces"
    print(
        f"repro workers: {args.n} worker(s) on {store_path} "
        f"(lease={args.lease:g}s, surfaces={surfaces_root})"
    )
    clean = run_worker_pool(
        store_path,
        surfaces_root=surfaces_root,
        n_workers=args.n,
        lease_s=args.lease,
        poll_s=args.poll,
        max_jobs=args.max_jobs,
        traces_root=traces_root,
    )
    return 0 if clean == args.n else 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    params = {"algorithm": args.algorithm}
    if args.generations is not None:
        params["generations"] = args.generations
    if args.population is not None:
        params["population"] = args.population
    if args.n_mc is not None:
        params["n_mc"] = args.n_mc
    if args.mc_seed is not None:
        params["mc_seed"] = args.mc_seed
    if args.no_corners:
        params["use_corners"] = False
    if args.partitions is not None and args.algorithm == "sacga":
        params["n_partitions"] = args.partitions
    if args.surface:
        params["surface"] = args.surface
    client = ServeClient(args.url)
    try:
        job = client.submit(params, trace_id=args.trace_id)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2 if exc.status != 429 else 3
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    trace_note = f" trace={job['trace_id']}" if job.get("trace_id") else ""
    print(f"job {job['id']} {job['state']}{trace_note}")
    if not args.wait:
        return 0
    try:
        done = client.wait(job["id"], timeout=args.timeout)
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    print(f"job {done['id']} {done['state']}")
    if done["state"] != "done":
        if done.get("error"):
            print(done["error"], file=sys.stderr)
        return 1
    result = done.get("result") or {}
    for run in result.get("runs", []):
        # An empty front has no finite score, which the result carries as null.
        hv = "n/a" if run["hv_paper"] is None else f"{run['hv_paper']:.2f}"
        print(
            f"  {run['algorithm']}: front={run['front_size']} "
            f"hv_paper={hv} "
            f"({run['n_evaluations']} evaluations, {run['wall_time']:.1f}s)"
        )
    surface = result.get("surface")
    if surface:
        print(
            f"  surface {surface['name']} v{surface['version']} "
            f"({surface['size']} points)"
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    c_load = args.c_load_pf * 1e-12
    try:
        answer = client.query(
            args.name, c_load, design=args.design, version=args.version
        )
    except ServeError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    power = answer.get("power")
    if power is None or (isinstance(power, float) and math.isnan(power)):
        print(
            f"{args.name}: no design reaches {args.c_load_pf:g} pF "
            "(above the stored range)"
        )
        return 1
    print(f"{args.name} v{answer['version']}: power {power * 1e3:.6g} mW")
    design = answer.get("design")
    if args.design and design:
        actual_pf = design["c_load"] * 1e12
        print(f"  drives {actual_pf:.4g} pF with x = {design['x']}")
    return 0


def _campaign_runner(args: argparse.Namespace):
    from repro.campaign.engine import CampaignRunner
    from repro.serve.surfaces import SurfaceStore

    data_dir = Path(args.data_dir)
    store = SurfaceStore(data_dir / "surfaces")
    return CampaignRunner(data_dir / "campaigns", surfaces=store), store


def _print_campaign_report(
    report: dict, max_rows: int = 20, json_path: Optional[str] = None
) -> None:
    print(
        f"campaign {report.get('campaign', '?')}: "
        f"{report['n_designs']} designs x {report['n_scenarios']} scenarios "
        f"x {report['n_mc']} MC "
        f"({report['n_evaluations']} evaluations, {report['n_shards']} shards)"
    )
    print(
        f"yield >= {report['yield_target']:g}: "
        f"{report['n_yielding']}/{report['n_designs']} designs "
        f"(min {report['min_yield']:.2f}, median {report['median_yield']:.2f})"
    )
    derated = report.get("derated_surface") or {}
    if derated.get("registered"):
        print(
            f"derated surface {derated['name']} v{derated['version']} "
            f"({derated['size']} points)"
        )
    elif derated:
        print(f"derated surface not registered: {derated.get('reason')}")
    rows = [
        [
            f"{d['c_load'] * 1e12:.3f}",
            f"{d['nominal_power'] * 1e3:.4f}",
            f"{d['derated_power'] * 1e3:.4f}",
            d["worst_scenario"],
            f"{d['yield']:.2f}",
            f"[{d['yield_lo']:.2f}, {d['yield_hi']:.2f}]",
            "yes" if d["passes_target"] else "no",
        ]
        for d in report["designs"][:max_rows]
    ]
    print(
        format_table(
            ["c_load_pF", "nominal_mW", "derated_mW", "worst", "yield",
             "wilson_95", "keeps"],
            rows,
        )
    )
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {json_path}")


def cmd_campaign_run(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign.engine import UnknownCampaign
    from repro.campaign.scenarios import (
        NOMINAL_CONDITION,
        CampaignSpec,
        OperatingCondition,
    )
    from repro.serve.surfaces import UnknownSurface

    runner, store = _campaign_runner(args)
    manifest = None
    if args.campaign_id:
        # Re-running an existing id is the resume path: only shards
        # without a result file are (re-)executed or (re-)submitted.
        try:
            manifest = runner.load(args.campaign_id)
        except UnknownCampaign:
            manifest = None
    if manifest is None:
        spec_kwargs: dict = {}
        if args.corners:
            spec_kwargs["corners"] = tuple(
                c.strip() for c in args.corners.split(",") if c.strip()
            )
        if args.n_mc is not None:
            spec_kwargs["n_mc"] = args.n_mc
        if args.mc_seed is not None:
            spec_kwargs["mc_seed"] = args.mc_seed
        if args.yield_target is not None:
            spec_kwargs["yield_target"] = args.yield_target
        if args.shard_scenarios is not None:
            spec_kwargs["shard_scenarios"] = args.shard_scenarios
        if args.condition:
            conditions = [NOMINAL_CONDITION]
            for text in args.condition:
                parts = text.split(",")
                if len(parts) != 3:
                    print(
                        f"bad --condition {text!r} "
                        "(want NAME,VDD_SCALE,TEMP_K e.g. hot,0.95,358)",
                        file=sys.stderr,
                    )
                    return 2
                try:
                    conditions.append(
                        OperatingCondition(
                            parts[0].strip(), float(parts[1]), float(parts[2])
                        )
                    )
                except ValueError as exc:
                    print(f"bad --condition {text!r}: {exc}", file=sys.stderr)
                    return 2
            spec_kwargs["conditions"] = tuple(conditions)
        try:
            spec = CampaignSpec(**spec_kwargs)
            manifest = runner.create_from_surface(
                store,
                args.surface,
                spec,
                version=args.version,
                campaign_id=args.campaign_id,
            )
        except (UnknownSurface, KeyError, ValueError) as exc:
            print(f"cannot start campaign: {exc}", file=sys.stderr)
            return 2
    pending = runner.pending_shards(manifest)
    print(
        f"campaign {manifest['id']}: {manifest['n_designs']} designs x "
        f"{len(manifest['scenario_keys'])} scenarios in "
        f"{len(manifest['shards'])} shards ({len(pending)} pending) "
        f"trace={manifest['trace_id']}"
    )
    if not args.durable:
        report = runner.run_inline(manifest)
        _print_campaign_report(report, max_rows=args.max_rows, json_path=args.json)
        return 0
    from repro.serve.store import JobStore

    store_path = (
        Path(args.store) if args.store else Path(args.data_dir) / "jobs.sqlite"
    )
    submitted = runner.submit_shards(manifest, JobStore(store_path))
    print(f"submitted {len(submitted)} campaign_shard job(s) to {store_path}")
    if not args.wait:
        print(
            "run `repro workers --data-dir "
            f"{args.data_dir}` to execute them; check progress with "
            f"`repro campaign status {manifest['id']}`"
        )
        return 0
    deadline = _time.monotonic() + args.timeout
    while runner.pending_shards(manifest):
        if _time.monotonic() >= deadline:
            print(
                f"campaign {manifest['id']} still has shards "
                f"{runner.pending_shards(manifest)} after {args.timeout:.1f}s",
                file=sys.stderr,
            )
            return 3
        _time.sleep(0.2)
    report = runner.finalize(manifest)
    _print_campaign_report(report, max_rows=args.max_rows, json_path=args.json)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign.engine import UnknownCampaign

    runner, _ = _campaign_runner(args)
    if not args.campaign_id:
        campaigns = runner.list_campaigns()
        if not campaigns:
            print(f"no campaigns under {runner.root}")
            return 0
        for status in campaigns:
            print(
                f"{status['id']}: {status['shards_done']}/{status['n_shards']} "
                f"shards, {status['n_designs']} designs, "
                f"{'report ready' if status['report_ready'] else 'running'}"
            )
        return 0
    try:
        status = runner.status(runner.load(args.campaign_id))
    except UnknownCampaign:
        print(f"no campaign {args.campaign_id!r} under {runner.root}",
              file=sys.stderr)
        return 2
    for key in (
        "id", "trace_id", "n_designs", "n_scenarios", "n_shards",
        "shards_done", "shards_pending", "complete", "report_ready",
        "derated_surface",
    ):
        print(f"{key}: {status[key]}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign.engine import UnknownCampaign

    runner, _ = _campaign_runner(args)
    try:
        manifest = runner.load(args.campaign_id)
    except UnknownCampaign:
        print(f"no campaign {args.campaign_id!r} under {runner.root}",
              file=sys.stderr)
        return 2
    try:
        report = runner.finalize(manifest)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _print_campaign_report(report, max_rows=args.max_rows, json_path=args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SACGA/MESACGA analog design-space exploration (DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="reproduce the paper's figures/tables")
    p_fig.add_argument("ids", nargs="*", help=f"figure ids ({', '.join(ALL_FIGURES)})")
    p_fig.add_argument("--full", action="store_true", help="paper-scale budgets")
    p_fig.add_argument(
        "--generations", type=_int_at_least(0), help="override generation budget"
    )
    p_fig.set_defaults(func=cmd_figures)

    p_run = sub.add_parser("run", help="run one algorithm on the sizing problem")
    p_run.add_argument("algorithm", choices=["tpg", "sacga", "mesacga"])
    p_run.add_argument("--partitions", type=int, default=8)
    p_run.add_argument("--full", action="store_true")
    p_run.add_argument("--generations", type=_int_at_least(0))
    p_run.add_argument(
        "--n-mc", type=_int_at_least(1), default=None,
        help="Monte-Carlo samples of the robustness constraint "
        "(default: the scale's n_mc)",
    )
    p_run.add_argument(
        "--mc-seed", type=int, default=2005,
        help="common-random-number seed of the Monte-Carlo samples "
        "(default: 2005)",
    )
    p_run.add_argument(
        "--no-corners", action="store_true",
        help="evaluate the robustness constraint at the nominal card only "
        "instead of across all process corners",
    )
    p_run.add_argument("--max-rows", type=int, default=20)
    p_run.add_argument("--json", help="write the front to this JSON file")
    p_run.add_argument(
        "--checkpoint",
        default=None,
        help="write a crash-safe checkpoint to this file every "
        "--checkpoint-every generations (resume with `repro resume`)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="checkpoint cadence in generations (default: 10)",
    )
    p_run.add_argument(
        "--ledger",
        default=None,
        help="append a JSONL event trace to this file "
        "(inspect with `repro trace`)",
    )
    p_run.add_argument(
        "--metrics", action="store_true",
        help="enable the metrics registry, timing spans and algorithm "
        "telemetry (prints the span-timing tree after the run; with "
        "--ledger, the telemetry and the tree are also written there)",
    )
    p_run.add_argument(
        "--metrics-out", default=None, metavar="PREFIX",
        help="write the metrics snapshot to PREFIX.prom after the run "
        "(implies --metrics)",
    )
    p_run.set_defaults(func=cmd_run)

    p_resume = sub.add_parser(
        "resume", help="continue a checkpointed `repro run` after a crash"
    )
    p_resume.add_argument("checkpoint", help="checkpoint file written by `repro run`")
    p_resume.add_argument(
        "--ledger", default=None, help="append trace events to this JSONL file"
    )
    p_resume.add_argument("--max-rows", type=int, default=20)
    p_resume.add_argument("--json", help="write the front to this JSON file")
    p_resume.add_argument(
        "--metrics", action="store_true",
        help="instrument the resumed portion of the run",
    )
    p_resume.add_argument(
        "--metrics-out", default=None, metavar="PREFIX",
        help="write the metrics snapshot to PREFIX.prom after the resumed run",
    )
    p_resume.set_defaults(func=cmd_resume)

    p_trace = sub.add_parser(
        "trace", help="summarize or tail a JSONL run ledger"
    )
    p_trace.add_argument("ledger", help="ledger file written by --ledger")
    p_trace.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="print the last N events instead of the summary and span trees",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="print the metrics snapshot of an instrumented run"
    )
    p_stats.add_argument(
        "run", help="--metrics-out prefix, .prom file, or a directory/glob "
        "of .prom files to merge (file stems become worker labels)",
    )
    p_stats.add_argument(
        "--metric", default=None,
        help="only print metrics whose name contains this substring",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_tview = sub.add_parser(
        "trace-view",
        help="reconstruct a distributed trace from exported span files",
    )
    p_tview.add_argument("trace_id", help="trace id printed by `repro submit`")
    p_tview.add_argument(
        "--data-dir", default="serve-data",
        help="service data root; spans are read from <data-dir>/traces "
        "(default: serve-data)",
    )
    p_tview.add_argument(
        "--traces", default=None, metavar="PATH",
        help="explicit trace file, directory, or glob (overrides --data-dir)",
    )
    p_tview.set_defaults(func=cmd_trace_view)

    p_spec = sub.add_parser("spec-ladder", help="print the 20-spec difficulty ladder")
    p_spec.add_argument("-n", type=int, default=20)
    p_spec.set_defaults(func=cmd_spec_ladder)

    p_serve = sub.add_parser(
        "serve", help="run the optimization-job / design-surface HTTP service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks an ephemeral port; default: 8321)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="optimization worker threads; 0 = accept/query only and let "
        "external `repro workers` processes execute (default: 2)",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=16,
        help="job queue bound; submissions beyond it get 429 (default: 16)",
    )
    p_serve.add_argument(
        "--data-dir", default="serve-data",
        help="root for surfaces, ledgers and checkpoints (default: serve-data)",
    )
    p_serve.add_argument(
        "--port-file", default=None, metavar="FILE",
        help="write the bound port to FILE once listening (for scripts/CI)",
    )
    p_serve.add_argument(
        "--no-drain", action="store_true",
        help="on shutdown, cancel queued/running jobs instead of draining",
    )
    p_serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite job store path (default: <data-dir>/jobs.sqlite)",
    )
    p_serve.add_argument(
        "--lease", type=float, default=30.0,
        help="worker lease seconds; a dead worker's job is requeued after "
        "this long without a heartbeat (default: 30)",
    )
    p_serve.add_argument(
        "--retain", type=int, default=10_000,
        help="finished/failed/cancelled jobs kept before eviction "
        "(default: 10000)",
    )
    p_serve.add_argument(
        "--snapshot-ttl", type=float, default=None, metavar="SECONDS",
        help="drop worker metrics snapshots older than this from /metrics "
        "(default: 3 x --lease)",
    )
    p_serve.add_argument(
        "--no-tracing", action="store_true",
        help="disable span export under <data-dir>/traces",
    )
    p_serve.add_argument(
        "--log-file", default=None, metavar="FILE",
        help="append structured JSON logs to FILE (default: logging off)",
    )
    p_serve.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="structured log threshold (to stderr unless --log-file is set)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_workers = sub.add_parser(
        "workers",
        help="run crash-safe job worker processes against a shared store",
    )
    p_workers.add_argument(
        "-n", type=int, default=1,
        help="worker count; 1 runs in this process so a supervisor can "
        "kill/restart it directly (default: 1)",
    )
    p_workers.add_argument(
        "--data-dir", default="serve-data",
        help="service data root holding the store, surfaces, ledgers and "
        "checkpoints (default: serve-data)",
    )
    p_workers.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite job store path (default: <data-dir>/jobs.sqlite)",
    )
    p_workers.add_argument(
        "--lease", type=float, default=30.0,
        help="lease seconds; must match the server's --lease (default: 30)",
    )
    p_workers.add_argument(
        "--poll", type=float, default=0.2,
        help="idle poll interval in seconds (default: 0.2)",
    )
    p_workers.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after this many jobs per worker (default: run forever)",
    )
    p_workers.add_argument(
        "--no-tracing", action="store_true",
        help="disable span export under <data-dir>/traces",
    )
    p_workers.add_argument(
        "--log-file", default=None, metavar="FILE",
        help="append structured JSON logs to FILE (worker processes "
        "inherit the sink; default: logging off)",
    )
    p_workers.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="structured log threshold (to stderr unless --log-file is set)",
    )
    p_workers.set_defaults(func=cmd_workers)

    p_submit = sub.add_parser(
        "submit", help="submit an optimization job to a running `repro serve`"
    )
    p_submit.add_argument("algorithm", choices=["tpg", "sacga", "mesacga"])
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8321", help="service base URL"
    )
    p_submit.add_argument("--generations", type=int, default=None)
    p_submit.add_argument("--population", type=int, default=None)
    p_submit.add_argument("--n-mc", type=int, default=None)
    p_submit.add_argument(
        "--mc-seed", type=int, default=None,
        help="common-random-number seed for the robustness Monte-Carlo",
    )
    p_submit.add_argument(
        "--no-corners", action="store_true",
        help="evaluate the robustness constraint at the nominal card only",
    )
    p_submit.add_argument("--partitions", type=int, default=None)
    p_submit.add_argument(
        "--surface", default=None,
        help="register the resulting design surface under this name",
    )
    p_submit.add_argument(
        "--trace-id", default=None,
        help="propagate this trace id instead of letting the server mint "
        "one (inspect later with `repro trace-view`)",
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="poll the job to completion"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait budget in seconds (default: 600)",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_query = sub.add_parser(
        "query", help="query a registered design surface on a running service"
    )
    p_query.add_argument("name", help="surface name used at submit time")
    p_query.add_argument(
        "c_load_pf", type=float, help="load capacitance in picofarads"
    )
    p_query.add_argument(
        "--url", default="http://127.0.0.1:8321", help="service base URL"
    )
    p_query.add_argument(
        "--design", action="store_true",
        help="also print the sizing vector that achieves the power",
    )
    p_query.add_argument(
        "--version", type=int, default=None,
        help="pin a surface version (default: latest)",
    )
    p_query.set_defaults(func=cmd_query)

    p_campaign = sub.add_parser(
        "campaign",
        help="corner x mismatch robustness sweeps over registered surfaces",
    )
    campaign_sub = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    pc_run = campaign_sub.add_parser(
        "run", help="sweep a registered surface across the scenario grid"
    )
    pc_run.add_argument("surface", help="registered surface name to sweep")
    pc_run.add_argument(
        "--data-dir", default="serve-data",
        help="service data root holding surfaces/campaigns/jobs "
        "(default: serve-data)",
    )
    pc_run.add_argument(
        "--campaign-id", default=None,
        help="explicit campaign id; re-running an existing id resumes its "
        "pending shards (default: a fresh random id)",
    )
    pc_run.add_argument(
        "--version", type=int, default=None,
        help="pin the surface version to sweep (default: latest)",
    )
    pc_run.add_argument(
        "--corners", default=None,
        help="comma-separated corner list, e.g. TT,FF,SS,FS,SF "
        "(default: all five)",
    )
    pc_run.add_argument(
        "--n-mc", type=int, default=None,
        help="Monte-Carlo samples per scenario (default: 8)",
    )
    pc_run.add_argument(
        "--mc-seed", type=int, default=None,
        help="common-random-number seed (default: 2005)",
    )
    pc_run.add_argument(
        "--yield-target", type=float, default=None,
        help="minimum yield a design needs to enter the derated surface "
        "(default: 0.9)",
    )
    pc_run.add_argument(
        "--shard-scenarios", type=int, default=None,
        help="op-amp cards (a corner under one supply scale) per shard — "
        "the unit of durable execution; a card's temperature variants "
        "share its shard (default: 2)",
    )
    pc_run.add_argument(
        "--condition", action="append", default=None, metavar="NAME,VDD,TEMP",
        help="extra operating condition as NAME,VDD_SCALE,TEMP_K "
        "(repeatable; e.g. hot,0.95,358); the nominal condition is kept",
    )
    pc_run.add_argument(
        "--durable", action="store_true",
        help="submit shards as durable jobs to <data-dir>/jobs.sqlite for "
        "`repro workers` to execute instead of running inline",
    )
    pc_run.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite job store path for --durable "
        "(default: <data-dir>/jobs.sqlite)",
    )
    pc_run.add_argument(
        "--wait", action="store_true",
        help="with --durable, poll until every shard has landed and then "
        "print the report",
    )
    pc_run.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait budget in seconds (default: 600)",
    )
    pc_run.add_argument("--max-rows", type=int, default=20)
    pc_run.add_argument(
        "--json", default=None, help="write the full report to this JSON file"
    )
    pc_run.set_defaults(func=cmd_campaign_run)

    pc_status = campaign_sub.add_parser(
        "status", help="show a campaign's shard progress (or list them all)"
    )
    pc_status.add_argument(
        "campaign_id", nargs="?", default=None,
        help="campaign id (omit to list every campaign)",
    )
    pc_status.add_argument("--data-dir", default="serve-data")
    pc_status.set_defaults(func=cmd_campaign_status)

    pc_report = campaign_sub.add_parser(
        "report", help="print (finalizing if needed) a campaign's report"
    )
    pc_report.add_argument("campaign_id", help="campaign id")
    pc_report.add_argument("--data-dir", default="serve-data")
    pc_report.add_argument("--max-rows", type=int, default=20)
    pc_report.add_argument(
        "--json", default=None, help="write the full report to this JSON file"
    )
    pc_report.set_defaults(func=cmd_campaign_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
