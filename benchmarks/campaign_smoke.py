"""Campaign-engine smoke: kill a worker mid-campaign, yields don't move.

The CI `campaign-smoke` job drives this script end-to-end against real
subprocesses:

1. evolve a tiny front in-process and register it as a surface;
2. compute the **baseline**: the whole campaign (2 corners x 8 MC over
   several operating conditions) evaluated inline, uninterrupted;
3. start `repro serve --workers 0` plus one external `repro workers`
   process, POST the same campaign, and ``kill -9`` the worker while
   shards are still outstanding;
4. start a fresh worker: expired leases requeue, finished shard files
   are never re-evaluated, and the last shard's worker finalizes;
5. assert the durable report's yields/derating are **byte-identical**
   to the uninterrupted inline baseline, and that the derated surface
   is queryable over HTTP.

Exit code 0 means the robustness story held; anything else leaves the
campaign directory (manifest, shards, report) behind for the CI
artifact upload to capture.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign.engine import CampaignRunner
from repro.campaign.scenarios import CampaignSpec, OperatingCondition
from repro.experiments.runner import Scale, run_one
from repro.experiments.tradeoff import DesignSurface
from repro.serve.client import ServeClient
from repro.serve.surfaces import SurfaceStore

LEASE_S = 5.0
SURFACE = "smoke-front"
CAMPAIGN_ID = "smoke-campaign"

#: 2 corners x 4 operating conditions = 8 scenarios in 4 shards: one
#: op-amp card (corner x supply scale) a shard, so nom/hot/cold share a
#: shard and lowvdd has its own.  yield_target=0 keeps every design in
#: the derated surface, so the smoke also proves the registration +
#: HTTP query path end to end.
SPEC = CampaignSpec(
    corners=("TT", "SS"),
    n_mc=8,
    shard_scenarios=1,
    yield_target=0.0,
    conditions=(
        OperatingCondition(),
        OperatingCondition(name="hot", temperature=358.0),
        OperatingCondition(name="cold", temperature=233.0),
        OperatingCondition(name="lowvdd", vdd_scale=0.9),
    ),
)

#: Report keys that must not change a byte between execution modes
#: (campaign id/trace/shard plan legitimately differ).
COMPARABLE_KEYS = (
    "designs", "scenario_pass_rate", "n_designs", "n_scenarios", "n_mc",
    "n_evaluations", "yield_target", "n_yielding", "min_yield",
    "median_yield",
)


def log(message: str) -> None:
    print(f"[campaign-smoke] {message}", flush=True)


def comparable(report: dict) -> str:
    return json.dumps(
        {k: report[k] for k in COMPARABLE_KEYS}, sort_keys=True
    )


def start_server(data_dir: Path, port_file: Path, log_path: Path):
    with log_path.open("ab") as fh:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--workers", "0", "--queue-size", "16",
                "--data-dir", str(data_dir), "--lease", str(LEASE_S),
            ],
            stdout=fh, stderr=fh,
        )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            port = int(port_file.read_text().strip())
            return proc, f"http://127.0.0.1:{port}"
        if proc.poll() is not None:
            raise RuntimeError(f"server died at startup (rc={proc.returncode})")
        time.sleep(0.1)
    raise RuntimeError("server never wrote its port file")


def start_worker(data_dir: Path, log_path: Path):
    with log_path.open("ab") as fh:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "workers", "-n", "1",
                "--data-dir", str(data_dir),
                "--lease", str(LEASE_S), "--poll", "0.05",
            ],
            stdout=fh, stderr=fh,
        )


def wait_until(predicate, deadline_s: float, what: str, poll_s: float = 0.05):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise TimeoutError(f"timed out waiting for {what}")


def evolve_front(store: SurfaceStore) -> DesignSurface:
    """A tiny evolved front, registered as the campaign's input surface."""
    scale = Scale(
        population=24, generations=10, n_mc=2, n_seeds=1, label="smoke"
    )
    summary = run_one("tpg", "campaign-smoke", scale=scale)
    surface = DesignSurface.from_result(summary.result)
    store.register(SURFACE, surface, metadata={"kind": "smoke-front"})
    log(f"evolved front: {surface.size} designs")
    return surface


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default="campaign-smoke-data")
    parser.add_argument("--timeout", type=float, default=420.0)
    args = parser.parse_args(argv)

    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    server_log = data_dir / "server.log"
    procs = []
    try:
        store = SurfaceStore(data_dir / "surfaces")
        surface = evolve_front(store)

        # Baseline: the same campaign evaluated inline, uninterrupted.
        baseline_runner = CampaignRunner(data_dir / "baseline-campaigns")
        baseline_manifest = baseline_runner.create(
            SPEC, surface.x, surface.c_load, surface.power,
            campaign_id="baseline",
        )
        baseline = baseline_runner.run_inline(baseline_manifest)
        log(
            f"baseline report: {baseline['n_evaluations']} evaluations, "
            f"{baseline['n_yielding']}/{baseline['n_designs']} designs "
            f"meet the {baseline['yield_target']:g} yield target"
        )

        server, url = start_server(data_dir, data_dir / "serve.port", server_log)
        procs.append(server)
        client = ServeClient(url)
        victim = start_worker(data_dir, data_dir / "worker-0.log")
        procs.append(victim)
        log(f"server on {url}, worker pid {victim.pid}")

        status = client.create_campaign(
            {
                "surface": SURFACE,
                "campaign_id": CAMPAIGN_ID,
                "spec": SPEC.to_dict(),
            }
        )
        n_shards = status["n_shards"]
        log(f"campaign {status['id']}: {n_shards} shard jobs submitted, "
            f"trace {status['trace_id']}")
        if len(status["jobs"]) != n_shards:
            log(f"expected {n_shards} jobs, got {status['jobs']}")
            return 1

        # Kill -9 the worker while it holds a claimed shard job and the
        # campaign still has work outstanding — the worst moment.
        def victim_mid_campaign():
            snapshot = client.campaign(CAMPAIGN_ID)
            if not snapshot["shards_pending"]:
                return None
            for job in client.jobs(state="running"):
                if f":{victim.pid}:" in (job.get("worker") or ""):
                    return job
            return None

        doomed = wait_until(
            victim_mid_campaign, 120.0, "worker mid-shard", poll_s=0.02
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(30.0)
        pending_at_kill = client.campaign(CAMPAIGN_ID)["shards_pending"]
        log(
            f"kill -9'd worker {victim.pid} while it ran {doomed['id']} "
            f"(shard {doomed['params']['shard_index']}); "
            f"{len(pending_at_kill)} shards still pending"
        )
        if not pending_at_kill:
            log("campaign finished before the kill landed — not a valid run")
            return 1

        # A fresh worker picks up the queue; the doomed job's lease
        # expires and requeues; finished shards are never re-run.
        replacement = start_worker(data_dir, data_dir / "worker-1.log")
        procs.append(replacement)
        final = client.wait_campaign(
            CAMPAIGN_ID, timeout=args.timeout, poll_s=0.3
        )
        report = final["report"]
        orphan = client.job(doomed["id"])
        if orphan["state"] != "done":
            log(f"orphaned shard job ended {orphan['state']}: "
                f"{orphan.get('error')}")
            return 1
        log(
            f"campaign complete: orphan {orphan['id']} finished on attempt "
            f"{orphan['attempt']}, worker {orphan['result'].get('worker')}"
        )

        if comparable(report) != comparable(baseline):
            (data_dir / "baseline-report.json").write_text(
                json.dumps(baseline, indent=2), encoding="utf-8"
            )
            log("FAILED: durable report diverged from the inline baseline")
            return 1
        log(
            "yields byte-identical: interrupted durable run == "
            "uninterrupted inline baseline "
            f"({report['n_designs']} designs x {report['n_scenarios']} "
            f"scenarios x {report['n_mc']} MC)"
        )

        derated = report["derated_surface"]
        if not derated.get("registered"):
            log(f"FAILED: derated surface not registered: "
                f"{derated.get('reason')}")
            return 1
        desc = client.surface(derated["name"])
        log(f"derated surface {derated['name']} v{desc['version']} "
            f"served with {desc['size']} designs")

        summary_path = data_dir / "smoke-summary.json"
        summary_path.write_text(
            json.dumps(
                {
                    "killed_job": doomed["id"],
                    "killed_shard": doomed["params"]["shard_index"],
                    "pending_at_kill": pending_at_kill,
                    "orphan_attempt": orphan["attempt"],
                    "report": report,
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        log("campaign smoke PASSED")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(15.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
