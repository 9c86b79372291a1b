"""CampaignRunner: durable, resumable execution of robustness campaigns.

A campaign lives in a directory under the runner's root::

    <root>/<campaign-id>/
        manifest.json            declarative description (spec, shard plan,
                                 trace_id, source provenance)
        designs.json             the design batch (x, c_load, nominal power)
        shards/shard-0000.json   one atomic result file per shard
        report.json              the aggregated report (written exactly once)
        campaign.lock            flock target that serializes creators
                                 and finalizers

Execution modes share every byte of evaluation and aggregation code:

* **inline** — :meth:`CampaignRunner.run_inline` evaluates the pending
  shards in-process, one after another;
* **durable** — :meth:`CampaignRunner.submit_shards` enqueues one
  ``campaign_shard`` job per pending shard into the PR 8
  :class:`~repro.serve.store.JobStore`; ``repro workers`` processes (or
  in-server worker threads) claim and execute them.  All shard jobs
  share the campaign's ``trace_id``, so ``repro trace-view`` shows the
  whole fan-out as one tree.

Crash safety is file-level: a shard result is written atomically, so a
``kill -9`` mid-shard leaves nothing and the shard's lease eventually
expires and requeues it; a completed shard is never re-evaluated
(*shard-exact resume*).  Because pass bits are exact and JSON float
round-trips are lossless, the aggregated yields are byte-identical
however many times execution was interrupted, and identical between
inline and durable modes.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.campaign.aggregate import aggregate_report, build_derated_surface
from repro.campaign.scenarios import (
    CampaignSpec,
    Scenario,
    expand_scenarios,
    plan_shards,
)
from repro.campaign.shards import (
    ShardResult,
    evaluate_shard,
    read_shard,
    write_shard,
)
from repro.obs.logging import get_logger
from repro.obs.registry import NULL_METRICS
from repro.obs.tracing import (
    NULL_TRACE_RECORDER,
    check_trace_id,
    mint_trace_id,
)

PathLike = Union[str, Path]

__all__ = ["CampaignRunner", "UnknownCampaign"]

#: Campaign ids become directory names; same discipline as surface names.
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Yield histogram buckets: deciles of the [0, 1] yield range.
YIELD_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class UnknownCampaign(KeyError):
    """Raised when a campaign id has no manifest under the runner root."""


def _check_id(campaign_id: str) -> str:
    if not _ID_RE.match(campaign_id):
        raise ValueError(
            f"invalid campaign id {campaign_id!r} (want letters/digits/._- "
            "only, not starting with a dot, at most 64 chars)"
        )
    return campaign_id


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Atomic JSON write (temp + fsync + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CampaignRunner:
    """Create, execute, resume and aggregate robustness campaigns.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per campaign (created on
        demand).  The service layer uses ``<data-dir>/campaigns``.
    surfaces:
        Optional :class:`~repro.serve.surfaces.SurfaceStore`; when set,
        :meth:`finalize` registers the derated surface there with
        provenance metadata in its ``.meta.json`` sidecar.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        the campaign counters/histograms (shards done/failed, scenario
        throughput, shard latency, per-design yield distribution).
    recorder:
        Optional :class:`~repro.obs.tracing.TraceRecorder`; shard and
        finalize spans are tagged with the campaign's ``trace_id``.
    """

    def __init__(
        self,
        root: PathLike,
        surfaces=None,
        metrics=None,
        recorder=None,
    ) -> None:
        self.root = Path(root).absolute()
        self.root.mkdir(parents=True, exist_ok=True)
        self.surfaces = surfaces
        self.recorder = recorder if recorder is not None else NULL_TRACE_RECORDER
        metrics = NULL_METRICS if metrics is None else metrics
        self._log = get_logger("campaign.engine")
        self._m_created = metrics.counter(
            "repro_campaign_created_total", "Campaigns created"
        )
        self._m_shards = metrics.counter(
            "repro_campaign_shards_total",
            "Campaign shards processed, by outcome",
            labels=("state",),
        )
        self._m_scenarios = metrics.counter(
            "repro_campaign_scenarios_total",
            "Scenario evaluations completed across all campaigns",
        )
        self._m_shard_seconds = metrics.histogram(
            "repro_campaign_shard_seconds",
            "Wall time of one campaign shard evaluation",
        )
        self._m_yield = metrics.histogram(
            "repro_campaign_design_yield",
            "Per-design yield estimates at campaign finalize",
            buckets=YIELD_BUCKETS,
        )

    # ----------------------------------------------------------------- paths

    def campaign_dir(self, campaign_id: str) -> Path:
        return self.root / _check_id(campaign_id)

    def manifest_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "manifest.json"

    def shard_path(self, campaign_id: str, shard_index: int) -> Path:
        return (
            self.campaign_dir(campaign_id)
            / "shards"
            / f"shard-{int(shard_index):04d}.json"
        )

    def report_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "report.json"

    @contextmanager
    def _locked(self, campaign_id: str) -> Iterator[None]:
        """Hold an exclusive ``flock`` of the campaign's ``campaign.lock``.

        Each call opens its own file description, so the lock excludes
        other threads of this process as well as other processes, and a
        holder that dies drops it with its process.
        """
        with open(self.campaign_dir(campaign_id) / "campaign.lock", "a") as lock:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            yield

    # ---------------------------------------------------------------- create

    def create(
        self,
        spec: CampaignSpec,
        x: np.ndarray,
        c_load: np.ndarray,
        nominal_power: np.ndarray,
        campaign_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        source: Optional[Dict[str, Any]] = None,
        derated_surface: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Materialize a campaign directory; returns the manifest.

        *x* is the ``(n, 15)`` design batch, *c_load*/*nominal_power*
        the per-design load and nominal power (usually straight from a
        :class:`~repro.experiments.tradeoff.DesignSurface`).  *source*
        is free-form provenance recorded in the manifest and the derated
        surface's metadata sidecar.  Raises :class:`ValueError` if the
        campaign id already exists — campaigns are immutable once
        created; resume works by re-running the same id, not recreating
        it.  Creators of one id queue on an exclusive ``flock`` of
        ``campaign.lock`` across the existence check and both writes, so
        of two concurrent calls exactly one creates the campaign and the
        other raises.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        c_load = np.asarray(c_load, dtype=float).ravel()
        nominal_power = np.asarray(nominal_power, dtype=float).ravel()
        if not (x.shape[0] == c_load.size == nominal_power.size):
            raise ValueError(
                f"inconsistent design batch: x={x.shape[0]}, "
                f"c_load={c_load.size}, power={nominal_power.size}"
            )
        if x.shape[0] == 0:
            raise ValueError("a campaign needs at least one design")
        campaign_id = _check_id(
            campaign_id or f"campaign-{uuid.uuid4().hex[:12]}"
        )
        trace_id = (
            mint_trace_id() if trace_id is None else check_trace_id(trace_id)
        )
        directory = self.campaign_dir(campaign_id)
        directory.mkdir(parents=True, exist_ok=True)
        with self._locked(campaign_id):
            if self.manifest_path(campaign_id).exists():
                raise ValueError(
                    f"campaign {campaign_id!r} already exists under {self.root}"
                )
            scenarios = expand_scenarios(spec)
            shards = plan_shards(spec)
            _write_json(
                directory / "designs.json",
                {
                    "x": x.tolist(),
                    "c_load": c_load.tolist(),
                    "nominal_power": nominal_power.tolist(),
                },
            )
            manifest = {
                "id": campaign_id,
                "created": time.time(),
                "spec": spec.to_dict(),
                "source": source or {},
                "n_designs": int(x.shape[0]),
                "scenario_keys": [s.key for s in scenarios],
                "shards": shards,
                "trace_id": trace_id,
                "derated_surface": derated_surface,
            }
            # The manifest is written last: its presence is what makes the
            # campaign visible, so a crash mid-create leaves no half-campaign.
            _write_json(self.manifest_path(campaign_id), manifest)
        self._m_created.inc()
        self._log.info(
            "campaign created",
            campaign=campaign_id,
            trace_id=trace_id,
            n_designs=manifest["n_designs"],
            n_shards=len(shards),
        )
        return manifest

    def create_from_surface(
        self,
        store,
        name: str,
        spec: CampaignSpec,
        version: Optional[int] = None,
        **kwargs: Any,
    ) -> Dict[str, Any]:
        """Campaign over a registered surface's member designs."""
        surface, resolved = store._load_versioned(name, version)
        kwargs.setdefault(
            "source", {"kind": "surface", "surface": name, "version": resolved}
        )
        kwargs.setdefault("derated_surface", f"{name}-derated")
        return self.create(
            spec, surface.x, surface.c_load, surface.power, **kwargs
        )

    def create_from_checkpoint(
        self, checkpoint_path: PathLike, spec: CampaignSpec, **kwargs: Any
    ) -> Dict[str, Any]:
        """Campaign over the current feasible front of a checkpoint.

        Useful mid-run: "is the front robust so far?" without waiting
        for the optimization to finish.
        """
        from repro.core.checkpoint import load_checkpoint
        from repro.core.results import extract_feasible_front
        from repro.experiments.tradeoff import DesignSurface

        payload = load_checkpoint(checkpoint_path)
        state = payload["loop_state"]
        population = state.get("population")
        if population is None:
            population = getattr(state.get("parted"), "population", None)
        if population is None:
            raise ValueError(
                f"{checkpoint_path}: checkpoint holds no population to "
                "extract a front from"
            )
        front_x, front_f = extract_feasible_front(population)
        if front_x.shape[0] == 0:
            raise ValueError(
                f"{checkpoint_path}: checkpoint front has no feasible designs"
            )
        surface = DesignSurface(
            front_x, front_x[:, 14], front_f[:, 0]
        )
        kwargs.setdefault(
            "source",
            {
                "kind": "checkpoint",
                "path": str(checkpoint_path),
                "generation": int(payload.get("generation", -1)),
            },
        )
        return self.create(
            spec, surface.x, surface.c_load, surface.power, **kwargs
        )

    # ------------------------------------------------------------------ load

    def list_campaigns(self) -> List[Dict[str, Any]]:
        """Summaries of every campaign under the root (sorted by id)."""
        out = []
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and (child / "manifest.json").exists():
                try:
                    out.append(self.status(self.load(child.name)))
                except (ValueError, KeyError, OSError):
                    continue
        return out

    def load(self, campaign_id: str) -> Dict[str, Any]:
        path = self.manifest_path(campaign_id)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UnknownCampaign(campaign_id) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read campaign manifest {path}: {exc}")
        return manifest

    def spec_of(self, manifest: Dict[str, Any]) -> CampaignSpec:
        return CampaignSpec.from_dict(manifest["spec"])

    def scenarios_of(self, manifest: Dict[str, Any]) -> List[Scenario]:
        return expand_scenarios(self.spec_of(manifest))

    def designs(self, manifest: Dict[str, Any]):
        """The campaign's design batch: ``(x, c_load, nominal_power)``."""
        path = self.campaign_dir(manifest["id"]) / "designs.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        return (
            np.asarray(payload["x"], dtype=float),
            np.asarray(payload["c_load"], dtype=float),
            np.asarray(payload["nominal_power"], dtype=float),
        )

    # --------------------------------------------------------------- shards

    def pending_shards(self, manifest: Dict[str, Any]) -> List[int]:
        """Shard indices whose result file is missing or unreadable."""
        cid = manifest["id"]
        return [
            i
            for i in range(len(manifest["shards"]))
            if read_shard(self.shard_path(cid, i)) is None
        ]

    def run_shard(
        self,
        manifest: Dict[str, Any],
        shard_index: int,
    ) -> ShardResult:
        """Evaluate one shard, persisting its result atomically.

        Shard-exact resume: if the result file already exists (a prior
        attempt finished before dying, or another worker got here
        first), it is returned as-is and nothing is re-evaluated.
        """
        cid = manifest["id"]
        shard_index = int(shard_index)
        if not (0 <= shard_index < len(manifest["shards"])):
            raise ValueError(
                f"shard index {shard_index} out of range "
                f"(campaign has {len(manifest['shards'])} shards)"
            )
        path = self.shard_path(cid, shard_index)
        existing = read_shard(path)
        if existing is not None:
            self._m_shards.labels(state="skipped").inc()
            self._log.info(
                "shard already complete", campaign=cid, shard=shard_index
            )
            return existing
        spec = self.spec_of(manifest)
        scenarios = self.scenarios_of(manifest)
        indices = manifest["shards"][shard_index]
        shard_scenarios = [scenarios[i] for i in indices]
        x, _, _ = self.designs(manifest)
        started = time.perf_counter()
        try:
            with self.recorder.span(
                "campaign:shard",
                trace_id=manifest.get("trace_id"),
                campaign=cid,
                shard=shard_index,
            ):
                result = evaluate_shard(
                    spec, shard_scenarios, x, shard_index=shard_index
                )
        except Exception:
            self._m_shards.labels(state="failed").inc()
            raise
        write_shard(path, result)
        self._m_shards.labels(state="done").inc()
        self._m_scenarios.inc(len(shard_scenarios))
        self._m_shard_seconds.observe(time.perf_counter() - started)
        self._log.info(
            "shard complete",
            campaign=cid,
            shard=shard_index,
            scenarios=len(shard_scenarios),
        )
        return result

    def run_inline(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        """Run every pending shard in-process, then finalize."""
        for shard_index in range(len(manifest["shards"])):
            self.run_shard(manifest, shard_index)
        return self.finalize(manifest)

    # --------------------------------------------------------------- durable

    def submit_shards(
        self,
        manifest: Dict[str, Any],
        job_store,
        queue_bound: Optional[int] = None,
    ) -> List[Any]:
        """Enqueue one durable ``campaign_shard`` job per pending shard.

        Shards whose result file already exists are skipped (resume),
        as are shards with a live (queued/running) job in the store
        (idempotent re-submission).  Every job carries the campaign's
        ``trace_id``.  Returns the submitted job records.
        """
        from repro.serve.store import JobRecord

        cid = manifest["id"]
        active: set = set()
        for record in job_store.list_jobs(states=("queued", "running")):
            if (
                record.kind == "campaign_shard"
                and record.params.get("campaign_id") == cid
            ):
                active.add(int(record.params.get("shard_index", -1)))
        submitted = []
        for shard_index in self.pending_shards(manifest):
            if shard_index in active:
                continue
            record = JobRecord(
                id=f"job-{uuid.uuid4().hex[:12]}",
                kind="campaign_shard",
                params={
                    "campaign_id": cid,
                    "campaign_root": str(self.root),
                    "shard_index": shard_index,
                },
                trace_id=manifest.get("trace_id"),
            )
            job_store.submit(record, queue_bound=queue_bound)
            submitted.append(record)
        self._log.info(
            "campaign shards submitted",
            campaign=cid,
            n_jobs=len(submitted),
            trace_id=manifest.get("trace_id"),
        )
        return submitted

    # ---------------------------------------------------------------- status

    def status(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        cid = manifest["id"]
        n_shards = len(manifest["shards"])
        pending = self.pending_shards(manifest)
        return {
            "id": cid,
            "trace_id": manifest.get("trace_id"),
            "n_designs": manifest["n_designs"],
            "n_scenarios": len(manifest["scenario_keys"]),
            "n_shards": n_shards,
            "shards_done": n_shards - len(pending),
            "shards_pending": pending,
            "complete": not pending,
            "report_ready": self.report_path(cid).exists(),
            "derated_surface": manifest.get("derated_surface"),
            "source": manifest.get("source", {}),
        }

    # -------------------------------------------------------------- finalize

    def finalize(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        """Aggregate all shard results into the campaign report.

        Idempotent: the first finalize registers the derated surface and
        writes ``report.json``; every later call, from any thread or
        process, returns the stored report without re-registering
        anything.  Finalizers that start together (the worker that lands
        the last shard and a ``GET /campaigns/<id>``, say) queue on an
        exclusive ``flock`` of ``campaign.lock``, and the holder checks
        for the report again before it aggregates, so a campaign
        registers exactly the one derated version its report names.  A
        finalizer that dies mid-way leaves no report and drops the lock
        with its process, so the next call finishes the campaign.
        Raises :class:`ValueError` while shards are still missing.
        """
        cid = manifest["id"]
        report_file = self.report_path(cid)
        if report_file.exists():
            return json.loads(report_file.read_text(encoding="utf-8"))
        with self._locked(cid):
            if report_file.exists():
                return json.loads(report_file.read_text(encoding="utf-8"))
            report = self._build_report(manifest)
            _write_json(report_file, report)
        self._log.info(
            "campaign finalized",
            campaign=cid,
            n_yielding=report["n_yielding"],
            n_designs=report["n_designs"],
        )
        return report

    def _build_report(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        """Build the report and register its derated surface (lock held)."""
        cid = manifest["id"]
        pending = self.pending_shards(manifest)
        if pending:
            raise ValueError(
                f"campaign {cid!r} is incomplete: shards {pending} have no "
                "results yet"
            )
        shard_results = [
            read_shard(self.shard_path(cid, i))
            for i in range(len(manifest["shards"]))
        ]
        spec = self.spec_of(manifest)
        x, c_load, nominal_power = self.designs(manifest)
        with self.recorder.span(
            "campaign:finalize", trace_id=manifest.get("trace_id"), campaign=cid
        ):
            report = aggregate_report(
                shard_results,
                manifest["scenario_keys"],
                c_load,
                nominal_power,
                spec.n_mc,
                spec.yield_target,
            )
            report["campaign"] = cid
            report["trace_id"] = manifest.get("trace_id")
            report["spec"] = manifest["spec"]
            report["source"] = manifest.get("source", {})
            yields = np.array([d["yield"] for d in report["designs"]])
            derated_power = np.array(
                [d["derated_power"] for d in report["designs"]]
            )
            keep = yields >= spec.yield_target
            surface = build_derated_surface(x, c_load, derated_power, keep)
            report["derated_surface"] = self._register_derated(
                manifest, report, surface
            )
        for value in yields:
            self._m_yield.observe(float(value))
        return report

    def _register_derated(
        self, manifest: Dict[str, Any], report: Dict[str, Any], surface
    ) -> Optional[Dict[str, Any]]:
        if surface is None:
            return {
                "registered": False,
                "reason": (
                    "no design met the yield target "
                    f"{report['yield_target']:g}"
                ),
            }
        name = manifest.get("derated_surface")
        if self.surfaces is None or not name:
            return {
                "registered": False,
                "reason": "no surface store attached",
                "size": surface.size,
            }
        version = self.surfaces.register(
            name,
            surface,
            metadata={
                "kind": "derated",
                "campaign": manifest["id"],
                "trace_id": manifest.get("trace_id"),
                "source": manifest.get("source", {}),
                "spec": manifest["spec"],
                "n_yielding": report["n_yielding"],
                "n_designs": report["n_designs"],
            },
        )
        return {
            "registered": True,
            "name": name,
            "version": version,
            "size": surface.size,
        }
