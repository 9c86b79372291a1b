"""JSON-over-HTTP API for the service layer (stdlib ``http.server``).

Endpoints (all JSON unless noted):

=========================================  ====================================
``POST /jobs``                              submit an optimizer run (202; 429
                                            when full; 400 for other kinds)
``GET /jobs``                               list jobs (``?state=queued`` filters)
``GET /jobs/{id}``                          one job's status/result
``DELETE /jobs/{id}``                       cooperative cancel
``POST /campaigns``                         start a robustness campaign (202)
``GET /campaigns``                          campaign catalog with progress
``GET /campaigns/{id}``                     one campaign's status (+ report
                                            once every shard has landed)
``GET /surfaces``                           registered surface catalog
``GET /surfaces/{name}``                    one surface's description
``GET /surfaces/{name}/query?c_load=...``   min-power query (``design=1`` for
                                            the sizing vector; ``version=N``
                                            pins a version)
``GET /healthz``                            liveness + pool/store counters
``GET /metrics``                            Prometheus text exposition
=========================================  ====================================

Design notes:

* **Routing is pure.**  :class:`ServeApp` maps ``(method, path, query,
  body)`` to ``(status, payload)`` with no sockets involved, so tests
  exercise every route (including the 4xx paths) without binding a port.
* **Observability rides the existing registry.**  Request counters
  (``repro_http_requests_total{method,route,status}``) and latency
  histograms (``repro_http_request_seconds{route}``) live in the same
  :class:`~repro.obs.registry.MetricsRegistry` the job pool reports to,
  and ``GET /metrics`` serves the whole snapshot through
  :func:`~repro.obs.exporters.to_prometheus` — one scrape shows HTTP
  traffic, queue depth and running jobs together.  Routes are labeled by
  *pattern* (``/jobs/:id`` — colon placeholders keep label values free of
  braces for the text exposition), never by raw path, so cardinality
  stays bounded.
* **Backpressure, not buffering.**  A full job queue returns 429 with a
  ``Retry-After`` hint; the server never queues unboundedly on behalf of
  clients.
* **Kept-alive connections.**  Connections are HTTP/1.1 and stay open
  between requests; each has its own handler thread.  The handler
  disables Nagle's algorithm, so a reply's header and body writes are
  not held back waiting for the client's delayed ACK.
* **Graceful shutdown.**  :meth:`ReproServer.close` stops accepting
  connections and cuts the open ones, then drains the job pool
  (in-flight jobs finish and register their surfaces) unless asked to
  cancel instead.
* **Request timeouts.**  The per-connection socket timeout bounds how
  long a slow client can pin a handler thread, and how long an idle
  kept-alive connection stays open.

The optimization work itself never runs on a request thread — requests
only enqueue jobs and read state, so the API stays responsive while the
pool crunches.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaign.engine import CampaignRunner, UnknownCampaign
from repro.campaign.scenarios import CampaignSpec
from repro.obs.exporters import merge_prometheus, parse_prometheus, to_prometheus
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import JobManager, JobQueueFull, UnknownJob
from repro.serve.store import JOB_STATES
from repro.serve.surfaces import SurfaceStore, UnknownSurface

__all__ = ["ServeApp", "ReproServer", "MAX_BODY_BYTES"]

#: Submissions are tiny JSON objects; anything bigger is a client bug.
MAX_BODY_BYTES = 1 << 20

#: Keys a ``POST /campaigns`` body may carry (anything else is a 400, so
#: a misspelt ``version`` cannot silently fall back to the latest one).
CAMPAIGN_BODY_KEYS = frozenset(
    {"surface", "spec", "version", "campaign_id", "derated_surface"}
)

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServeApp:
    """Socket-free request router shared by the server and the tests."""

    def __init__(
        self,
        manager: JobManager,
        store: SurfaceStore,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.manager = manager
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method/route/status",
            labels=("method", "route", "status"),
        )
        self._m_latency = self.registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency",
            labels=("route",),
        )
        self._m_store_hits = self.registry.gauge(
            "repro_serve_surface_query_hits", "Surface query cache hits"
        )
        self._m_store_misses = self.registry.gauge(
            "repro_serve_surface_query_misses", "Surface query cache misses"
        )
        self._m_surfaces = self.registry.gauge(
            "repro_serve_surfaces", "Registered surface names"
        )
        # Campaigns live beside the job store so external `repro workers`
        # resolve the same directories the server does.
        self.campaigns = CampaignRunner(
            manager.data_dir / "campaigns",
            surfaces=store,
            metrics=self.registry,
            recorder=manager.recorder,
        )
        self._log = get_logger("serve.http")

    # -------------------------------------------------------------- dispatch

    def handle(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, str, bytes]:
        """Route one request; returns ``(status, content_type, body)``.

        *headers* (lower-cased keys) carries the bits of the request the
        router honours — currently just ``x-trace-id`` on ``POST /jobs``.
        Never raises: anything unexpected becomes a 500 JSON error, so a
        broken handler cannot take down the serving thread.
        """
        started = time.perf_counter()
        headers = headers or {}
        parsed = urlparse(target)
        path = parsed.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        route, thunk = self._match(method.upper(), path, query, body, headers)
        try:
            status, payload = thunk()
        except JobQueueFull as exc:
            status, payload = 429, {"error": str(exc), "retry_after_s": 1.0}
        except (UnknownJob, UnknownSurface, UnknownCampaign) as exc:
            status, payload = 404, {"error": f"not found: {exc.args[0]}"}
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - started
        self._m_requests.labels(
            method=method.upper(), route=route, status=str(status)
        ).inc()
        self._m_latency.labels(route=route).observe(elapsed)
        if status >= 500:
            self._log.error(
                "request failed", method=method.upper(), route=route, status=status
            )
        else:
            self._log.debug(
                "request served",
                method=method.upper(),
                route=route,
                status=status,
                elapsed_s=round(elapsed, 6),
            )
        if isinstance(payload, str):
            return status, _PROMETHEUS_CONTENT_TYPE, payload.encode("utf-8")
        body_out = (json.dumps(payload) + "\n").encode("utf-8")
        return status, "application/json", body_out

    def _match(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        headers: Dict[str, str],
    ):
        """Resolve ``(route_label, thunk)`` — the label is known *before*
        the handler runs, so error responses are attributed correctly."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "/healthz", lambda: (200, self._healthz())
        if path == "/metrics" and method == "GET":
            return "/metrics", lambda: (200, self._metrics())
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if method == "POST":
                    return "/jobs", lambda: (202, self._submit(body, headers))
                if method == "GET":
                    return "/jobs", lambda: (
                        200,
                        {"jobs": self._list_jobs(query)},
                    )
            elif len(parts) == 2:
                if method == "GET":
                    return "/jobs/:id", lambda: (
                        200,
                        self.manager.status(parts[1]),
                    )
                if method == "DELETE":
                    return "/jobs/:id", lambda: (
                        200,
                        self.manager.cancel(parts[1]),
                    )
        if parts[:1] == ["campaigns"]:
            if len(parts) == 1:
                if method == "POST":
                    return "/campaigns", lambda: (
                        202,
                        self._create_campaign(body, headers),
                    )
                if method == "GET":
                    return "/campaigns", lambda: (
                        200,
                        {"campaigns": self.campaigns.list_campaigns()},
                    )
            elif len(parts) == 2 and method == "GET":
                return "/campaigns/:id", lambda: (
                    200,
                    self._campaign(parts[1]),
                )
        if parts[:1] == ["surfaces"] and method == "GET":
            if len(parts) == 1:
                return "/surfaces", lambda: (
                    200,
                    {"surfaces": [self.store.describe(n) for n in self.store.names()]},
                )
            if len(parts) == 2:
                return "/surfaces/:name", lambda: (
                    200,
                    self.store.describe(parts[1]),
                )
            if len(parts) == 3 and parts[2] == "query":
                return "/surfaces/:name/query", lambda: (
                    200,
                    self._query_surface(parts[1], query),
                )
        return "unknown", lambda: (
            404,
            {"error": f"no route for {method} {path}"},
        )

    # --------------------------------------------------------------- routes

    def _submit(self, body: bytes, headers: Dict[str, str]) -> Dict[str, Any]:
        if len(body) > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        # Only optimizer runs come in here: campaign shard jobs are
        # submitted by POST /campaigns, which sets their root itself.
        kind = payload.pop("kind", "run_one")
        if kind != "run_one":
            raise ValueError(
                f"POST /jobs accepts kind 'run_one' only, got {kind!r}"
            )
        # Callers propagate their own trace context via X-Trace-Id;
        # without one the manager mints a fresh id.  Either way the id
        # comes back in the snapshot for the client to follow.
        trace_id = headers.get("x-trace-id")
        job = self.manager.submit(payload, trace_id=trace_id)
        return job.snapshot()

    def _create_campaign(
        self, body: bytes, headers: Dict[str, str]
    ) -> Dict[str, Any]:
        """Start (or resume) a robustness campaign over a surface.

        Body: ``{"surface": name, "spec": {...}, "version": N,
        "campaign_id": ..., "derated_surface": ...}`` — only ``surface``
        is required, and any other key is rejected.  One durable
        ``campaign_shard`` job is submitted per pending shard, all
        sharing the campaign's trace id.  Re-POSTing an existing
        ``campaign_id`` submits only the shards that are neither done
        nor already queued/running, which is the resume path after a
        server restart or a 429 mid-submission.
        """
        if len(body) > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - CAMPAIGN_BODY_KEYS)
        if unknown:
            raise ValueError(
                f"unknown campaign parameters {unknown} "
                f"(allowed: {sorted(CAMPAIGN_BODY_KEYS)})"
            )
        if "surface" not in payload:
            raise ValueError("campaign needs a 'surface' to sweep")
        campaign_id = payload.get("campaign_id")
        manifest = self._existing_campaign(campaign_id)
        if manifest is None:
            spec = CampaignSpec.from_dict(payload.get("spec") or {})
            kwargs: Dict[str, Any] = {
                "campaign_id": campaign_id,
                "trace_id": headers.get("x-trace-id"),
            }
            if payload.get("version") is not None:
                kwargs["version"] = int(payload["version"])
            if payload.get("derated_surface") is not None:
                kwargs["derated_surface"] = str(payload["derated_surface"])
            try:
                manifest = self.campaigns.create_from_surface(
                    self.store, str(payload["surface"]), spec, **kwargs
                )
            except ValueError:
                # A concurrent POST of the same id created it first:
                # this one is a re-POST of an existing campaign.
                manifest = self._existing_campaign(campaign_id)
                if manifest is None:
                    raise
        cid = manifest["id"]
        active = {
            int(r.params.get("shard_index", -1))
            for r in self.manager.job_store.list_jobs(
                states=("queued", "running")
            )
            if r.kind == "campaign_shard"
            and r.params.get("campaign_id") == cid
        }
        submitted = []
        for shard_index in self.campaigns.pending_shards(manifest):
            if shard_index in active:
                continue
            params = {
                "campaign_id": cid,
                "campaign_root": str(self.campaigns.root),
                "shard_index": shard_index,
            }
            job = self.manager.submit(
                params, kind="campaign_shard", trace_id=manifest["trace_id"]
            )
            submitted.append(job.id)
        out = self.campaigns.status(manifest)
        out["jobs"] = submitted
        return out

    def _existing_campaign(self, campaign_id) -> Optional[Dict[str, Any]]:
        if campaign_id is None:
            return None
        try:
            return self.campaigns.load(str(campaign_id))
        except UnknownCampaign:
            return None

    def _campaign(self, campaign_id: str) -> Dict[str, Any]:
        manifest = self.campaigns.load(campaign_id)
        out = self.campaigns.status(manifest)
        if out["complete"]:
            out["report"] = self.campaigns.finalize(manifest)
        return out

    def _metrics(self) -> str:
        """Local live series merged with fresh worker snapshots.

        External workers flush their registries into the job store on
        the heartbeat cadence; their samples appear here under a
        ``worker="<id>"`` label.  A snapshot that fails to parse is
        skipped (one corrupt worker must not take down the scrape), and
        snapshots past the TTL were already dropped by the manager.
        """
        self._refresh_store_gauges()
        local = to_prometheus(self.registry)
        snapshots: Dict[str, str] = {}
        for worker, payload in self.manager.worker_snapshots().items():
            try:
                parse_prometheus(payload)
            except ValueError:
                self._log.warning("skipping unparseable snapshot", worker=worker)
                continue
            snapshots[worker] = payload
        if not snapshots:
            return local
        return merge_prometheus(snapshots, label="worker", base=local)

    def _list_jobs(self, query: Dict[str, str]):
        state = query.get("state")
        if state is None:
            return self.manager.list_jobs()
        if state not in JOB_STATES:
            raise ValueError(
                f"unknown state filter {state!r} (want one of {list(JOB_STATES)})"
            )
        return self.manager.list_jobs(states=(state,))

    def _query_surface(self, name: str, query: Dict[str, str]) -> Dict[str, Any]:
        if "c_load" not in query:
            raise ValueError("query needs c_load=<farads> (e.g. c_load=2.5e-12)")
        try:
            c_load = float(query["c_load"])
        except ValueError:
            raise ValueError(f"c_load is not a number: {query['c_load']!r}") from None
        version = None
        if "version" in query:
            try:
                version = int(query["version"])
            except ValueError:
                raise ValueError(
                    f"version is not an integer: {query['version']!r}"
                ) from None
        want_design = query.get("design", "").lower() in ("1", "true", "yes")
        surface, resolved = self.store._load_versioned(name, version)
        out: Dict[str, Any] = {
            "name": name,
            "version": resolved,
            "c_load": c_load,
            # NaN (query above the stored range) survives the JSON trip:
            # json.dumps emits the NaN literal and the client parses it.
            "power": self.store.power_at(name, c_load, version=resolved),
        }
        if want_design:
            out["design"] = self.store.design_for(name, c_load, version=resolved)
        return out

    def _healthz(self) -> Dict[str, Any]:
        self.manager.refresh_gauges()
        return {
            "status": "ok",
            "jobs": self.manager.counts(),
            "store": self.store.stats(),
            "job_store": self.manager.job_store.stats(),
            "workers": self.manager.worker_flush_ages(),
        }

    def _refresh_store_gauges(self) -> None:
        # Queue transitions can happen in other processes (external
        # `repro workers`); resync the pool gauges from the durable
        # store so every scrape sees the true depth.
        self.manager.refresh_gauges()
        stats = self.store.stats()
        self._m_store_hits.set(stats["query_hits"])
        self._m_store_misses.set(stats["query_misses"])
        self._m_surfaces.set(stats["surfaces"])


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter around :meth:`ServeApp.handle`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    disable_nagle_algorithm = True

    def _serve(self, method: str) -> None:
        body = b""
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request: its bytes would parse as one.
            self.close_connection = True
            self._reply(413, "application/json",
                        b'{"error": "request body too large"}\n')
            return
        if length:
            body = self.rfile.read(length)
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        headers = {k.lower(): v for k, v in self.headers.items()}
        status, content_type, payload = app.handle(
            method, self.path, body, headers=headers
        )
        self._reply(status, content_type, payload)

    def _reply(self, status: int, content_type: str, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve("DELETE")

    def log_message(self, format: str, *args: Any) -> None:
        # Request accounting goes through the metrics registry; keep
        # stderr quiet so the CLI's stdout/stderr stay parseable.
        pass


class _HTTPServer(ThreadingHTTPServer):
    """Thread-per-connection HTTP server that can cut its open connections."""

    daemon_threads = True

    def __init__(self, address, handler, app: ServeApp) -> None:
        super().__init__(address, handler)
        self.app = app
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def cut_connections(self) -> None:
        """Shut every open connection down in both directions.

        Handler threads are daemons that nobody joins; one waiting for a
        kept-alive client's next request would otherwise keep answering
        after the server closed.  Now it reads EOF and exits, and the
        client sees the connection closed.
        """
        with self._connections_lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class ReproServer:
    """A running service: threaded HTTP front end over app + job pool.

    ``port=0`` binds an ephemeral port (read :attr:`port` afterwards —
    that is how the tests and the CI smoke job avoid collisions).
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 30.0,
    ) -> None:
        self.app = app
        # The socket timeout bounds both a stalled request and an idle
        # kept-alive connection, so neither pins a thread for longer.
        handler = type("BoundHandler", (_Handler,), {"timeout": request_timeout})
        self._httpd = _HTTPServer((host, port), handler, app)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, cut open connections, then
        drain the job pool.

        With ``drain=False``, queued jobs are cancelled and running jobs
        stop at their next generation boundary instead.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        # shutdown() waits for serve_forever to stop, so it would block
        # forever on a server that was never started.
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
        self._httpd.cut_connections()
        self._httpd.server_close()
        self.app.manager.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
