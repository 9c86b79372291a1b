"""HTTP layer: routing/error paths (socket-free via ServeApp.handle),
one real end-to-end flow over a live server, and the kept-alive
connection model between ServeClient and ReproServer.

The e2e test is the PR's acceptance gate: submit -> optimize -> surface
registration -> HTTP query, with served ``power_at`` answers
byte-identical to calling :class:`DesignSurface` directly, and
``/metrics`` exposing request and job-pool families.
"""

import json
import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.results import OptimizationResult
from repro.experiments.runner import RunSummary
from repro.experiments.tradeoff import DesignSurface
from repro.obs.exporters import parse_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    JobManager,
    ReproServer,
    ServeApp,
    ServeClient,
    ServeError,
    SurfaceStore,
)
from repro.serve.http import MAX_BODY_BYTES, _HTTPServer

DEADLINE_S = 30.0


def build_summary(algorithm="STUB"):
    c = np.asarray([1.0, 2.0, 3.0]) * 1e-12
    p = np.asarray([1.0, 2.0, 3.0]) * 1e-3
    result = OptimizationResult(
        algorithm=algorithm,
        problem_name="stub",
        population=None,  # type: ignore[arg-type]
        front_x=np.arange(3, dtype=float).reshape(-1, 1),
        front_objectives=np.column_stack([p, 5e-12 - c]),
        n_generations=1,
        n_evaluations=3,
        wall_time=0.0,
    )
    return RunSummary(
        algorithm=algorithm, seed=0, hv_paper=1.0, coverage=1.0,
        cluster_4_5pF=0.0, front_size=3, wall_time=0.01, n_evaluations=3,
        result=result,
    )


def fast_runner(algorithm, experiment_id, **kwargs):
    return build_summary(algorithm.upper())


def make_app(tmp_path, runner=fast_runner, workers=1, queue_size=8):
    registry = MetricsRegistry()
    store = SurfaceStore(tmp_path / "surfaces")
    manager = JobManager(
        store=store,
        data_dir=tmp_path,
        workers=workers,
        queue_size=queue_size,
        runner=runner,
        metrics=registry,
    )
    return ServeApp(manager, store, registry)


def body_json(response):
    status, content_type, payload = response
    assert content_type.startswith("application/json")
    return status, json.loads(payload.decode("utf-8"))


class TestRouting:
    def test_healthz(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(app.handle("GET", "/healthz"))
            assert status == 200
            assert payload["status"] == "ok"
            assert set(payload["jobs"]) == {
                "queued", "running", "done", "failed", "cancelled",
            }
        finally:
            app.manager.shutdown()

    def test_unknown_route_404(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(app.handle("GET", "/nope"))
            assert status == 404
            assert "no route" in payload["error"]
            status, _ = body_json(app.handle("PATCH", "/jobs"))
            assert status == 404
        finally:
            app.manager.shutdown()

    def test_unknown_job_and_surface_404(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(app.handle("GET", "/jobs/job-nope"))
            assert status == 404
            status, payload = body_json(app.handle("GET", "/surfaces/ghost"))
            assert status == 404
            assert "ghost" in payload["error"]
        finally:
            app.manager.shutdown()

    def test_bad_submissions_400(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(app.handle("POST", "/jobs", b"not json"))
            assert status == 400
            status, payload = body_json(app.handle("POST", "/jobs", b"[1,2]"))
            assert status == 400
            status, payload = body_json(
                app.handle("POST", "/jobs", b'{"algorithm": "nope"}')
            )
            assert status == 400
            status, payload = body_json(
                app.handle("POST", "/jobs", b'{"algorithm": "sacga", "x": 1}')
            )
            assert status == 400
            assert "unknown job parameters" in payload["error"]
        finally:
            app.manager.shutdown()

    def test_post_jobs_accepts_optimizer_runs_only(self, tmp_path):
        """Shard jobs come from POST /campaigns alone: a shard job posted
        to /jobs with a root of the caller's choosing is refused before
        anything touches that root."""
        app = make_app(tmp_path)
        elsewhere = tmp_path / "elsewhere" / "campaigns"
        try:
            shard = {
                "kind": "campaign_shard",
                "campaign_root": str(elsewhere),
                "campaign_id": "c",
                "shard_index": 0,
            }
            sweep = {"kind": "run_many", "algorithm": "sacga"}
            for body in (shard, sweep):
                status, payload = body_json(
                    app.handle("POST", "/jobs", json.dumps(body).encode())
                )
                assert status == 400
                assert "accepts kind 'run_one' only" in payload["error"]
            assert app.manager.list_jobs() == []
            assert not (tmp_path / "elsewhere").exists()
            status, payload = body_json(
                app.handle(
                    "POST", "/jobs", b'{"kind": "run_one", "algorithm": "tpg"}'
                )
            )
            assert status == 202
        finally:
            app.manager.shutdown()

    def test_query_validation_400(self, tmp_path):
        app = make_app(tmp_path)
        try:
            job = app.manager.submit({"algorithm": "sacga", "surface": "amp"})
            deadline = time.monotonic() + DEADLINE_S
            while app.manager.status(job.id)["state"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, payload = body_json(app.handle("GET", "/surfaces/amp/query"))
            assert status == 400
            assert "c_load" in payload["error"]
            status, _ = body_json(
                app.handle("GET", "/surfaces/amp/query?c_load=banana")
            )
            assert status == 400
            status, _ = body_json(
                app.handle("GET", "/surfaces/amp/query?c_load=1e-12&version=x")
            )
            assert status == 400
        finally:
            app.manager.shutdown()

    def test_queue_full_429(self, tmp_path):
        release = threading.Event()
        started = threading.Event()

        def blocking(algorithm, experiment_id, **kwargs):
            started.set()
            release.wait(DEADLINE_S)
            return build_summary()

        app = make_app(tmp_path, runner=blocking, workers=1, queue_size=1)
        try:
            submit = b'{"algorithm": "sacga"}'
            status, _ = body_json(app.handle("POST", "/jobs", submit))
            assert status == 202
            assert started.wait(DEADLINE_S)
            status, _ = body_json(app.handle("POST", "/jobs", submit))
            assert status == 202
            status, payload = body_json(app.handle("POST", "/jobs", submit))
            assert status == 429
            assert payload["retry_after_s"] > 0
        finally:
            release.set()
            app.manager.shutdown()

    def test_request_metrics_use_route_patterns(self, tmp_path):
        app = make_app(tmp_path)
        try:
            app.handle("GET", "/jobs/job-nope")
            app.handle("GET", "/jobs/job-also-nope")
            status, content_type, payload = app.handle("GET", "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            families = parse_prometheus(payload.decode("utf-8"))
            samples = families["repro_http_requests_total"]["samples"]
            routes = {s["labels"]["route"] for s in samples}
            # Labeled by pattern, not by raw path: bounded cardinality.
            assert "/jobs/:id" in routes
            assert "/jobs/job-nope" not in routes
        finally:
            app.manager.shutdown()


class TestEndToEnd:
    def test_submit_run_register_query_byte_identical(self, tmp_path):
        """Acceptance: the full loop through a live server, with served
        power answers byte-identical to the direct DesignSurface call."""
        registry = MetricsRegistry()
        store = SurfaceStore(tmp_path / "surfaces")
        manager = JobManager(
            store=store, data_dir=tmp_path, workers=2, metrics=registry
        )
        with ReproServer(ServeApp(manager, store, registry)) as server:
            client = ServeClient(server.url)
            assert client.healthz()["status"] == "ok"

            job = client.submit(
                {
                    "algorithm": "sacga",
                    "generations": 40,
                    "population": 24,
                    "n_mc": 2,
                    "surface": "itest",
                }
            )
            assert job["state"] == "queued"
            done = client.wait(job["id"], timeout=120)
            assert done["state"] == "done"
            assert done["result"]["surface"]["name"] == "itest"
            assert done["result"]["runs"][0]["front_size"] >= 1

            surfaces = client.surfaces()
            assert [s["name"] for s in surfaces] == ["itest"]
            direct = DesignSurface.load(surfaces[0]["path"])

            lo, hi = direct.load_range
            probes = [lo, (lo + hi) / 2, hi, hi * 1.5]
            for c_load in probes:
                served = client.query("itest", c_load)["power"]
                expected = float(direct.power_at(c_load))
                if math.isnan(expected):
                    assert math.isnan(served)
                else:
                    assert struct.pack("<d", served) == struct.pack(
                        "<d", expected
                    )

            answer = client.query("itest", (lo + hi) / 2, design=True)
            assert len(answer["design"]["x"]) == direct._x.shape[1]

            with pytest.raises(ServeError) as excinfo:
                client.query("ghost", 1e-12)
            assert excinfo.value.status == 404

            families = parse_prometheus(client.metrics_text())
            for family in (
                "repro_http_requests_total",
                "repro_http_request_seconds",
                "repro_serve_jobs_submitted_total",
                "repro_serve_jobs_finished_total",
                "repro_serve_queue_depth",
                "repro_serve_jobs_running",
                "repro_serve_workers",
                "repro_serve_job_seconds",
                "repro_serve_surfaces",
            ):
                assert family in families, family
        # Context exit closed the server and drained the pool.
        assert manager.counts()["done"] == 1

    def test_cancel_over_http(self, tmp_path):
        release = threading.Event()
        started = threading.Event()

        def blocking(algorithm, experiment_id, callbacks=(), **kwargs):
            started.set()
            generation = 0
            while not release.wait(0.01):
                for callback in callbacks:
                    callback(generation, None)
                generation += 1
            return build_summary()

        registry = MetricsRegistry()
        store = SurfaceStore(tmp_path / "surfaces")
        manager = JobManager(
            store=store, data_dir=tmp_path, workers=1,
            runner=blocking, metrics=registry,
        )
        try:
            with ReproServer(ServeApp(manager, store, registry)) as server:
                client = ServeClient(server.url)
                job = client.submit({"algorithm": "sacga"})
                assert started.wait(DEADLINE_S)
                client.cancel(job["id"])
                done = client.wait(job["id"], timeout=DEADLINE_S)
                assert done["state"] == "cancelled"
        finally:
            release.set()


class TestTracePropagation:
    def test_submit_mints_trace_id(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(
                app.handle("POST", "/jobs", json.dumps({"algorithm": "tpg"}).encode())
            )
            assert status == 202
            assert payload["trace_id"]
        finally:
            app.manager.shutdown()

    def test_x_trace_id_header_propagates(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(
                app.handle(
                    "POST",
                    "/jobs",
                    json.dumps({"algorithm": "tpg"}).encode(),
                    headers={"x-trace-id": "caller-trace-1"},
                )
            )
            assert status == 202
            assert payload["trace_id"] == "caller-trace-1"
            # And the id sticks to the stored job.
            _, fetched = body_json(app.handle("GET", f"/jobs/{payload['id']}"))
            assert fetched["trace_id"] == "caller-trace-1"
        finally:
            app.manager.shutdown()

    def test_invalid_trace_id_is_400(self, tmp_path):
        app = make_app(tmp_path)
        try:
            status, payload = body_json(
                app.handle(
                    "POST",
                    "/jobs",
                    json.dumps({"algorithm": "tpg"}).encode(),
                    headers={"x-trace-id": "has spaces!"},
                )
            )
            assert status == 400
            assert "invalid trace id" in payload["error"]
        finally:
            app.manager.shutdown()

    def test_server_exports_submit_span(self, tmp_path):
        from repro.obs.tracing import collect_trace

        app = make_app(tmp_path)
        try:
            _, payload = body_json(
                app.handle(
                    "POST",
                    "/jobs",
                    json.dumps({"algorithm": "tpg"}).encode(),
                    headers={"x-trace-id": "traced-submit"},
                )
            )
            events = collect_trace(tmp_path / "traces", trace_id="traced-submit")
            names = {e["name"] for e in events}
            assert "server:submit" in names
            assert all(e["trace_id"] == "traced-submit" for e in events)
        finally:
            app.manager.shutdown()


class TestWorkerMetricsMerge:
    SNAPSHOT = (
        "# TYPE repro_worker_jobs_total counter\n"
        "repro_worker_jobs_total 4\n"
    )

    def test_metrics_include_worker_labeled_series(self, tmp_path):
        app = make_app(tmp_path)
        try:
            app.manager.job_store.flush_worker_metrics("w-ext", self.SNAPSHOT)
            status, content_type, body = app.handle("GET", "/metrics")
            assert status == 200
            metrics = parse_prometheus(body.decode("utf-8"))
            (sample,) = metrics["repro_worker_jobs_total"]["samples"]
            assert sample["labels"] == {"worker": "w-ext"}
            assert sample["value"] == 4.0
            # The server's own families are still there, unlabeled by worker.
            assert "repro_http_requests_total" in metrics
        finally:
            app.manager.shutdown()

    def test_stale_snapshot_is_dropped_from_scrape(self, tmp_path):
        app = make_app(tmp_path)
        try:
            long_ago = time.time() - 100_000.0
            app.manager.job_store.flush_worker_metrics(
                "w-dead", self.SNAPSHOT, now=long_ago
            )
            _, _, body = app.handle("GET", "/metrics")
            assert "repro_worker_jobs_total" not in parse_prometheus(
                body.decode("utf-8")
            )
        finally:
            app.manager.shutdown()

    def test_unparseable_snapshot_is_skipped(self, tmp_path):
        app = make_app(tmp_path)
        try:
            app.manager.job_store.flush_worker_metrics("w-bad", "orphan 1\n")
            app.manager.job_store.flush_worker_metrics("w-good", self.SNAPSHOT)
            status, _, body = app.handle("GET", "/metrics")
            assert status == 200
            metrics = parse_prometheus(body.decode("utf-8"))
            (sample,) = metrics["repro_worker_jobs_total"]["samples"]
            assert sample["labels"]["worker"] == "w-good"
        finally:
            app.manager.shutdown()

    def test_healthz_reports_worker_flush_ages(self, tmp_path):
        app = make_app(tmp_path)
        try:
            app.manager.job_store.flush_worker_metrics("w-ext", self.SNAPSHOT)
            _, payload = body_json(app.handle("GET", "/healthz"))
            ages = payload["workers"]
            assert ages["w-ext"]["fresh"] is True
            assert ages["w-ext"]["last_flush_age_s"] >= 0.0
        finally:
            app.manager.shutdown()


@pytest.fixture
def accepted(monkeypatch):
    """Client addresses of every connection a live server accepts."""
    seen = []
    real = _HTTPServer.process_request

    def counting(self, request, client_address):
        seen.append(client_address)
        real(self, request, client_address)

    monkeypatch.setattr(_HTTPServer, "process_request", counting)
    return seen


def surface_server(tmp_path, request_timeout=30.0):
    """A server (not started yet) over one registered surface."""
    registry = MetricsRegistry()
    store = SurfaceStore(tmp_path / "surfaces")
    store.register("amp", DesignSurface.from_result(build_summary().result))
    manager = JobManager(
        store=store, data_dir=tmp_path, workers=0, metrics=registry
    )
    app = ServeApp(manager, store, registry)
    return ReproServer(app, request_timeout=request_timeout)


def same_float(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestKeepAlive:
    def test_one_connection_carries_many_queries(self, tmp_path, accepted):
        with surface_server(tmp_path) as server:
            client = ServeClient(server.url)
            round_trips = []
            for i in range(50):
                began = time.perf_counter()
                answer = client.query("amp", (1 + i % 3) * 1e-12)
                round_trips.append(time.perf_counter() - began)
                assert math.isfinite(answer["power"])
            client.close()
        assert len(accepted) == 1
        # Nagle's algorithm against the client's delayed ACK would hold
        # every kept-alive reply back by ~40 ms.
        assert float(np.median(round_trips)) < 0.02

    def test_closed_server_cuts_kept_alive_connection(self, tmp_path, accepted):
        server = surface_server(tmp_path).start()
        client = ServeClient(server.url)
        assert client.healthz()["status"] == "ok"
        server.close()
        with pytest.raises(OSError):
            client.healthz()
        assert len(accepted) == 1

    def test_idle_timeout_drop_is_replaced(self, tmp_path, accepted):
        with surface_server(tmp_path, request_timeout=0.2) as server:
            client = ServeClient(server.url)
            assert client.healthz()["status"] == "ok"
            time.sleep(0.6)  # the server drops the idle connection
            # A POST is never resent, so this passes only if the client
            # noticed the drop before sending.
            assert client.submit({"algorithm": "sacga"})["state"] == "queued"
            client.close()
        assert len(accepted) == 2

    def test_get_is_resent_on_a_stale_connection_post_is_not(
        self, tmp_path, accepted, monkeypatch
    ):
        import repro.serve.client as client_module

        # Hide the drop from the pre-send check, as when the server
        # closes the connection just as a request goes out.
        monkeypatch.setattr(client_module, "_dropped", lambda sock: False)
        with surface_server(tmp_path, request_timeout=0.2) as server:
            client = ServeClient(server.url)
            assert client.healthz()["status"] == "ok"
            time.sleep(0.6)
            assert client.healthz()["status"] == "ok"
            time.sleep(0.6)
            with pytest.raises(OSError):
                client.submit({"algorithm": "sacga"})
            assert server.app.manager.list_jobs() == []
            client.close()
        assert len(accepted) == 2

    def test_413_closes_connection_and_client_recovers(self, tmp_path, accepted):
        with surface_server(tmp_path) as server:
            client = ServeClient(server.url)
            assert client.healthz()["status"] == "ok"
            with pytest.raises(ServeError) as excinfo:
                client.submit({"algorithm": "sacga", "pad": "x" * MAX_BODY_BYTES})
            assert excinfo.value.status == 413
            assert client.healthz()["status"] == "ok"
            client.close()
        assert len(accepted) == 2

    def test_413_unread_body_is_not_parsed_as_a_request(self, tmp_path):
        with surface_server(tmp_path) as server:
            smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            head = (
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
            with socket.create_connection(
                (server.host, server.port), timeout=DEADLINE_S
            ) as sock:
                sock.sendall(head + smuggled)
                reply = b""
                while True:  # the server closes after its one reply
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 413")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_threads_share_one_client(self, tmp_path, accepted):
        with surface_server(tmp_path) as server:
            direct = server.app.store.load("amp")
            client = ServeClient(server.url)
            lo, hi = direct.load_range
            loads = list(np.linspace(lo, hi * 1.2, 40))
            mismatches, errors = [], []

            def query_all():
                try:
                    for c_load in loads:
                        served = client.query("amp", c_load)["power"]
                        expected = float(direct.power_at(c_load))
                        if not (
                            same_float(served, expected)
                            or (math.isnan(served) and math.isnan(expected))
                        ):
                            mismatches.append((c_load, served, expected))
                    client.close()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=query_all) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(DEADLINE_S)
        assert errors == [] and mismatches == []
        assert len(accepted) == 4


class TestClose:
    def test_close_of_a_server_never_started_returns(self, tmp_path):
        server = surface_server(tmp_path)
        # In a daemon thread, so a hang fails this test instead of the run.
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive(), "close() hung on an unstarted server"
        assert server._httpd.socket.fileno() == -1  # listening socket closed
        server.close()  # still idempotent
