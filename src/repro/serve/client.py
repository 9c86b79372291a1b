"""Stdlib (``http.client``) client for the ``repro serve`` JSON API.

Used by the CLI verbs (``repro submit`` / ``repro query``), the tests
and the CI smoke job — anything that talks to a running service without
wanting a third-party HTTP dependency.

Connections: each thread that uses a client keeps one HTTP/1.1
connection to the server and sends every request over it (keep-alive),
so a burst of queries pays for connection set-up once.  Before reusing
a connection the client checks whether the server has closed it (idle
past the server's request timeout, or the server shut down) and opens
a fresh one if so.  A GET or DELETE that fails on a reused connection
is sent once more on a fresh one; a POST is never resent.  Proxy
environment variables (``http_proxy``) are not honoured.

Error contract: non-2xx responses raise :class:`ServeError` carrying the
HTTP status and the server's ``error`` message; connection problems
raise the underlying :class:`OSError` untouched (the caller decides
whether "server not up yet" is fatal).
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from http.client import HTTPConnection, HTTPSConnection
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, urlencode, urlsplit

__all__ = ["ServeClient", "ServeError"]

_TERMINAL_STATES = ("done", "failed", "cancelled")


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket reads as readable.

    An idle HTTP/1.1 connection has nothing to read, so readable means
    the server closed it (EOF) or reset it.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class ServeError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message


class ServeClient:
    """Minimal JSON client bound to one service base URL.

    Safe to share between threads: each thread gets its own connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {base_url!r}")
        self._connection_class = (
            HTTPSConnection if parts.scheme == "https" else HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # ------------------------------------------------------------- plumbing

    def _connection(self) -> Tuple[HTTPConnection, bool]:
        """This thread's connection, and whether it has carried a request."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if conn.sock is not None and not _dropped(conn.sock):
                return conn, True
            conn.close()
        conn = self._connection_class(self._netloc, timeout=self.timeout)
        self._local.conn = conn
        return conn, False

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens
        a new one)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if extra_headers:
            headers.update(extra_headers)
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        target = self._prefix + path
        while True:
            conn, reused = self._connection()
            try:
                try:
                    conn.request(method, target, body=data, headers=headers)
                except (BrokenPipeError, ConnectionResetError):
                    if data is None:
                        raise
                    # The server may answer before it has read the whole
                    # body (a 413); that answer is still there to read.
                response = conn.getresponse()
                body = response.read().decode("utf-8")
            except BaseException as exc:
                self.close()
                # The server may close an idle connection just as a
                # request goes out on it.  A GET or DELETE is safe to
                # send again; a POST might then run twice.
                if reused and method != "POST" and isinstance(exc, ConnectionError):
                    continue
                raise
            break
        if not 200 <= response.status < 300:
            try:
                message = json.loads(body).get("error", body)
            except (json.JSONDecodeError, AttributeError):
                message = body.strip() or response.reason
            raise ServeError(response.status, str(message))
        if response.getheader("Content-Type", "").startswith("application/json"):
            return json.loads(body)
        return body

    # ----------------------------------------------------------------- jobs

    def submit(
        self,
        params: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit an optimizer run; returns its snapshot (``state == "queued"``).

        *trace_id* propagates the caller's trace context via the
        ``X-Trace-Id`` header; the snapshot's ``trace_id`` field carries
        whichever id (supplied or server-minted) the job now follows.
        Raises :class:`ServeError` with ``status == 429`` when the
        service is applying backpressure — back off and retry.
        """
        extra = {"X-Trace-Id": trace_id} if trace_id else None
        return self._request(
            "POST", "/jobs", payload=dict(params), extra_headers=extra
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{quote(job_id)}")

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/jobs" if state is None else f"/jobs?state={quote(state)}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{quote(job_id)}")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_s: float = 0.2,
        retry_connect: bool = False,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns it.

        Raises :class:`TimeoutError` if the budget runs out first (the
        job keeps running server-side — cancel it if that matters).
        With ``retry_connect=True`` connection failures are retried
        until the deadline instead of propagating — jobs live in the
        durable store, so a restarting server comes back with the same
        job table and polling can simply resume.
        """
        deadline = time.monotonic() + timeout
        state = "unknown"
        while True:
            try:
                snapshot = self.job(job_id)
            except OSError:
                if not retry_connect:
                    raise
                snapshot = None
            if snapshot is not None:
                state = snapshot["state"]
                if state in _TERMINAL_STATES:
                    return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:.1f}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------ campaigns

    def create_campaign(
        self, payload: Dict[str, Any], trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Start (or resume) a robustness campaign over a surface.

        *payload* needs at least ``{"surface": name}``; see the server's
        ``POST /campaigns`` contract for the optional keys.
        """
        extra = {"X-Trace-Id": trace_id} if trace_id else None
        return self._request(
            "POST", "/campaigns", payload=payload, extra_headers=extra
        )

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{quote(campaign_id)}")

    def campaigns(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/campaigns")["campaigns"]

    def wait_campaign(
        self, campaign_id: str, timeout: float = 300.0, poll_s: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the campaign's report is ready; returns the status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.campaign(campaign_id)
            if status.get("report") is not None:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still has shards "
                    f"{status.get('shards_pending')} after {timeout:.1f}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------- surfaces

    def surfaces(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/surfaces")["surfaces"]

    def surface(self, name: str) -> Dict[str, Any]:
        return self._request("GET", f"/surfaces/{quote(name)}")

    def query(
        self,
        name: str,
        c_load: float,
        design: bool = False,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Min-power query against a registered surface (SI farads)."""
        params: Dict[str, Any] = {"c_load": repr(float(c_load))}
        if design:
            params["design"] = "1"
        if version is not None:
            params["version"] = int(version)
        return self._request(
            "GET", f"/surfaces/{quote(name)}/query?{urlencode(params)}"
        )

    # -------------------------------------------------------------- service

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition (validate with
        :func:`repro.obs.exporters.parse_prometheus`)."""
        return self._request("GET", "/metrics")
