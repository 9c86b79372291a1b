"""Stdlib (``urllib``) client for the ``repro serve`` JSON API.

Used by the CLI verbs (``repro submit`` / ``repro query``), the tests
and the CI smoke job — anything that talks to a running service without
wanting a third-party HTTP dependency.

Error contract: non-2xx responses raise :class:`ServeError` carrying the
HTTP status and the server's ``error`` message; connection problems
raise the underlying :class:`OSError` untouched (the caller decides
whether "server not up yet" is fatal).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional
from urllib.error import HTTPError
from urllib.parse import quote, urlencode
from urllib.request import Request, urlopen

__all__ = ["ServeClient", "ServeError"]

_TERMINAL_STATES = ("done", "failed", "cancelled")


class ServeError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message


class ServeClient:
    """Minimal JSON client bound to one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # ------------------------------------------------------------- plumbing

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
        request = Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers.get("Content-Type", "")
        except HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                message = detail.strip() or exc.reason
            raise ServeError(exc.code, str(message)) from None
        if content_type.startswith("application/json"):
            return json.loads(body)
        return body

    # ----------------------------------------------------------------- jobs

    def submit(
        self,
        params: Dict[str, Any],
        kind: str = "run_one",
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a job; returns its snapshot (``state == "queued"``).

        *trace_id* propagates the caller's trace context via the
        ``X-Trace-Id`` header; the snapshot's ``trace_id`` field carries
        whichever id (supplied or server-minted) the job now follows.
        Raises :class:`ServeError` with ``status == 429`` when the
        service is applying backpressure — back off and retry.
        """
        body = dict(params)
        body["kind"] = kind
        extra = {"X-Trace-Id": trace_id} if trace_id else None
        return self._request("POST", "/jobs", payload=body, extra_headers=extra)

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
