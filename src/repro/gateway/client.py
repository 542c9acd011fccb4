"""A thin synchronous client for the gateway's HTTP API.

``repro submit --url``, ``repro gateway-top``, the tests and the
benchmarks all drive the gateway through this one class, so the wire
contract is exercised from Python exactly the way ``curl`` would
exercise it — stdlib :mod:`http.client` only, chunked decoding handled
by the standard response object.

Each thread keeps one connection for its calls (an ``events()`` stream
takes one of its own).  A call that finds its reused connection closed
by the server is sent once more on a fresh one.  That is safe for
``submit`` too: a spec sent twice has one content-addressed key, so the
second lands on the first's job or on its cached result.

The 429 backpressure contract surfaces as a typed
:class:`Backpressure` exception carrying the server's ``Retry-After``
hint, so batch submitters can implement honest pacing loops::

    while True:
        try:
            record = client.submit(spec)
            break
        except Backpressure as bp:
            time.sleep(bp.retry_after)
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection
from typing import Iterator, Optional
from urllib.parse import urlsplit

from repro.gateway.prometheus import parse_metrics

__all__ = ["GatewayError", "Backpressure", "GatewayClient"]


class GatewayError(Exception):
    """A non-2xx gateway response; carries status and decoded body."""

    def __init__(self, status: int, body) -> None:
        detail = body.get("error") if isinstance(body, dict) else body
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.body = body


class Backpressure(GatewayError):
    """A 429/503: the queue is full (or the gateway is draining);
    ``retry_after`` is the server's pacing hint in seconds."""

    def __init__(self, status: int, body, retry_after: float) -> None:
        super().__init__(status, body)
        self.retry_after = retry_after


class _Connection(HTTPConnection):
    """An :class:`HTTPConnection` that writes a request's head and a
    bytes body in one ``send``; the stock one sends them apart, two
    writes for every ``POST``."""

    def _send_output(self, message_body=None, encode_chunked=False):
        if type(message_body) is not bytes or encode_chunked:
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        msg = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(msg)


class GatewayClient:
    """Synchronous HTTP client for one gateway base URL.

    Args:
        url: base URL, e.g. ``http://127.0.0.1:8080``.
        timeout: per-request socket timeout (streams override it).
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// gateways are supported, got {url!r}")
        if not split.hostname:
            raise ValueError(f"no host in gateway url {url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self._local = threading.local()
        self._conns: list = []  # every thread's, for close()

    def _connect(self, timeout: Optional[float]) -> HTTPConnection:
        return _Connection(self.host, self.port, timeout=timeout)

    def _exchange(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict, bytes]:
        """One request on this thread's connection; returns (status,
        headers, raw body)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect(self.timeout)
            self._conns.append(conn)
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        # An open socket has carried a request before; the server may
        # have closed it since.  http.client reopens a closed one.
        resend = conn.sock is not None
        while True:
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                return resp.status, dict(resp.getheaders()), resp.read()
            except ConnectionError:
                conn.close()
                if not resend:
                    raise
                resend = False
            except BaseException:
                conn.close()  # a half-done exchange leaves it unusable
                raise

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict, dict]:
        """One request; returns (status, headers, decoded JSON body)."""
        status, headers, raw = self._exchange(method, path, body)
        try:
            decoded = json.loads(raw.decode()) if raw else {}
        except ValueError:
            decoded = {"error": raw.decode(errors="replace")}
        return status, headers, decoded

    def close(self) -> None:
        """Close every thread's kept connection (call it with no request
        in flight); a later call opens a new one."""
        for conn in self._conns:
            conn.close()

    @staticmethod
    def _raise_for(status: int, headers: dict, body) -> None:
        if status in (429, 503):
            try:
                retry_after = float(headers.get("Retry-After", 1.0))
            except ValueError:
                retry_after = 1.0
            raise Backpressure(status, body, retry_after)
        if status >= 400:
            raise GatewayError(status, body)

    # -- the API -------------------------------------------------------------

    def submit(self, spec: dict) -> dict:
        """``POST /jobs``; returns the job record.  Raises
        :class:`Backpressure` on 429/503, :class:`GatewayError` on
        other non-2xx."""
        status, headers, body = self._request("POST", "/jobs", spec)
        self._raise_for(status, headers, body)
        return body

    def submit_paced(
        self,
        spec: dict,
        *,
        attempts: int = 20,
        sleep=time.sleep,
    ) -> dict:
        """Submit with honest pacing: on backpressure, wait the
        server's ``Retry-After`` and try again (up to ``attempts``)."""
        last: Optional[Backpressure] = None
        for _ in range(attempts):
            try:
                return self.submit(spec)
            except Backpressure as bp:
                last = bp
                sleep(bp.retry_after)
        raise last  # type: ignore[misc]  # attempts >= 1 guarantees it

    def job(self, job_id: str) -> dict:
        """``GET /jobs/{id}``; the job record."""
        status, headers, body = self._request("GET", f"/jobs/{job_id}")
        self._raise_for(status, headers, body)
        return body

    def result(self, job_id: str) -> tuple[int, dict]:
        """``GET /jobs/{id}/result``; returns ``(status, body)`` —
        200 carries ``body["result"]``, 202 means still running, 409
        a non-DONE terminal state.  404 still raises."""
        status, headers, body = self._request("GET", f"/jobs/{job_id}/result")
        if status == 404:
            self._raise_for(status, headers, body)
        return status, body

    def events(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """``GET /jobs/{id}/events``: yield status events as they
        stream, ending after the terminal event.  ``timeout`` bounds
        each silent gap (the server pings well inside it)."""
        conn = self._connect(timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raw = resp.read()
                try:
                    body = json.loads(raw.decode())
                except ValueError:
                    body = {"error": raw.decode(errors="replace")}
                self._raise_for(resp.status, dict(resp.getheaders()), body)
            while True:
                line = resp.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()

    def wait(self, job_id: str, *, timeout: Optional[float] = None) -> dict:
        """Follow the status stream to its terminal event, then return
        the final job record."""
        for _ in self.events(job_id, timeout=timeout):
            pass
        return self.job(job_id)

    def metrics_text(self) -> str:
        """``GET /metrics`` as raw exposition text."""
        status, _, raw = self._exchange("GET", "/metrics")
        if status != 200:
            raise GatewayError(status, {"error": raw.decode()})
        return raw.decode()

    def metrics(self) -> dict:
        """``GET /metrics`` parsed into ``{(name, labels): value}``."""
        return parse_metrics(self.metrics_text())

    def health(self) -> dict:
        """``GET /healthz``."""
        status, headers, body = self._request("GET", "/healthz")
        self._raise_for(status, headers, body)
        return body
