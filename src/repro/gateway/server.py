"""The asyncio network front door over the sharded service layer.

:class:`Gateway` binds an asyncio HTTP server (see
:mod:`repro.gateway.http`) to a :class:`~repro.gateway.shard.ShardRouter`
and exposes the service as five endpoints:

- ``POST /jobs`` — submit a :class:`~repro.service.jobs.JobSpec` (the
  same JSON ``repro submit`` writes).  Admission control maps straight
  onto the bounded submitter-fair queue: a full queue (or quota'd
  submitter) answers **429 with Retry-After** instead of blocking the
  connection — backpressure the client can see and pace against.
- ``GET /jobs/{id}`` — the job record.
- ``GET /jobs/{id}/events`` — chunked JSONL status stream, replaying
  history then following live: ``queued → leased → incumbent… →
  done/failed/cancelled/timeout`` (plus ``ping`` keep-alives).
- ``GET /jobs/{id}/result`` — the full :class:`SearchResult` once the
  job is ``DONE`` (202 while live, 409 for other terminal states).
- ``GET /metrics`` — Prometheus text exposition of every shard's
  service metrics and coordinator load stats.

A connection carries requests one after another until the client asks
for ``Connection: close`` (or speaks HTTP/1.0 without keep-alive), a
request head does not parse (the stream position is lost with it), an
``/events`` stream ends, the gateway drains, or the connection sits
idle past ``stream_ping`` (a silent client, or one that stalls inside
a request head).

Shutdown is a drain, not a guillotine: :meth:`Gateway.stop` flips the
gateway to *draining* (new submissions get 503, every response says
``Connection: close``, idle connections close at once), lets in-flight
jobs finish (their status streams complete normally), cancels
still-queued jobs so their streams terminate too, and only then closes
the listener.
:class:`GatewayHandle` wraps the whole thing in a dedicated loop thread
for synchronous callers (the CLI, tests, benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from typing import Optional

from repro.gateway import http as H
from repro.gateway.prometheus import render_service
from repro.gateway.shard import ShardRouter
from repro.service.jobs import Job, JobSpec, JobState
from repro.util.loop import LoopThread

__all__ = ["Gateway", "GatewayHandle", "job_dict"]


def job_dict(job: Job, shard: int) -> dict:
    """The JSON record of one job, as served by ``GET /jobs/{id}``."""
    out = {
        "job": job.id,
        "shard": shard,
        "key": job.key,
        "state": job.state.value,
        "from_cache": job.from_cache,
        "attempts": job.attempts,
    }
    if job.coalesced_into:
        out["coalesced_into"] = job.coalesced_into
    if job.error:
        out["error"] = job.error
    if job.result is not None:
        out["value"] = job.result.value
    lat = job.latency()
    if lat is not None:
        out["latency"] = lat
    return out


class Gateway:
    """The asyncio HTTP front door (all methods run on one loop).

    Args:
        router: the shard router to serve (started by :meth:`start`).
        host / port: listen address (port 0 picks a free port).
        retry_after: the ``Retry-After`` hint (seconds) on 429/503.
        max_body: request body bound in bytes.
        stream_ping: silent-gap seconds before a stream emits a
            keep-alive ``ping`` event (also how fast dead client
            sockets are noticed), and how long a connection may wait
            for its next request.
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        retry_after: float = 1.0,
        max_body: int = H.DEFAULT_MAX_BODY,
        stream_ping: float = 15.0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.retry_after = retry_after
        self.max_body = max_body
        self.stream_ping = stream_ping
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None
        self._requests: dict = {}  # (method, status) -> count
        self._connections = 0  # accepted, ever
        self._streams_active = 0
        # Writers of connections waiting for a request, and every live
        # connection's handler task: a drain closes the former at once
        # and waits for the latter.
        self._idle: set = set()
        self._handlers: set = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Start the shard workers and bind the listener."""
        self.router.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self.host, self.port

    async def stop(self) -> None:
        """Graceful drain: 503 new submissions, close idle connections,
        let in-flight jobs finish, cancel queued ones, then close the
        listener once every connection has ended."""
        self.draining = True
        self._close_idle()
        loop = asyncio.get_running_loop()
        # router.close() blocks on worker threads finishing their
        # current jobs — run it off-loop so live status streams keep
        # flowing and /metrics stays scrapeable during the drain.
        await loop.run_in_executor(None, self.router.close)
        if self._server is not None:
            self._server.close()
            self._close_idle()  # accepted during the drain, still silent
            if self._handlers:
                await asyncio.wait(self._handlers, timeout=self.stream_ping)
            await self._server.wait_closed()
            self._server = None

    def _close_idle(self) -> None:
        for writer in self._idle:
            writer.close()  # the handler reads EOF and ends

    # -- accounting ----------------------------------------------------------

    def _count(self, method: str, status: int) -> None:
        key = (method, status)
        self._requests[key] = self._requests.get(key, 0) + 1

    def gateway_stats(self) -> dict:
        """The gateway-level gauges rendered into ``/metrics``."""
        return {
            "shards": self.router.n_shards,
            "draining": int(self.draining),
            "streams_active": self._streams_active,
            "connections": self._connections,
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else None
            ),
        }

    # -- request handling ----------------------------------------------------

    _ROUTES = [
        ("POST", re.compile(r"^/jobs$"), "_post_job"),
        ("GET", re.compile(r"^/jobs/([^/]+)$"), "_get_job"),
        ("GET", re.compile(r"^/jobs/([^/]+)/events$"), "_stream_events"),
        ("GET", re.compile(r"^/jobs/([^/]+)/result$"), "_get_result"),
        ("GET", re.compile(r"^/metrics$"), "_get_metrics"),
        ("GET", re.compile(r"^/healthz$"), "_get_health"),
    ]

    async def _handle_connection(self, reader, writer) -> None:
        """Serve requests on one connection until one of the rules in
        the module docstring closes it."""
        self._connections += 1
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        try:
            while True:
                self._idle.add(writer)
                try:
                    async with asyncio.timeout(self.stream_ping):
                        request = await H.read_request(
                            reader, max_body=self.max_body
                        )
                except H.HttpError as exc:
                    await self._respond(
                        writer, None, exc.status, {"error": exc.message}
                    )
                    return
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                await self._serve(request, writer)
                if not request.keep_alive or self.draining:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # client went away or went quiet; nothing to say to nobody
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve(self, request: H.Request, writer) -> None:
        """Answer one parsed request; a handler's error is its response."""
        try:
            await self._dispatch(request, writer)
        except H.HttpError as exc:
            await self._respond(
                writer, request, exc.status, {"error": exc.message}
            )
        except ConnectionError:
            raise
        except Exception as exc:  # a handler bug must not kill the loop
            request.keep_alive = False
            await self._respond(
                writer, request, 500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )

    async def _dispatch(self, request: H.Request, writer) -> None:
        for method, pattern, handler in self._ROUTES:
            match = pattern.match(request.path)
            if match is None:
                continue
            if request.method != method:
                raise H.HttpError(405, f"{request.path} is {method}-only")
            await getattr(self, handler)(request, writer, *match.groups())
            return
        raise H.HttpError(404, f"no such endpoint: {request.path}")

    async def _respond(
        self, writer, request: Optional[H.Request], status: int, body, **kwargs
    ) -> None:
        """Send one response; ``request`` None (a head that did not
        parse) or a draining gateway closes the connection after it."""
        if request is None:
            self._count("?", status)
            keep_alive = False
        else:
            self._count(request.method, status)
            keep_alive = request.keep_alive = (
                request.keep_alive and not self.draining
            )
        writer.write(
            H.response_bytes(status, body, keep_alive=keep_alive, **kwargs)
        )
        await writer.drain()

    # -- endpoints -----------------------------------------------------------

    async def _post_job(self, request: H.Request, writer) -> None:
        """``POST /jobs``: validate, route by hash, admit, report."""
        if self.draining:
            await self._respond(
                writer, request, 503, {"error": "gateway is draining"},
                extra_headers={"Retry-After": f"{self.retry_after:g}"},
            )
            return
        data = request.json()
        try:
            spec = JobSpec.from_dict(data)
        except (ValueError, TypeError, KeyError) as exc:
            raise H.HttpError(400, f"invalid job spec: {exc}") from None
        # Admission runs on the loop: Scheduler.submit holds its shard's
        # lock only briefly and builds no spec, cheaper than a thread hop.
        try:
            shard, job = self.router.submit(spec)
        except ValueError as exc:
            raise H.HttpError(400, str(exc)) from None
        body = job_dict(job, shard)
        if job.state is JobState.FAILED and (job.error or "").startswith(
            "rejected:"
        ):
            await self._respond(
                writer, request, 429, body,
                extra_headers={"Retry-After": f"{self.retry_after:g}"},
            )
            return
        status = 200 if job.terminal else 201
        await self._respond(writer, request, status, body)

    async def _get_job(self, request: H.Request, writer, job_id: str) -> None:
        """``GET /jobs/{id}``: the job record."""
        shard, job = self._find(job_id)
        await self._respond(writer, request, 200, job_dict(job, shard))

    async def _get_result(self, request: H.Request, writer, job_id: str) -> None:
        """``GET /jobs/{id}/result``: the full result of a DONE job
        (202 while live, 409 for failed/cancelled/timeout)."""
        shard, job = self._find(job_id)
        body = job_dict(job, shard)
        if job.state is JobState.DONE and job.result is not None:
            body["result"] = job.result.to_dict()
            await self._respond(writer, request, 200, body)
        elif not job.terminal:
            await self._respond(writer, request, 202, body)
        else:
            await self._respond(writer, request, 409, body)

    async def _stream_events(self, request: H.Request, writer, job_id: str) -> None:
        """``GET /jobs/{id}/events``: chunked JSONL status stream."""
        self._find(job_id)  # 404 before committing to a stream
        self._count("GET", 200)
        request.keep_alive = False  # the stream's end is the connection's
        self._streams_active += 1
        try:
            await H.start_chunked(writer)
            async for event in self.router.broker.subscribe(
                job_id, poll_timeout=self.stream_ping
            ):
                await H.write_chunk(
                    writer, json.dumps(event, sort_keys=True) + "\n"
                )
            await H.end_chunked(writer)
        except (ConnectionError, OSError):
            pass  # client hung up mid-stream; subscription unwinds
        finally:
            self._streams_active -= 1

    async def _get_metrics(self, request: H.Request, writer) -> None:
        """``GET /metrics``: Prometheus text exposition, scrapeable
        mid-run (snapshots are consistent, see ServiceMetrics)."""
        loop = asyncio.get_running_loop()
        snapshots = await loop.run_in_executor(None, self.router.snapshots)
        load_stats = await loop.run_in_executor(None, self.router.load_stats)
        text = render_service(
            snapshots,
            load_stats=load_stats,
            gateway=self.gateway_stats(),
            requests=dict(self._requests),
        )
        await self._respond(
            writer, request, 200, text,
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _get_health(self, request: H.Request, writer) -> None:
        """``GET /healthz``: liveness + drain state."""
        await self._respond(
            writer, request, 200,
            {
                "status": "draining" if self.draining else "ok",
                "shards": self.router.n_shards,
            },
        )

    def _find(self, job_id: str) -> tuple[int, Job]:
        try:
            return self.router.job(job_id)
        except KeyError:
            raise H.HttpError(404, f"no such job: {job_id}") from None


class GatewayHandle:
    """A gateway running on a dedicated loop thread, for sync callers.

    The CLI, tests and benchmarks are synchronous; this runs the
    gateway on a :class:`~repro.util.loop.LoopThread`, as
    :class:`~repro.cluster.coordinator.ClusterHandle` runs the
    coordinator.
    """

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self._loop = LoopThread("gateway")

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the gateway; returns (host, port)."""
        self._loop.start()
        return self._loop.run(self.gateway.start(), timeout=30.0)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self.gateway.host, self.gateway.port

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def drain(self, *, timeout: float = 120.0) -> None:
        """Graceful shutdown: finish in-flight jobs, then stop serving.
        Idempotent."""
        if self._loop.loop is not None:
            self._loop.run(self.gateway.stop(), timeout)

    def close(self, *, timeout: float = 120.0) -> None:
        """Drain (if not already) and stop the loop thread."""
        if self._loop.loop is None:
            return
        try:
            self.drain(timeout=timeout)
        finally:
            self._loop.stop()
