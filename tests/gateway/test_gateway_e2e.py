"""Gateway acceptance over real sockets (ISSUE 8 acceptance criteria).

Every test here talks HTTP to a listening gateway through
:class:`GatewayClient` — submission, streaming, result retrieval,
backpressure and drain are exercised exactly as a remote client would,
with scripted backends keeping execution instant and controllable.
"""

import asyncio
import gc
import http.client
import logging
import socket
import threading
import time

import pytest

from repro.core.results import SearchResult
from repro.gateway import (
    Backpressure,
    Gateway,
    GatewayClient,
    GatewayError,
    GatewayHandle,
    ShardRouter,
)

INSTANCES = ["brock90-1", "brock90-2", "brock100-1", "brock100-2",
             "brock110-1", "brock120-1", "sanr90-1", "p_hat90-1"]


def spec_json(instance="brock90-1", **kw):
    return {"app": "maxclique", "instance": instance, **kw}


class InstantBackend:
    """Executes immediately, counting runs."""

    def __init__(self):
        self.executed = []

    def execute(self, job, *, deadline=None, cancel=None):
        self.executed.append(job.id)
        if job.on_incumbent is not None:
            job.on_incumbent(5)
            job.on_incumbent(9)
        return SearchResult(kind="optimisation", value=9, node=("w",))


class GatedBackend(InstantBackend):
    """Blocks every execution until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, job, *, deadline=None, cancel=None):
        self.started.set()
        assert self.release.wait(timeout=30), "gate never released"
        return super().execute(job, deadline=deadline, cancel=cancel)


def make_gateway(n_shards=2, backend_cls=InstantBackend, *,
                 stream_ping=0.25, gateway_cls=Gateway, **router_kw):
    """A listening gateway + client + the per-shard backends."""
    backends = {}

    def factory(i):
        backends[i] = backend_cls()
        return backends[i]

    router_kw.setdefault("pool", 1)
    router = ShardRouter(n_shards, backend_factory=factory, **router_kw)
    handle = GatewayHandle(
        gateway_cls(router, port=0, retry_after=0.05, stream_ping=stream_ping)
    )
    handle.start()
    return handle, GatewayClient(handle.url, timeout=15.0), backends


class TestHappyPath:
    def test_submit_stream_result_and_dedup_counters(self):
        handle, client, backends = make_gateway()
        try:
            record = client.submit(spec_json())
            assert record["state"] in ("PENDING", "RUNNING", "DONE")
            shard = record["shard"]

            events = [e["event"] for e in client.events(record["job"])]
            assert events[0] == "queued"
            assert "leased" in events
            assert events[-1] == "done"
            assert "incumbent" in events

            status, body = client.result(record["job"])
            assert status == 200
            assert body["result"]["value"] == 9
            assert body["result"]["kind"] == "optimisation"

            # A duplicate from another client coalesces/caches: same
            # shard, a second result, still exactly one execution.
            dup = client.submit(spec_json(submitter="other"))
            assert dup["shard"] == shard
            assert dup["state"] == "DONE"
            assert dup["from_cache"] is True

            metrics = client.metrics()
            executed = sum(
                v for (name, _), v in metrics.items()
                if name == "repro_jobs_executed_total"
            )
            submitted = sum(
                v for (name, _), v in metrics.items()
                if name == "repro_jobs_submitted_total"
            )
            hits = sum(
                v for (name, _), v in metrics.items()
                if name == "repro_cache_hits_total"
            )
            assert executed == 1  # the dedup witness, scraped over HTTP
            assert submitted == 2
            assert hits == 1
            total_runs = sum(len(b.executed) for b in backends.values())
            assert total_runs == 1
        finally:
            handle.close()

    def test_independent_jobs_fan_out_across_shards(self):
        handle, client, backends = make_gateway(n_shards=4)
        try:
            shards = {
                client.submit(spec_json(i))["shard"] for i in INSTANCES
            }
            assert len(shards) > 1
        finally:
            handle.close()

    def test_job_record_and_health(self):
        handle, client, _ = make_gateway()
        try:
            record = client.submit(spec_json())
            client.wait(record["job"])
            final = client.job(record["job"])
            assert final["state"] == "DONE"
            assert final["value"] == 9
            assert final["latency"] >= 0
            assert client.health() == {"status": "ok", "shards": 2}
        finally:
            handle.close()

    def test_stream_follows_a_live_job(self):
        handle, client, backends = make_gateway(n_shards=1,
                                                backend_cls=GatedBackend)
        try:
            record = client.submit(spec_json())
            assert backends[0].started.wait(5)
            seen = []
            stream = client.events(record["job"], timeout=10)
            for event in stream:
                seen.append(event["event"])
                if event["event"] == "leased":
                    break
            assert seen == ["queued", "leased"]  # mid-run, job still gated
            backends[0].release.set()
            rest = [e["event"] for e in stream]
            assert rest[-1] == "done"
        finally:
            backends[0].release.set()
            handle.close()


class TestErrors:
    def test_unknown_job_is_404(self):
        handle, client, _ = make_gateway()
        try:
            with pytest.raises(GatewayError) as err:
                client.job("s0-j9999")
            assert err.value.status == 404
            with pytest.raises(GatewayError) as err:
                client.job("garbage")
            assert err.value.status == 404
        finally:
            handle.close()

    def test_dropped_job_is_404(self, monkeypatch):
        # A serving shard keeps RETAINED_JOBS terminal records; an older
        # job's record and its event log are gone.
        from repro.service import scheduler

        monkeypatch.setattr(scheduler, "RETAINED_JOBS", 3)
        handle, client, _ = make_gateway(n_shards=1)
        try:
            ids = [client.wait(client.submit(spec_json(name))["job"])["job"]
                   for name in INSTANCES[:5]]
            broker = handle.gateway.router.broker
            for job_id in ids[:2]:
                with pytest.raises(GatewayError) as err:
                    client.job(job_id)
                assert err.value.status == 404
                assert broker.history(job_id) == []
            assert client.job(ids[-1])["state"] == "DONE"
            assert len(broker) == 3
        finally:
            handle.close()

    def test_invalid_spec_is_400(self):
        handle, client, _ = make_gateway()
        try:
            with pytest.raises(GatewayError) as err:
                client.submit({"app": "maxclique", "instance": "atlantis-9"})
            assert err.value.status == 400
            with pytest.raises(GatewayError) as err:
                client.submit({"nonsense": True})
            assert err.value.status == 400
            # Nesting deep enough to exhaust the JSON parser's stack.
            conn = http.client.HTTPConnection(*handle.address, timeout=10)
            try:
                conn.request("POST", "/jobs", body=b"[" * 5000 + b"]" * 5000)
                assert conn.getresponse().status == 400
            finally:
                conn.close()
        finally:
            handle.close()

    def test_skeleton_the_backend_cannot_run_is_400(self):
        class BudgetOnly(InstantBackend):
            coordinations = ("budget",)

        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=BudgetOnly
        )
        try:
            with pytest.raises(GatewayError) as err:
                client.submit(spec_json(skeleton="sequential"))
            assert err.value.status == 400
            assert "budget" in str(err.value)
            assert backends[0].executed == []
        finally:
            handle.close()

    def test_result_is_202_while_running(self):
        handle, client, backends = make_gateway(n_shards=1,
                                                backend_cls=GatedBackend)
        try:
            record = client.submit(spec_json())
            assert backends[0].started.wait(5)
            status, body = client.result(record["job"])
            assert status == 202
            assert body["state"] == "RUNNING"
            backends[0].release.set()
            client.wait(record["job"])
            status, _ = client.result(record["job"])
            assert status == 200
        finally:
            backends[0].release.set()
            handle.close()

    def test_wrong_method_is_405(self):
        handle, client, _ = make_gateway()
        try:
            with pytest.raises(GatewayError) as err:
                client._raise_for(*_request_raw(client, "POST", "/metrics"))
            assert err.value.status == 405
        finally:
            handle.close()


def _request_raw(client, method, path):
    status, headers, body = client._request(method, path)
    return status, headers, body


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        # Capacity: one running (pool=1) + one queued (queue_depth=1).
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, queue_depth=1
        )
        gate = backends[0]
        try:
            first = client.submit(spec_json(INSTANCES[0]))
            assert gate.started.wait(5)          # worker busy on job 1
            client.submit(spec_json(INSTANCES[1]))  # fills the queue

            with pytest.raises(Backpressure) as err:
                client.submit(spec_json(INSTANCES[2]))
            assert err.value.status == 429
            assert err.value.retry_after == pytest.approx(0.05)
            assert "rejected" in str(err.value)
        finally:
            gate.release.set()
            handle.close()

    def test_concurrent_submitters_all_see_429_then_all_complete(self):
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, queue_depth=1
        )
        gate = backends[0]
        try:
            client.submit(spec_json(INSTANCES[0]))
            assert gate.started.wait(5)
            client.submit(spec_json(INSTANCES[1]))

            # Four clients hammer the full gateway concurrently: every
            # one gets a clean 429 (no hangs, no starvation)...
            outcomes = {}

            def hammer(idx):
                c = GatewayClient(handle.url, timeout=15.0)
                try:
                    c.submit(spec_json(INSTANCES[2 + idx],
                                       submitter=f"client-{idx}"))
                    outcomes[idx] = "accepted"
                except Backpressure as bp:
                    outcomes[idx] = bp.retry_after
                except Exception as exc:  # pragma: no cover - diagnostics
                    outcomes[idx] = repr(exc)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
            assert all(v == pytest.approx(0.05) for v in outcomes.values()), (
                outcomes
            )

            # ...and once capacity frees up, honest pacing gets every
            # rejected submitter through — nobody is starved.
            gate.release.set()
            done = {}

            def paced(idx):
                c = GatewayClient(handle.url, timeout=15.0)
                record = c.submit_paced(
                    spec_json(INSTANCES[2 + idx], submitter=f"client-{idx}"),
                    attempts=100,
                )
                done[idx] = c.wait(record["job"])["state"]

            threads = [threading.Thread(target=paced, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert done == {0: "DONE", 1: "DONE", 2: "DONE", 3: "DONE"}

            metrics = client.metrics()
            rejected = metrics[("repro_jobs_rejected_total", (("shard", "0"),))]
            assert rejected >= 4
        finally:
            gate.release.set()
            handle.close()

    def test_per_submitter_quota_does_not_starve_others(self):
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, queue_depth=8,
            per_submitter=1,
        )
        gate = backends[0]
        try:
            client.submit(spec_json(INSTANCES[0], submitter="greedy"))
            assert gate.started.wait(5)
            client.submit(spec_json(INSTANCES[1], submitter="greedy"))
            with pytest.raises(Backpressure):  # greedy hit their quota
                client.submit(spec_json(INSTANCES[2], submitter="greedy"))
            # another submitter still gets in
            record = client.submit(spec_json(INSTANCES[3], submitter="polite"))
            assert record["state"] in ("PENDING", "RUNNING")
        finally:
            gate.release.set()
            handle.close()


class TestDrain:
    def test_drain_finishes_in_flight_and_rejects_new(self):
        handle, client, backends = make_gateway(n_shards=1,
                                                backend_cls=GatedBackend)
        gate = backends[0]
        try:
            record = client.submit(spec_json(INSTANCES[0]))
            assert gate.started.wait(5)

            drained = threading.Event()

            def drain():
                handle.drain()
                drained.set()

            t = threading.Thread(target=drain)
            t.start()
            # The drain blocks on the in-flight job...
            time.sleep(0.2)
            assert not drained.is_set()
            assert client.health()["status"] == "draining"
            with pytest.raises(Backpressure) as err:
                client.submit(spec_json(INSTANCES[1]))
            assert err.value.status == 503
            # ...releases once it completes (the listener closes with
            # the drain, so the final check reads the router directly)...
            gate.release.set()
            t.join(timeout=15)
            assert drained.is_set()
            # ...and the job really finished (not killed mid-run).
            _, job = handle.gateway.router.job(record["job"])
            assert job.state.value == "DONE"
        finally:
            gate.release.set()
            handle.close()

    def test_drain_cancels_queued_jobs_so_streams_terminate(self):
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, queue_depth=4
        )
        gate = backends[0]
        router = handle.gateway.router
        broker = router.broker
        try:
            running = client.submit(spec_json(INSTANCES[0]))
            assert gate.started.wait(5)
            queued = client.submit(spec_json(INSTANCES[1]))

            # Drain with the in-flight job still gated: the queued job
            # must be cancelled immediately (its stream terminates), the
            # running one finishes after release.
            t = threading.Thread(target=handle.drain)
            t.start()
            deadline = time.monotonic() + 5
            while not broker.closed(queued["job"]):
                assert time.monotonic() < deadline, "queued job never ended"
                time.sleep(0.01)
            gate.release.set()
            t.join(timeout=15)

            _, cancelled = router.job(queued["job"])
            assert cancelled.state.value == "CANCELLED"
            assert "shutting down" in cancelled.error
            _, done = router.job(running["job"])
            assert done.state.value == "DONE"
            assert [e["event"] for e in broker.history(queued["job"])][-1] == (
                "cancelled"
            )
        finally:
            gate.release.set()
            handle.close()


class TestFrontDoorCost:
    """What a job costs on the front door, counted rather than timed."""

    def test_fresh_jobs_build_the_spec_once_and_key_once(self, monkeypatch):
        import hashlib
        from types import SimpleNamespace

        from repro.instances import library
        from repro.service import jobs

        builds, keys = [], []
        build = library.maxclique_spec

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        def counted_sha256(data):
            keys.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(library, "maxclique_spec", counted_build)
        monkeypatch.setattr(jobs, "hashlib", SimpleNamespace(sha256=counted_sha256))
        library.library_spec_factory.cache_clear()
        # The default (in-process) backend: every job is a real search.
        handle = GatewayHandle(Gateway(ShardRouter(2), port=0))
        handle.start()
        try:
            client = GatewayClient(handle.url, timeout=15.0)
            for seed in range(1, 7):
                record = client.wait(
                    client.submit(spec_json("brock90-1", params={"seed": seed}))["job"]
                )
                assert record["state"] == "DONE" and not record["from_cache"]
        finally:
            handle.close()
            library.library_spec_factory.cache_clear()
        assert len(builds) == 1
        assert len(keys) == 6


# -- connections -------------------------------------------------------------


def connect(handle) -> socket.socket:
    return socket.create_connection(handle.address, timeout=10)


def exchange(sock, head: bytes) -> tuple[int, dict, bytes]:
    """Send one request head, read one Content-Length response."""
    sock.sendall(head)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed before a response: {data!r}"
        data += chunk
    raw_head, _, body = data.partition(b"\r\n\r\n")
    lines = raw_head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    length = int(headers["content-length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk
        body += chunk
    assert len(body) == length, "more than one response arrived"
    return int(lines[0].split()[1]), headers, body


def closed_within(sock, seconds: float) -> bool:
    """True once the server has closed ``sock`` (EOF) within ``seconds``."""
    sock.settimeout(seconds)
    try:
        while sock.recv(65536):
            pass
    except socket.timeout:
        return False
    except ConnectionResetError:
        pass
    return True


def accepted(handle) -> int:
    return handle.gateway.gateway_stats()["connections"]


HEALTH = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


class TestConnections:
    """A connection carries requests until a rule closes it."""

    def test_several_requests_travel_over_one_connection(self):
        handle, _, _ = make_gateway(stream_ping=30.0)
        try:
            with connect(handle) as sock:
                body = b'{"app": "maxclique", "instance": "brock90-1"}'
                status, headers, _ = exchange(
                    sock, b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body
                )
                assert status in (200, 201)
                assert headers["connection"] == "keep-alive"
                for _ in range(3):
                    status, headers, _ = exchange(sock, HEALTH)
                    assert (status, headers["connection"]) == (200, "keep-alive")
                # A handler's 404 leaves the stream where it was.
                status, _, _ = exchange(sock, b"GET /nowhere HTTP/1.1\r\n\r\n")
                assert status == 404
                assert exchange(sock, HEALTH)[0] == 200
            assert accepted(handle) == 1
        finally:
            handle.close()

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ])
    def test_close_and_http10_end_the_connection(self, head):
        handle, _, _ = make_gateway(stream_ping=30.0)
        try:
            with connect(handle) as sock:
                status, headers, _ = exchange(sock, head)
                assert (status, headers["connection"]) == (200, "close")
                assert closed_within(sock, 5)
        finally:
            handle.close()

    def test_http10_keep_alive_is_honoured(self):
        handle, _, _ = make_gateway(stream_ping=30.0)
        try:
            with connect(handle) as sock:
                head = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                for _ in range(2):
                    status, headers, _ = exchange(sock, head)
                    assert (status, headers["connection"]) == (200, "keep-alive")
        finally:
            handle.close()

    def test_malformed_head_is_400_then_closed(self):
        handle, _, _ = make_gateway(stream_ping=30.0)
        try:
            with connect(handle) as sock:
                assert exchange(sock, HEALTH)[0] == 200
                status, headers, _ = exchange(sock, b"NONSENSE\r\n\r\n")
                assert (status, headers["connection"]) == (400, "close")
                assert closed_within(sock, 5)
        finally:
            handle.close()

    def test_events_stream_ends_its_connection(self):
        handle, client, _ = make_gateway(stream_ping=30.0)
        try:
            job = client.wait(client.submit(spec_json())["job"])["job"]
            with connect(handle) as sock:
                sock.sendall(b"GET /jobs/%s/events HTTP/1.1\r\n\r\n" % job.encode())
                data = b""
                sock.settimeout(5)
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert b"Connection: close" in data
            assert b'"event": "done"' in data
            assert data.endswith(b"0\r\n\r\n")
        finally:
            handle.close()

    def test_client_keeps_one_connection_per_thread(self):
        handle, client, _ = make_gateway(stream_ping=30.0)
        try:
            def calls():
                for _ in range(5):
                    client.health()
                    client.submit(spec_json())

            calls()
            assert accepted(handle) == 1
            threads = [threading.Thread(target=calls) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
            assert accepted(handle) == 3
            requests = sum(
                v for (name, _), v in client.metrics().items()
                if name == "repro_gateway_requests_total"
            )
            assert requests == 30
            assert client.metrics()[("repro_gateway_connections_total", ())] == 3
            client.close()
            client.health()  # a closed client opens a new connection
            assert accepted(handle) == 4
        finally:
            handle.close()

    def test_client_writes_a_submit_in_one_send(self, monkeypatch):
        """A POST's head and body leave in one write, not one each."""
        writes = []

        class CountedSocket:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data):
                writes.append(len(data))
                return self._sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        def counted(*args, **kwargs):
            return CountedSocket(socket.create_connection(*args, **kwargs))

        handle, client, _ = make_gateway(stream_ping=30.0)
        try:
            connect_counted = client._connect

            def wrapped(timeout):
                conn = connect_counted(timeout)
                conn._create_connection = counted
                return conn

            monkeypatch.setattr(client, "_connect", wrapped)
            client.health()
            assert len(writes) == 1
            for n in range(1, 4):
                client.submit(spec_json(INSTANCES[n]))
                assert len(writes) == 1 + n
            assert accepted(handle) == 1
        finally:
            handle.close()

    def test_client_resends_once_after_an_idle_close(self):
        handle, client, backends = make_gateway(n_shards=1, stream_ping=0.2)
        try:
            first = client.submit(spec_json())
            time.sleep(0.6)  # past the idle bound: the server closes
            again = client.submit(spec_json())
            assert again["key"] == first["key"]
            assert accepted(handle) == 2
            assert len(backends[0].executed) == 1
        finally:
            handle.close()

    def test_a_resent_submit_lands_on_the_first_job(self):
        class DropsFirstAnswer(Gateway):
            """Admits the first POST, then closes without answering."""

            dropped = False

            async def _respond(self, writer, request, status, body, **kw):
                if request is not None and request.method == "POST" and not self.dropped:
                    self.dropped = True
                    writer.close()
                    return
                await super()._respond(writer, request, status, body, **kw)

        handle, client, backends = make_gateway(
            n_shards=1, gateway_cls=DropsFirstAnswer, stream_ping=30.0
        )
        try:
            client.health()  # the submit reuses this connection
            record = client.submit(spec_json())
            assert handle.gateway.dropped
            assert accepted(handle) == 2
            client.wait(record["job"])
            metrics = client.metrics()
            assert metrics[("repro_jobs_submitted_total", (("shard", "0"),))] == 2
            assert metrics[("repro_jobs_executed_total", (("shard", "0"),))] == 1
            assert len(backends[0].executed) == 1
            # The first, unanswered submission made the job the resend found.
            assert record["job"] == "s0-j0002"
            assert client.job("s0-j0001")["key"] == record["key"]
        finally:
            handle.close()

    def test_a_fresh_connection_is_not_resent(self):
        handle, _, _ = make_gateway()
        host, port = handle.address
        handle.close()
        with pytest.raises(ConnectionError):
            GatewayClient(f"http://{host}:{port}", timeout=5).health()


class TestSlowClients:
    """Silent, stalled and garbage connections end at the idle bound
    while other clients' jobs go through."""

    def test_idle_half_head_and_garbage_are_closed(self):
        ping = 0.3
        handle, client, _ = make_gateway(stream_ping=ping)
        try:
            silent, half, garbage = (connect(handle) for _ in range(3))
            half.sendall(b"GET /healthz HTTP/1.1\r\nHost: slo")
            garbage.sendall(bytes(range(256)).replace(b"\n", b""))
            done = {}

            def jobs(idx):
                c = GatewayClient(handle.url, timeout=15.0)
                done[idx] = [
                    c.wait(c.submit(spec_json(name, submitter=f"c{idx}"))["job"])["state"]
                    for name in INSTANCES[idx::2]
                ]

            threads = [threading.Thread(target=jobs, args=(i,)) for i in range(2)]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for sock in (silent, half, garbage):
                assert closed_within(sock, ping + 2.0)
                sock.close()
            assert time.monotonic() - t0 < ping + 2.0
            for t in threads:
                t.join(timeout=15)
            assert done == {0: ["DONE"] * 4, 1: ["DONE"] * 4}

            # Every connection ends within the bound: no handler is left.
            deadline = time.monotonic() + ping + 2.0
            while handle.gateway._handlers:
                assert time.monotonic() < deadline, handle.gateway._handlers
                time.sleep(0.05)

            async def pending():
                return len(asyncio.all_tasks()) - 1  # less this one

            assert handle._loop.run(pending(), 5) == 0
        finally:
            handle.close()


class TestDrainKeptConnections:
    def test_stop_closes_idle_connections_at_once(self):
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, stream_ping=30.0
        )
        gate = backends[0]
        try:
            client.submit(spec_json())
            assert gate.started.wait(5)
            idle = connect(handle)
            assert exchange(idle, HEALTH)[0] == 200
            t = threading.Thread(target=handle.drain)
            t.start()
            # Closed while the in-flight job still holds the drain.
            assert closed_within(idle, 1.0)
            assert t.is_alive()
            # A request arriving during the drain is answered, and told
            # the connection ends with it.
            with connect(handle) as late:
                status, headers, body = exchange(late, HEALTH)
                assert (status, headers["connection"]) == (200, "close")
                assert b"draining" in body
                assert closed_within(late, 1.0)
            gate.release.set()
            t.join(timeout=15)
            assert not t.is_alive()
        finally:
            gate.release.set()
            handle.close()

    def test_stop_returns_once_every_connection_has_ended(self):
        handle, client, backends = make_gateway(
            n_shards=1, backend_cls=GatedBackend, stream_ping=30.0
        )
        gate = backends[0]
        gateway = handle.gateway

        async def stop():
            await gateway.stop()
            return len(gateway._handlers)

        try:
            client.submit(spec_json())
            assert gate.started.wait(5)
            left = []
            t = threading.Thread(target=lambda: left.append(handle._loop.run(stop(), 15)))
            t.start()
            time.sleep(0.2)
            silent = connect(handle)  # accepted mid-drain, sends nothing
            time.sleep(0.2)
            gate.release.set()
            t.join(timeout=15)
            assert left == [0]
            assert closed_within(silent, 1.0)
            silent.close()
        finally:
            gate.release.set()
            handle.close()

    def test_close_is_prompt_and_quiet_with_a_client_connection_open(
        self, caplog, capfd
    ):
        handle, client, _ = make_gateway(stream_ping=30.0)
        caplog.set_level(logging.DEBUG, logger="asyncio")
        client.wait(client.submit(spec_json())["job"])
        client.health()  # the kept connection is open and idle
        t0 = time.monotonic()
        handle.close()
        assert time.monotonic() - t0 < 1.0
        gc.collect()
        logged = caplog.text + capfd.readouterr().err
        for needle in ("CancelledError", "Task was destroyed", "Traceback"):
            assert needle not in logged, logged
        client.close()
