"""Per-layer micro-benches: each drives one layer alone, from outside.

Run only in the traced run.  Every function times calls into a public
function of one module on inputs taken from the workload's real
instance (sampled nodes, real frames, real job specs) and returns raw
seconds; ``runner`` scales them to the declared units.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import statistics
import threading
import time
from typing import Callable

from repro.cluster import protocol as P
from repro.cluster.codec import BINARY_CODEC, decode_body
from repro.cluster.coordinator import ClusterHandle
from repro.cluster.local import job_payload
from repro.core.ordered import ordered_frontier, run_task_fixed_bound
from repro.core.sequential import sequential_search_stepped
from repro.core.tasks import split_lowest_inlined
from repro.gateway import GatewayClient, ShardRouter
from repro.gateway.http import read_request, response_bytes
from repro.runtime.processes import make_stype, multiprocessing_budget_search
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.verify.generators import instance_spec

from .gatewayload import HOT_JOB, direct_search, job_dict
from .spec import TABLE1_SIX, WORKERS

ONE_NODE_TREE = ("uts", (4, 0, 1))  # max_depth 0: the root and nothing else
TERMINAL_EVENTS = ("done", "failed", "cancelled", "timeout")


def per_call(fn: Callable[[], object], target_s: float, batches: int = 5) -> float:
    """Median seconds per call over ``batches`` batches sized to fill
    ``target_s`` in total."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(target_s / batches / once))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def median_of(fn: Callable[[], float], reps: int) -> float:
    return statistics.median(fn() for _ in range(reps))


# -- node samples --------------------------------------------------------------


def sample_nodes(spec, stype, limit: int) -> tuple:
    """The first ``limit`` nodes a sequential search expands, and the
    nodes it visits on the way — the hot loop of ``sequential_search``
    replayed with the nodes kept.  Returns ``(expanded, visited)`` as
    lists of ``(node, depth)``."""
    knowledge, _ = stype.process(spec, spec.root, stype.initial_knowledge(spec))
    expanded = [(spec.root, 0)]
    visited = [(spec.root, 0)]
    stack = [spec.generator(spec.space, spec.root)]
    while stack and len(expanded) < limit:
        gen = stack[-1]
        if gen.has_next():
            child = gen.next()
            visited.append((child, len(stack)))
            knowledge, _ = stype.process(spec, child, knowledge)
            if not stype.should_prune(spec, child, knowledge):
                expanded.append((child, len(stack)))
                stack.append(spec.generator(spec.space, child))
        else:
            stack.pop()
    return expanded, visited


def generator_s_per_child(spec, expanded: list) -> float:
    """Build and drain ``spec.generator`` over the sample."""
    generator, space = spec.generator, spec.space

    def drain() -> float:
        children = 0
        t0 = time.perf_counter()
        for node, _ in expanded:
            gen = generator(space, node)
            while gen.has_next():
                gen.next()
                children += 1
        return (time.perf_counter() - t0) / max(1, children)

    return median_of(drain, 3)


def bound_s_per_call(spec, visited: list) -> float:
    bound, space = spec.upper_bound, spec.space

    def sweep() -> float:
        t0 = time.perf_counter()
        for node, _ in visited:
            bound(space, node)
        return (time.perf_counter() - t0) / len(visited)

    return median_of(sweep, 3)


def process_s_per_call(spec, stype, visited: list) -> float:
    process = stype.process
    knowledge = stype.initial_knowledge(spec)

    def sweep() -> float:
        know = knowledge
        t0 = time.perf_counter()
        for node, _ in visited:
            know, _ = process(spec, node, know)
        return (time.perf_counter() - t0) / len(visited)

    return median_of(sweep, 3)


def handwritten_s_per_node(target) -> float:
    def once() -> float:
        t0 = time.perf_counter()
        _, nodes = target.handwritten()
        return (time.perf_counter() - t0) / nodes

    return median_of(once, 3)


# -- repro.core ----------------------------------------------------------------


def split_s(spec, reps: int) -> float:
    """``split_lowest_inlined`` on a live generator stack: descend the
    first-child path as the hot loop would, then split it."""
    generator, space = spec.generator, spec.space

    def once() -> float:
        stack = [generator(space, spec.root)]
        while len(stack) < 8 and stack[-1].has_next():
            stack.append(generator(space, stack[-1].next()))
        t0 = time.perf_counter()
        split_lowest_inlined(stack)
        return time.perf_counter() - t0

    return median_of(once, reps)


def stepped_s_per_node(sibling_spec, stype) -> float:
    t0 = time.perf_counter()
    result = sequential_search_stepped(sibling_spec, stype)
    return (time.perf_counter() - t0) / result.metrics.nodes


def fixed_bound_s_per_node(sibling_spec, stype) -> float:
    t0 = time.perf_counter()
    payload = run_task_fixed_bound(sibling_spec, stype, sibling_spec.root, 0)
    return (time.perf_counter() - t0) / payload["nodes"]


def frontier(spec, stype, d_cutoff: int) -> tuple:
    """``ordered_frontier`` seconds and the number of tasks it numbers."""
    t0 = time.perf_counter()
    out = ordered_frontier(spec, stype, d_cutoff=d_cutoff)
    return time.perf_counter() - t0, len(out.tasks)


# -- repro.runtime.processes ---------------------------------------------------


def spawn_s(reps: int) -> float:
    """A process-backend search of a 1-node tree: fork, queues, join."""

    def once() -> float:
        t0 = time.perf_counter()
        multiprocessing_budget_search(
            instance_spec, ONE_NODE_TREE, make_stype, ("enumeration", {}),
            n_processes=WORKERS,
        )
        return time.perf_counter() - t0

    return median_of(once, reps)


def task_pickle(visited: list, target_s: float) -> tuple:
    """Pickle round trip of the queue's ``(node, depth)`` payloads."""
    payloads = visited[:256]
    blobs = [pickle.dumps(p) for p in payloads]

    def round_trip() -> None:
        for p in payloads:
            pickle.loads(pickle.dumps(p))

    seconds = per_call(round_trip, target_s) / len(payloads)
    return seconds, statistics.mean(len(b) for b in blobs)


# -- repro.cluster -------------------------------------------------------------


def job_floor_s(fleet, reps: int) -> float:
    """``run_job`` of a 1-node tree on the warm fleet."""
    payload = job_payload(
        instance_spec, ONE_NODE_TREE, make_stype("enumeration", {}), coordination="budget"
    )

    def once() -> float:
        t0 = time.perf_counter()
        fleet.run_job(payload, timeout=30.0)
        return time.perf_counter() - t0

    return median_of(once, reps)


def lease_rtt_s(target, leases: int) -> float:
    """RESULT sent -> next TASK received, p50, seen by a protocol-level
    stub worker on loopback against a coordinator of its own.

    The stub takes the root lease of a budget enumeration job, hands
    ``leases`` copies of the root back in one OFFCUT, then answers every
    lease with an immediate one-node RESULT: no search, so what is left
    is codec + socket + the coordinator's lease/pump path.
    """
    handle = ClusterHandle(wire_codec="binary")
    host, port = handle.start()
    sock = socket.create_connection((host, port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(P.frame_bytes({
            "type": P.HELLO, "version": P.PROTOCOL_VERSION, "name": "ledger-stub",
            "slots": 1, "codecs": P.offered_codecs("binary"),
        }))
        codec = P.get_codec(P.read_frame(sock).get("codec") or "json")
        future = handle.run_job_future(
            job_payload(
                target.factory, target.factory_args, make_stype("enumeration", {}),
                coordination="budget",
            ),
            timeout=60.0,
        )
        rtts = []
        sent_at = None
        job_id = None
        while True:
            msg = P.read_frame(sock)
            if msg is None or msg["type"] == P.JOB_DONE:
                break
            if msg["type"] == P.JOB:
                job_id = msg["job"]
            if msg["type"] != P.TASK:
                continue
            now = time.perf_counter()
            task_id, epoch, node = msg["leases"][0][:3]
            out = b""
            if sent_at is None:
                out = P.frame_bytes({
                    "type": P.OFFCUT, "job": job_id, "task": task_id, "epoch": epoch,
                    "depth": 1, "nodes": [node] * leases,
                }, codec)
            else:
                rtts.append(now - sent_at)
            out += P.frame_bytes({
                "type": P.RESULT, "job": job_id, "task": task_id, "epoch": epoch,
                "nodes": 1, "prunes": 0, "backtracks": 0, "max_depth": 0,
                "goal": False, "knowledge": 1,
            }, codec)
            sent_at = time.perf_counter()
            sock.sendall(out)
        counted = future.result(timeout=60.0).value
        if counted != leases + 1:
            raise RuntimeError(f"stub job counted {counted}, expected {leases + 1}")
        sock.sendall(P.frame_bytes({"type": P.BYE}, codec))
        return statistics.median(rtts)
    finally:
        sock.close()
        handle.shutdown(drain_workers=False)


def frame_rtt_s(target_s: float) -> float:
    """``frame_bytes`` + ``read_frame`` of a RESULT over a socketpair."""
    a, b = socket.socketpair()
    msg = _result_frame()
    try:
        def once() -> None:
            a.sendall(P.frame_bytes(msg, BINARY_CODEC))
            P.read_frame(b)

        return per_call(once, target_s)
    finally:
        a.close()
        b.close()


def _result_frame() -> dict:
    return {
        "type": P.RESULT, "job": 3, "task": 104, "epoch": 0, "nodes": 15321,
        "prunes": 204, "backtracks": 9531, "max_depth": 23, "goal": False,
        "knowledge": 88421,
    }


def codec_frames(spec, expanded: list) -> dict:
    """Builders of the four hot frames from the workload's real nodes.
    Each returns the message dict; node fields go through
    ``encode_node`` inside the builder, as they do in the worker."""
    (n1, d1), (n2, d2) = expanded[len(expanded) // 2], expanded[-1]
    gen = spec.generator(spec.space, expanded[0][0])
    children = []
    while gen.has_next():
        children.append(gen.next())
    return {
        "task": lambda: {
            "type": P.TASK, "job": 3,
            "leases": [[101, 0, P.encode_node(n1), d1], [102, 0, P.encode_node(n2), d2]],
        },
        "offcut": lambda: {
            "type": P.OFFCUT, "job": 3, "task": 101, "epoch": 0, "depth": 1,
            "nodes": [P.encode_node(c) for c in children],
        },
        "result": _result_frame,
        "incumbent": lambda: {
            "type": P.INCUMBENT, "job": 3, "value": 17, "node": P.encode_node(n2),
        },
    }


def _decode_nodes(msg: dict) -> None:
    """The ``decode_node`` calls the receiver of ``msg`` makes."""
    nodes = [lease[2] for lease in msg.get("leases", ())]
    if msg["type"] == P.OFFCUT:  # a RESULT's "nodes" is a counter
        nodes += msg["nodes"]
    if "node" in msg:
        nodes.append(msg["node"])
    for node in nodes:
        P.decode_node(node)


def codec_costs(build: Callable[[], dict], target_s: float) -> tuple:
    """``(encode s, decode s, body bytes)`` of one frame on the binary
    codec, node transport included on both sides."""
    body = BINARY_CODEC.encode(build())
    encode = per_call(lambda: BINARY_CODEC.encode(build()), target_s)
    decode = per_call(lambda: _decode_nodes(decode_body(body)), target_s)
    return encode, decode, len(body)


# -- repro.service -------------------------------------------------------------


def service_costs(target_s: float, reps: int) -> dict:
    """Seconds per operation of the service layer, no HTTP anywhere."""
    hot = dict(HOT_JOB)
    out = {"key": per_call(lambda: JobSpec.from_dict(hot).key, target_s)}

    cache = ResultCache(256)
    result = direct_search(TABLE1_SIX[0])
    keys = [JobSpec.from_dict(job_dict(TABLE1_SIX[0], i)).key for i in range(1, 257)]
    for key in keys:
        cache.put(key, result)
    out["cache_hit"] = per_call(lambda: cache.get(keys[128]), target_s)

    queue = JobQueue()
    job = Job(JobSpec.from_dict(hot), id="ledger-j1")

    def push_pop() -> None:
        queue.push(job)
        queue.pop()

    out["push_pop"] = per_call(push_pop, target_s)

    done = threading.Event()

    def on_event(job, event, data) -> None:
        if event in TERMINAL_EVENTS:
            done.set()

    scheduler = Scheduler(n_workers=2, on_event=on_event)
    scheduler.start()
    try:
        def roundtrip(spec: dict) -> float:
            done.clear()
            t0 = time.perf_counter()
            job = scheduler.submit(JobSpec.from_dict(spec))
            if not job.terminal:
                done.wait(timeout=30.0)
            return time.perf_counter() - t0

        out["roundtrip"] = statistics.median(
            roundtrip(job_dict(TABLE1_SIX[0], 10_000 + i)) for i in range(reps)
        )
        roundtrip(hot)  # fills the cache
        out["cached_roundtrip"] = statistics.median(roundtrip(hot) for _ in range(reps))
    finally:
        scheduler.stop()
    return out


# -- repro.gateway -------------------------------------------------------------


def http_costs(target_s: float) -> dict:
    body = b'{"app": "maxclique", "instance": "brock90-1", "params": {"seed": 12345}}'
    canned = (
        b"POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nAccept-Encoding: identity\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body)
    ) + body

    async def parse_many(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            reader = asyncio.StreamReader()
            reader.feed_data(canned)
            reader.feed_eof()
            await read_request(reader)
        return (time.perf_counter() - t0) / n

    n = max(10, int(target_s / 30e-6))
    record = {"job": "s0-j0042", "shard": 0, "key": "ab" * 32, "state": "DONE",
              "from_cache": False, "attempts": 1, "value": 14, "latency": 0.0123}
    router = ShardRouter(2)
    spec = JobSpec.from_dict(job_dict(TABLE1_SIX[0], 777))
    return {
        "parse": statistics.median(asyncio.run(parse_many(n)) for _ in range(3)),
        "response": per_call(lambda: response_bytes(201, record), target_s),
        "route": per_call(lambda: router.route(spec), target_s),
    }


def healthz_rtt_s(url: str, reps: int) -> float:
    client = GatewayClient(url)

    def once() -> float:
        t0 = time.perf_counter()
        client.health()
        return time.perf_counter() - t0

    return median_of(once, reps)


def direct_search_s() -> dict:
    """Search-only seconds per Table 1 instance (median of 3)."""
    def once(name: str) -> float:
        t0 = time.perf_counter()
        direct_search(name)
        return time.perf_counter() - t0

    return {name: statistics.median(once(name) for _ in range(3)) for name in TABLE1_SIX}
