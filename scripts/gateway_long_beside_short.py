#!/usr/bin/env python
"""Gateway traffic with a long sequential job beside short ones.

The ledger's ``gateway-mix`` serves short jobs only.  This drives a
gateway (2 shards, in-process backend, as ``repro gateway`` starts it)
with two closed-loop clients sending ``gateway-mix``-style jobs (fresh
keys on the six Table 1 MaxClique instances, each with a timeout) while
a third sends ``tsp-rand-13`` jobs (about 1.5 s of sequential search)
back to back.  It prints one JSON line: the short jobs' rate, p50, p95
and terminal states, and the long jobs' count and mean latency.  A
short job that waits for a long one shows up as a TIMEOUT here.

    PYTHONPATH=src python scripts/gateway_long_beside_short.py [SECONDS] [TIMEOUT] [SEED]
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

from repro.gateway import Gateway, GatewayClient, GatewayHandle, ShardRouter

SIX = ("brock90-1", "brock90-2", "brock100-2", "brock110-1", "p_hat90-1", "san100-1")
LONG = {"app": "tsp", "instance": "tsp-rand-13", "skeleton": "sequential"}


def request(client: GatewayClient, spec: dict) -> tuple:
    """Submit, poll every 2 ms until terminal: (state, latency in ms)."""
    t0 = time.perf_counter()
    record = client.submit(spec)
    while True:
        status, body = client.result(record["job"])
        if status != 202:
            break
        time.sleep(0.002)
    state = "DONE" if status == 200 else body.get("state", f"HTTP {status}")
    return state, (time.perf_counter() - t0) * 1e3


def main(seconds: float = 20.0, short_timeout: float = 0.5, seed: int = 1) -> dict:
    keys = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))
    lock = threading.Lock()
    short, long_ = [], []
    handle = GatewayHandle(Gateway(ShardRouter(2)))
    handle.start()
    try:
        warm = GatewayClient(handle.url)
        for name in SIX:
            request(warm, {"app": "maxclique", "instance": name, "skeleton": "sequential"})
        stop_at = time.perf_counter() + seconds

        def loop(make_spec, out: list) -> None:
            client = GatewayClient(handle.url)
            while time.perf_counter() < stop_at:
                with lock:
                    spec = make_spec(next(keys))
                outcome = request(client, spec)
                with lock:
                    out.append(outcome)

        def short_spec(rng: random.Random):
            return lambda key: {
                "app": "maxclique", "instance": rng.choice(SIX), "skeleton": "sequential",
                "params": {"seed": key}, "timeout": short_timeout,
            }

        def long_spec(key: int) -> dict:
            return {**LONG, "params": {"seed": key}}

        threads = [
            threading.Thread(target=loop, args=(short_spec(random.Random(seed * 10 + i)), short))
            for i in range(2)
        ] + [threading.Thread(target=loop, args=(long_spec, long_))]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        handle.close()

    latencies = sorted(ms for _, ms in short)
    states: dict = {}
    for state, _ in short:
        states[state] = states.get(state, 0) + 1

    def quantile(q: float):
        return round(latencies[min(len(latencies) - 1, int(q * len(latencies)))], 1)

    return {
        "short_jobs": len(short), "short_per_s": round(len(short) / wall, 1),
        "short_p50_ms": quantile(0.5) if latencies else None,
        "short_p95_ms": quantile(0.95) if latencies else None,
        "short_states": states,
        "long_jobs": len(long_), "long_states": sorted({state for state, _ in long_}),
        "long_mean_ms": round(sum(ms for _, ms in long_) / max(1, len(long_)), 1),
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    print(json.dumps(main(
        float(args[0]) if args else 20.0,
        float(args[1]) if len(args) > 1 else 0.5,
        int(args[2]) if len(args) > 2 else 1,
    )))
