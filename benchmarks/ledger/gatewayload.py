"""The closed-loop gateway load: 2 clients, submit -> poll result.

A *closed* loop: each of the two client threads sends its next request
only after the previous one completed, one connection at a time (the
gateway serves one request per connection), so a slower gateway
receives less load and ``jobs_per_s`` is the rate two waiting callers
actually get.  Each request is ``POST /jobs`` then ``GET
/jobs/{id}/result`` every 2 ms until it stops answering 202.

The loop runs in *segments* of a second or two, interleaved with the
search passes, each between two calibration readings: a segment's rate
and latencies are normalised by the machine's speed while it ran, and
the end-to-end metrics are medians over segments.

The mix, drawn from the run's seed: 25 % of requests repeat one hot key
(served from the shard's result cache or coalesced on its in-flight
twin), 75 % carry a fresh ``params.seed`` on one of the six Table 1
instances — a distinct content hash, so a real search and a cache
write.  Every result is checked against a direct
``run_library_search`` of the same job.
"""

from __future__ import annotations

import threading
import time

from repro.gateway import Gateway, GatewayClient, GatewayHandle, ShardRouter
from repro.runtime.processes import run_library_search
from repro.service.jobs import JobSpec
from repro.util.rng import SplitMix64

from .calibration import Clock
from .spec import CLIENTS, HOT_FRACTION, TABLE1_SIX
from .tracing import Recorder

POLL_INTERVAL_S = 0.002
JOB_TIMEOUT_S = 30.0
SHARDS = 2


def job_dict(instance: str, fresh: int = 0) -> dict:
    """The JobSpec dict of one request; ``fresh`` > 0 makes the key new."""
    spec = {"app": "maxclique", "instance": instance, "skeleton": "sequential"}
    if fresh:
        spec["params"] = {"seed": fresh}
    return spec


HOT_JOB = job_dict(TABLE1_SIX[0])


def direct_search(instance: str):
    """The oracle (and the search-only cost) of one gateway job."""
    return run_library_search(**JobSpec.from_dict(job_dict(instance)).run_payload())


class GatewayLoad:
    """Owns the gateway under test and drives the closed loop."""

    def __init__(self, gateway_seed: int, recorder: Recorder, clock: Clock) -> None:
        self.recorder = recorder
        self.clock = clock
        # One job stream per client, continued from segment to segment.
        self._streams = [SplitMix64(gateway_seed + index) for index in range(CLIENTS)]
        # params.seed does not reach a sequential search, so one direct
        # run per instance is the reference for every job on it.
        self.references = {}
        for name in TABLE1_SIX:
            result = direct_search(name)
            self.references[name] = (result.value, result.metrics.nodes)
        self.handle = None
        self.segments: list[dict] = []
        self._fresh = 0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the gateway (CLI defaults: 2 shards, in-process
        backend) and warm it: one job per instance, then the hot key."""
        self.handle = GatewayHandle(Gateway(ShardRouter(SHARDS)))
        self.handle.start()
        client = GatewayClient(self.handle.url)
        for name in TABLE1_SIX:
            self._request(client, name, hot=False)
        self._request(client, TABLE1_SIX[0], hot=True)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    # -- one request ---------------------------------------------------------

    def _next_fresh(self) -> int:
        with self._lock:
            self._fresh += 1
            return self._fresh

    def _request(self, client: GatewayClient, instance: str, hot: bool) -> dict:
        """submit -> poll until terminal; never raises."""
        spec = HOT_JOB if hot else job_dict(instance, self._next_fresh())
        sample = {"instance": instance, "hot": hot, "traced": self.recorder.enabled,
                  "polls": 0, "error": None}
        with self.recorder.span("request"):
            t0 = time.perf_counter()
            sample["t0"] = t0
            try:
                with self.recorder.span("submit"):
                    record = client.submit(spec)
                sample["submit_s"] = time.perf_counter() - t0
                sample["from_cache"] = bool(record.get("from_cache"))
                with self.recorder.span("poll"):
                    while True:
                        status, body = client.result(record["job"])
                        sample["polls"] += 1
                        if status != 202:
                            break
                        if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                            raise TimeoutError(f"job {record['job']} still running")
                        time.sleep(POLL_INTERVAL_S)
                if status != 200:
                    sample["error"] = f"HTTP {status}: {body.get('error', body.get('state'))}"
                else:
                    got = (body["result"]["value"], body["result"]["metrics"]["nodes"])
                    if got != self.references[instance]:
                        sample["error"] = (
                            f"(value, nodes)={got}, direct search {self.references[instance]}"
                        )
            except Exception as exc:  # refused, non-2xx, timeout: a failed job
                sample["error"] = f"{type(exc).__name__}: {exc}"
            sample["t1"] = time.perf_counter()
        return sample

    # -- the loop ------------------------------------------------------------

    def run_segment(self, seconds: float) -> None:
        """Drive the closed loop for ``seconds`` (requests in flight at
        the deadline complete) between two calibration readings."""
        url = self.handle.url
        samples: list[dict] = []

        def client_loop(rng: SplitMix64, deadline: float) -> None:
            client = GatewayClient(url)
            while time.perf_counter() < deadline:
                hot = rng.random() < HOT_FRACTION
                instance = TABLE1_SIX[0] if hot else rng.choice(TABLE1_SIX)
                sample = self._request(client, instance, hot)
                with self._lock:
                    samples.append(sample)

        with self.clock.around("pair") as timed:
            threads = [
                threading.Thread(target=client_loop, args=(rng, timed.start + seconds))
                for rng in self._streams
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        self.segments.append(
            {"timed": timed, "traced": self.recorder.enabled, "samples": samples}
        )

    def normalise(self) -> None:
        """Once the run's calibration readings are all in: every
        segment gets its speed and every sample its normalised latency."""
        for segment in self.segments:
            timed = segment.pop("timed")
            speed = self.clock.speed(timed)
            segment.update(start=timed.start, seconds=timed.seconds, speed=speed)
            for sample in segment["samples"]:
                sample["latency_ms"] = (sample["t1"] - sample["t0"]) * 1e3 / speed

    @property
    def samples(self) -> list:
        return [s for segment in self.segments for s in segment["samples"]]

    def scrape(self) -> dict:
        """Counters from ``/metrics`` (summed over shards)."""
        parsed = GatewayClient(self.handle.url).metrics()

        def total(name: str, **want) -> float:
            return sum(
                v for (n, labels), v in parsed.items()
                if n == name and all(dict(labels).get(k) == w for k, w in want.items())
            )

        return {
            "executed": total("repro_jobs_executed_total"),
            "cache_hits": total("repro_cache_hits_total"),
            "cache_misses": total("repro_cache_misses_total"),
            "rejected_429": total("repro_gateway_requests_total", code="429"),
        }
