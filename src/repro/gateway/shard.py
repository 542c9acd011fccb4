"""Sharded coordinators behind one front door.

One scheduler/coordinator pair runs one job at a time well; production
traffic wants N of them.  :class:`ShardRouter` owns N independent
shards — each a full :class:`~repro.service.scheduler.Scheduler` with
its own bounded queue, result cache, metrics and execution backend —
and routes every submission by its **content-addressed job hash**:

    shard(spec) = int(spec.key[:16], 16) % n_shards

The routing rule is the deduplication story at scale: two clients
submitting the identical search always land on the *same* shard, so
they hit that shard's result cache or coalesce onto its in-flight twin
(one execution, two results), while *independent* jobs scatter across
shards and run concurrently.  The hash is deterministic across
processes and restarts, so a load balancer in front of several gateways
could apply the same rule.

Job ids are globally unique: shard ``i`` issues ``s{i}-j{seq}``, and the
router parses the prefix back out on lookup, so ``GET /jobs/{id}`` needs
no global registry.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional

from repro.gateway.events import EventBroker
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.scheduler import RETAINED_JOBS, Backend, Scheduler

__all__ = ["Shard", "ShardRouter", "shard_of_key"]


def shard_of_key(key: str, n_shards: int) -> int:
    """The deterministic shard index for a canonical job hash."""
    return int(key[:16], 16) % n_shards


class Shard:
    """One scheduler shard: queue + cache + metrics + backend + workers."""

    def __init__(
        self,
        index: int,
        *,
        backend: Optional[Backend],
        broker: Optional[EventBroker],
        pool: int,
        queue_depth: int,
        per_submitter: Optional[int],
        cache_size: int,
        cache_ttl: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.index = index
        self.backend = backend
        self.broker = broker
        on_event = None
        if broker is not None:
            def on_event(job: Job, event: str, data: dict) -> None:
                broker.publish(job.id, event, shard=index, **data)
        self.scheduler = Scheduler(
            backend=backend,
            queue=JobQueue(max_depth=queue_depth, max_per_submitter=per_submitter),
            cache=ResultCache(capacity=cache_size, ttl=cache_ttl),
            n_workers=pool,
            metrics=ServiceMetrics(),
            clock=clock,
            name=f"s{index}-",
            on_event=on_event,
        )

    def snapshot(self) -> MetricsSnapshot:
        """This shard's consistent service-metrics snapshot."""
        return self.scheduler.metrics_snapshot()

    def load_stats(self) -> Optional[dict]:
        """The backend's coordinator load snapshot, if it has one."""
        loader = getattr(self.backend, "load_stats", None)
        if loader is None:
            return None
        try:
            return loader()
        except Exception:
            return None  # a mid-teardown coordinator is not a scrape error

    def close(self) -> None:
        """Stop workers and close the backend (idempotent)."""
        self.scheduler.stop()
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()


class ShardRouter:
    """Route submissions across N scheduler shards by job hash.

    Args:
        n_shards: shard count (the modulus of the routing rule).
        backend_factory: called with each shard index to build that
            shard's execution backend; None gives every shard the
            default in-process backend.  Per-shard backends are what
            isolate cluster coordinators from one another.
        pool: scheduler worker threads per shard.
        queue_depth / per_submitter: per-shard admission bounds.
        cache_size / cache_ttl: per-shard result cache shape.
        broker: the event hub status streams subscribe to; None keeps
            as many job logs as the shards keep job records.
        clock: scheduler time source (injectable in tests).
    """

    def __init__(
        self,
        n_shards: int = 1,
        *,
        backend_factory: Optional[Callable[[int], Optional[Backend]]] = None,
        pool: int = 2,
        queue_depth: int = 256,
        per_submitter: Optional[int] = None,
        cache_size: int = 256,
        cache_ttl: Optional[float] = None,
        broker: Optional[EventBroker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.broker = (
            broker if broker is not None
            else EventBroker(max_jobs=n_shards * RETAINED_JOBS)
        )
        self.shards = [
            Shard(
                i,
                backend=backend_factory(i) if backend_factory else None,
                broker=self.broker,
                pool=pool,
                queue_depth=queue_depth,
                per_submitter=per_submitter,
                cache_size=cache_size,
                cache_ttl=cache_ttl,
                clock=clock,
            )
            for i in range(n_shards)
        ]
        self._started = False

    @property
    def n_shards(self) -> int:
        """How many shards are behind this router."""
        return len(self.shards)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every shard's long-lived worker pool."""
        for shard in self.shards:
            shard.scheduler.start()
        self._started = True

    def close(self) -> None:
        """Drain in-flight jobs, cancel queued ones, stop every shard."""
        for shard in self.shards:
            shard.close()
        self._started = False

    # -- routing -------------------------------------------------------------

    def route(self, spec: JobSpec) -> int:
        """The shard index this spec's hash routes to."""
        return shard_of_key(spec.key, len(self.shards))

    def submit(self, spec: JobSpec) -> tuple[int, Job]:
        """Admit one job on its hash-routed shard."""
        index = self.route(spec)
        return index, self.shards[index].scheduler.submit(spec)

    def job(self, job_id: str) -> tuple[int, Job]:
        """Look up ``(shard_index, job)`` by global id; raises KeyError."""
        if not job_id.startswith("s") or "-" not in job_id:
            raise KeyError(job_id)
        prefix = job_id.split("-", 1)[0][1:]
        if not prefix.isdigit():
            raise KeyError(job_id)
        index = int(prefix)
        if index >= len(self.shards):
            raise KeyError(job_id)
        return index, self.shards[index].scheduler.job(job_id)

    # -- reporting -----------------------------------------------------------

    def snapshots(self) -> Mapping[str, MetricsSnapshot]:
        """Shard label -> consistent metrics snapshot, for ``/metrics``."""
        return {str(s.index): s.snapshot() for s in self.shards}

    def load_stats(self) -> Mapping[str, dict]:
        """Shard label -> coordinator load stats (cluster shards only)."""
        out = {}
        for shard in self.shards:
            stats = shard.load_stats()
            if stats is not None:
                out[str(shard.index)] = stats
        return out

    def in_flight(self) -> int:
        """Jobs currently queued or running across all shards."""
        total = 0
        for shard in self.shards:
            snap = shard.snapshot()
            total += snap.queue_depth + snap.running
        return total
