"""Service-level metrics: what the search service is doing, summarised.

The simulator's :mod:`repro.runtime.trace` answers "what did workers do
during one search"; this module answers the operator's question — "how
is the *service* doing across many searches": queue depth, cache hit
rate, job latency percentiles, terminal-state counts.  Percentiles come
from :func:`repro.util.stats.percentile`, the same helper the paper
harnesses use, so one definition of p95 exists in the repo.

:class:`ServiceMetrics` is the live, thread-safe accumulator the
scheduler writes into; :meth:`ServiceMetrics.snapshot` freezes it into
an immutable :class:`MetricsSnapshot` for reporting.  Latency
percentiles cover the last :data:`~repro.service.jobs.RETAINED_JOBS`
finished jobs; every other figure covers the life of the process.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.service.jobs import RETAINED_JOBS, Job
from repro.util.stats import percentile

__all__ = ["ServiceMetrics", "MetricsSnapshot"]


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time view of the service."""

    queue_depth: int
    running: int
    submitted: int
    rejected: int
    coalesced: int
    retries: int
    executed: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: Optional[float]
    jobs_by_state: dict  # terminal state name -> count
    completed: int  # jobs in any terminal state
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    # Dynamic-scheduling visibility (jobs that actually executed a
    # search, i.e. not served from cache): how many ran on >1 worker,
    # the mean worker count, and the total subtree splits/spawns their
    # coordinations performed.  Defaulted so older call sites and
    # serialised snapshots stay valid.
    parallel_jobs: int = 0
    avg_workers: Optional[float] = None
    total_splits: int = 0
    # Elastic-fleet visibility (populated when the service runs over a
    # repro.deploy.ClusterDeployment): lifetime spawn/retire counts and
    # the live/peak fleet size.  Defaulted like the block above.
    workers_spawned: int = 0
    workers_retired: int = 0
    fleet_size: int = 0
    fleet_peak: int = 0

    @classmethod
    def of(cls, counters: dict) -> "MetricsSnapshot":
        """Freeze :meth:`ServiceMetrics.counters`: the percentiles sort
        the latency window here, so a caller copies the counters under
        its lock and calls this after releasing it."""
        latencies = counters.pop("latencies")
        jobs, workers = counters.pop("worker_jobs"), counters.pop("worker_sum")
        hits, misses = counters["cache_hits"], counters["cache_misses"]
        return cls(
            **counters,
            cache_hit_rate=hits / (hits + misses) if (hits + misses) else None,
            completed=sum(counters["jobs_by_state"].values()),
            latency_p50=percentile(latencies, 50) if latencies else None,
            latency_p95=percentile(latencies, 95) if latencies else None,
            avg_workers=workers / jobs if jobs else None,
        )

    def to_dict(self) -> dict:
        """Plain-dict (JSON-ready) form of the snapshot."""
        return {
            "queue_depth": self.queue_depth,
            "running": self.running,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "jobs_by_state": dict(self.jobs_by_state),
            "completed": self.completed,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "parallel_jobs": self.parallel_jobs,
            "avg_workers": self.avg_workers,
            "total_splits": self.total_splits,
            "workers_spawned": self.workers_spawned,
            "workers_retired": self.workers_retired,
            "fleet_size": self.fleet_size,
            "fleet_peak": self.fleet_peak,
        }

    def render(self) -> str:
        """A terminal-readable block (the `repro serve` footer)."""
        hit_rate = (
            f"{self.cache_hit_rate:.0%}" if self.cache_hit_rate is not None else "n/a"
        )
        p50 = f"{self.latency_p50:.3f}s" if self.latency_p50 is not None else "n/a"
        p95 = f"{self.latency_p95:.3f}s" if self.latency_p95 is not None else "n/a"
        by_state = (
            "  ".join(f"{k}={v}" for k, v in sorted(self.jobs_by_state.items()))
            or "(none)"
        )
        avg_workers = (
            f"{self.avg_workers:.1f}" if self.avg_workers is not None else "n/a"
        )
        return "\n".join(
            [
                "service metrics:",
                f"  submitted: {self.submitted}  rejected: {self.rejected}  "
                f"coalesced: {self.coalesced}  retries: {self.retries}",
                f"  queue depth: {self.queue_depth}  running: {self.running}",
                f"  cache: {self.cache_hits} hits / {self.cache_misses} misses "
                f"(hit rate {hit_rate})",
                f"  latency: p50 {p50}  p95 {p95}  over {self.completed} jobs",
                f"  parallelism: {self.parallel_jobs} multi-worker jobs  "
                f"avg workers {avg_workers}  splits {self.total_splits}",
            ]
            # The fleet line only exists for elastic deployments; a
            # fixed-backend footer stays byte-identical to before.
            + (
                [
                    f"  fleet: {self.fleet_size} live (peak {self.fleet_peak})  "
                    f"spawned {self.workers_spawned}  "
                    f"retired {self.workers_retired}"
                ]
                if self.workers_spawned or self.fleet_peak
                else []
            )
            + [f"  terminal states: {by_state}"]
        )


class ServiceMetrics:
    """Thread-safe accumulator the scheduler reports into."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.coalesced = 0  # guarded-by: _lock
        self.retries = 0  # guarded-by: _lock
        self.executed = 0  # guarded-by: _lock
        self._by_state: dict[str, int] = {}  # guarded-by: _lock
        self._latencies: deque[float] = deque(maxlen=RETAINED_JOBS)  # guarded-by: _lock
        # Jobs that ran a search: how many, their workers summed, and how
        # many ran on more than one.
        self._worker_jobs = 0  # guarded-by: _lock
        self._worker_sum = 0  # guarded-by: _lock
        self._parallel_jobs = 0  # guarded-by: _lock
        self._total_splits = 0  # guarded-by: _lock
        self._workers_spawned = 0  # guarded-by: _lock
        self._workers_retired = 0  # guarded-by: _lock
        self._fleet_size = 0  # guarded-by: _lock
        self._fleet_peak = 0  # guarded-by: _lock

    # -- recording -----------------------------------------------------------

    def job_submitted(self) -> None:
        """Count a submission that was accepted into the service."""
        with self._lock:
            self.submitted += 1

    def job_rejected(self) -> None:
        """Count a submission turned away by admission control."""
        with self._lock:
            self.rejected += 1

    def job_coalesced(self) -> None:
        """Count a duplicate submission attached to an in-flight twin."""
        with self._lock:
            self.coalesced += 1

    def job_retried(self) -> None:
        """Count a retry dispatched after a worker crash."""
        with self._lock:
            self.retries += 1

    def job_executed(self) -> None:
        """Count a job actually handed to a backend (cache hits, rejects
        and coalesced followers never reach this) — the counter that
        proves deduplication: N identical submissions, one execution."""
        with self._lock:
            self.executed += 1

    def job_finished(self, job: Job) -> None:
        """Record a job reaching a terminal state (latency + state count).

        Jobs that actually executed a search (result present, not served
        from cache) additionally contribute their worker count and their
        coordination's subtree-split count — the operator-level view of
        how much dynamic scheduling the service is doing.
        """
        with self._lock:
            state = job.state.value
            self._by_state[state] = self._by_state.get(state, 0) + 1
            lat = job.latency()
            if lat is not None:
                self._latencies.append(lat)
            result = job.result
            if result is not None and not job.from_cache:
                if result.workers is not None:
                    self._worker_jobs += 1
                    self._worker_sum += result.workers
                    self._parallel_jobs += result.workers > 1
                if result.metrics is not None:
                    self._total_splits += result.metrics.spawns

    def worker_spawned(self) -> None:
        """Count an elastic deployment adding a fleet worker."""
        with self._lock:
            self._workers_spawned += 1

    def worker_retired(self) -> None:
        """Count an elastic deployment draining a fleet worker out."""
        with self._lock:
            self._workers_retired += 1

    def set_fleet_size(self, n: int) -> None:
        """Record the current live fleet size (tracks the peak too)."""
        with self._lock:
            self._fleet_size = max(0, int(n))
            self._fleet_peak = max(self._fleet_peak, self._fleet_size)

    # -- reporting -----------------------------------------------------------

    def snapshot(
        self, *, queue_depth: int = 0, running: int = 0, cache=None
    ) -> MetricsSnapshot:
        """Freeze the current counters into a :class:`MetricsSnapshot`."""
        return MetricsSnapshot.of(
            self.counters(queue_depth=queue_depth, running=running, cache=cache)
        )

    def counters(self, *, queue_depth: int = 0, running: int = 0, cache=None) -> dict:
        """Every counter, copied in one critical section, for
        :meth:`MetricsSnapshot.of`; it sorts nothing.

        ``cache`` is a :class:`repro.service.cache.ResultCache` (or
        anything with ``hits``/``misses`` counters); omitted, the cache
        columns read zero.  The hit rate is later derived from the same
        ``hits``/``misses`` pair that is reported — not re-read via
        ``cache.hit_rate()``, which could observe newer counters than
        the ones already copied and publish a rate that disagrees with
        them (visible to a concurrent ``/metrics`` scrape).
        """
        with self._lock:
            return dict(
                queue_depth=queue_depth, running=running,
                submitted=self.submitted, rejected=self.rejected, coalesced=self.coalesced,
                retries=self.retries, executed=self.executed,
                cache_hits=cache.hits if cache is not None else 0,
                cache_misses=cache.misses if cache is not None else 0,
                jobs_by_state=dict(self._by_state), latencies=list(self._latencies),
                parallel_jobs=self._parallel_jobs, worker_jobs=self._worker_jobs,
                worker_sum=self._worker_sum, total_splits=self._total_splits,
                workers_spawned=self._workers_spawned, workers_retired=self._workers_retired,
                fleet_size=self._fleet_size, fleet_peak=self._fleet_peak,
            )
