"""Search-as-a-service: jobs, queueing, caching, scheduling, metrics.

YewPar's skeletons (and this reproduction's, until now) run one search
per invocation.  This package is the thin job-management layer that
turns them into a *service* — the step frameworks like mts (Avis &
Jordan 2017) take over a bare search engine:

- :mod:`repro.service.jobs` — :class:`JobSpec` (what to search, with a
  canonical content hash) and the :class:`Job` lifecycle
  (``PENDING → RUNNING → DONE/FAILED/CANCELLED/TIMEOUT``).
- :mod:`repro.service.queue` — bounded, submitter-fair priority queue
  with reject-with-reason admission control.
- :mod:`repro.service.cache` — content-addressed LRU/TTL result cache
  plus coalescing of duplicates submitted while their twin runs.
- :mod:`repro.service.scheduler` — a worker pool (in-process threads or
  a TCP cluster) enforcing timeouts, cancellation and one retry on
  worker crash.
- :mod:`repro.service.metrics` — the operator's snapshot: queue depth,
  cache hit rate, latency percentiles, jobs by terminal state.

Quick start::

    from repro.service import JobSpec, Scheduler

    sched = Scheduler(n_workers=4)
    job = sched.submit(JobSpec(app="maxclique", instance="sanr90-1"))
    sched.run_until_idle()
    print(job.state, job.result.value)
    print(sched.metrics_snapshot().render())

The CLI front ends are ``repro submit`` (append jobs to a job file) and
``repro serve`` (run a scheduler over a job file or stdin); see
``docs/service.md``.
"""

from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec, JobState, TERMINAL_STATES
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.queue import AdmissionError, JobQueue
from repro.service.scheduler import (
    Backend,
    InProcessBackend,
    JobCancelled,
    JobTimeout,
    Scheduler,
    WorkerCrash,
)

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "TERMINAL_STATES",
    "JobQueue",
    "AdmissionError",
    "ResultCache",
    "ServiceMetrics",
    "MetricsSnapshot",
    "Scheduler",
    "Backend",
    "InProcessBackend",
    "JobTimeout",
    "JobCancelled",
    "WorkerCrash",
]
