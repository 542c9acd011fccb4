"""The scheduler: a worker pool draining the job queue.

The flow of one submission::

    submit ──► cache hit? ──────────────► DONE (served from cache)
        └────► twin in flight? ─────────► wait as follower (coalesced)
        └────► queue.push (admission) ──► PENDING ──► worker pops
                                                    ──► backend.execute
                                                    ──► DONE/FAILED/TIMEOUT

Two execution backends implement :class:`Backend`:

- :class:`InProcessBackend` — the default.  A sequential job is one
  lease on a worker of its own of the process's warm fleet
  (:data:`repro.runtime.processes.FLEET`), off the scheduler's
  interpreter and beside every other sequential job; its timeout and
  cancel are preemptive (the worker abandons the search at its next
  poll) and its incumbent events follow the fleet wait's cadence, the
  final one always sent.  A parallel skeleton (simulated, or
  on the fleet when its params select ``backend="processes"``) runs in
  the scheduler's worker thread to completion and is marked
  ``CANCELLED`` or ``TIMEOUT`` after the fact if it was cancelled or
  blew its deadline.
- :class:`~repro.cluster.backend.ClusterBackend` — every job runs
  across a TCP cluster coordinator's workers, out of the scheduler's
  process; the coordinator stops a job on timeout or cancel.

Either way the scheduler enforces the same policy: per-job timeout,
cancellation (queued jobs never start; running jobs are interrupted
best-effort), and **one retry on worker crash** — a crash is an
infrastructure failure, a second identical crash is treated as the
job's own fault and reported ``FAILED``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional, Protocol

from repro.core.results import SearchResult
from repro.service.cache import ResultCache
from repro.service.jobs import RETAINED_JOBS, Job, JobSpec, JobState
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.queue import AdmissionError, JobQueue

__all__ = [
    "Backend",
    "InProcessBackend",
    "JobTimeout",
    "JobCancelled",
    "WorkerCrash",
    "Scheduler",
    "RETAINED_JOBS",
]


class JobTimeout(Exception):
    """The job exceeded its wall-clock timeout."""


class JobCancelled(Exception):
    """The job's cancel event fired while it was running."""


class WorkerCrash(Exception):
    """The worker executing the job died or raised; retryable once."""


class Backend(Protocol):
    """Executes one job attempt; raises the exceptions above on failure.

    A backend that runs only some skeletons names them in a
    ``coordinations`` attribute; :meth:`Scheduler.submit` refuses the
    rest.
    """

    def execute(
        self,
        job: Job,
        *,
        deadline: Optional[float],
        cancel: Optional[threading.Event],
    ) -> SearchResult:
        """Run one attempt of ``job``; raise JobTimeout / JobCancelled /
        WorkerCrash instead of returning on the corresponding outcome."""
        ...


class InProcessBackend:
    """Run sequential jobs on the warm process fleet, and parallel
    skeletons in the scheduler's worker threads."""

    def execute(
        self,
        job: Job,
        *,
        deadline: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> SearchResult:
        """Run the attempt.  A sequential job's search stops at the
        deadline or cancel, and reports its incumbent as the fleet's
        wait sees it rise; a parallel run cannot be preempted.  Either
        way an attempt cancelled or past its deadline ends CANCELLED or
        TIMEOUT, and what it found is not cached."""
        from repro.runtime.processes import fleet_sequential_search, run_library_search

        spec = job.spec
        seen = 0

        def stop(best: int) -> bool:
            nonlocal seen
            if best > seen and job.on_incumbent is not None:
                seen = best
                job.on_incumbent(best)
            return (cancel is not None and cancel.is_set()) or (
                deadline is not None and time.monotonic() >= deadline
            )

        try:
            if (spec.params.get("coordination") or spec.skeleton) == "sequential":
                result = fleet_sequential_search(
                    spec.instance, spec.search_type, spec.stype_kwargs, stop
                )
                if result.kind != "enumeration":
                    stop(result.value)  # the last incumbent, if the wait missed it
            else:
                result = run_library_search(**spec.run_payload())
        except Exception as exc:
            raise WorkerCrash(f"{type(exc).__name__}: {exc}") from exc
        if cancel is not None and cancel.is_set():
            raise JobCancelled
        if deadline is not None and time.monotonic() >= deadline:
            raise JobTimeout
        return result


class Scheduler:
    """Submission front door + worker pool over a :class:`JobQueue`.

    Args:
        backend: execution backend (default :class:`InProcessBackend`).
        queue: admission-controlled queue (default: depth 256).
        cache: result cache (default: 256 entries, no TTL).
        n_workers: worker pool size for :meth:`run_until_idle` /
            :meth:`start`.
        metrics: a :class:`ServiceMetrics` to report into.
        clock: time source for latencies/timeouts (injectable in tests).
        name: prefix for generated job ids (``name="s0-"`` yields
            ``s0-j0001``) — lets a shard router hand out globally
            unique ids across many schedulers.
        on_event: lifecycle event sink, called as
            ``on_event(job, event, data)`` with ``event`` one of
            ``queued / coalesced / rejected / leased / incumbent /
            done / failed / cancelled / timeout``, and ``expired`` when
            a serving scheduler drops a terminal record.  Fired from worker
            threads, sometimes with the scheduler lock held: sinks must
            be fast and must not call back into the scheduler.
    """

    def __init__(
        self,
        *,
        backend: Optional[Backend] = None,
        queue: Optional[JobQueue] = None,
        cache: Optional[ResultCache] = None,
        n_workers: int = 2,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
        on_event: Optional[Callable[[Job, str, dict], None]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.backend: Backend = backend if backend is not None else InProcessBackend()
        # The queue and cache are single-threaded structures; every use
        # must hold the scheduler lock (directly or via the condition,
        # which wraps the same RLock).
        self.queue = queue if queue is not None else JobQueue()  # guarded-by: _lock|_work
        self.cache = cache if cache is not None else ResultCache()  # guarded-by: _lock|_work
        self.n_workers = n_workers
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._clock = clock
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock|_work
        # Terminal job ids in finishing order, kept only while serving.
        self._finished: Optional[deque[str]] = None  # guarded-by: _lock|_work
        self._running = 0  # guarded-by: _lock|_work
        self._seq = 0  # guarded-by: _lock|_work
        self.name = name
        self.on_event = on_event
        self._stopping = False  # guarded-by: _lock|_work
        self._threads: list[threading.Thread] = []

    def _emit(self, job: Job, event: str, **data) -> None:
        """Report a lifecycle event to the sink (never raises)."""
        if self.on_event is None:
            return
        try:
            self.on_event(job, event, data)
        except Exception:  # a broken sink must not kill a worker
            pass

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job; returns its (possibly already terminal) record.

        Raises ValueError for malformed specs (unknown instance, app
        mismatch, a skeleton the backend does not run) — caller errors.
        Backpressure does *not* raise: a rejected job comes back
        ``FAILED`` with the admission reason in ``job.error`` and is
        counted in the ``rejected`` metric, so a batch submitter can
        keep going and report per-job outcomes.
        """
        self._validate(spec)
        with self._lock:
            self._seq += 1
            job = Job(
                spec, id=f"{self.name}j{self._seq:04d}", submitted_at=self._clock()
            )
            self._jobs[job.id] = job
            self.metrics.job_submitted()

            cached = self.cache.get(spec.key)
            if cached is not None:
                job.from_cache = True
                job.result = cached
                self._finish(job, JobState.DONE)
                return job

            leader = self.cache.leader_of(spec.key)
            if leader is not None:
                job.coalesced_into = self.cache.join(spec.key, job.id)
                self.metrics.job_coalesced()
                self._emit(job, "coalesced", leader=job.coalesced_into)
                return job  # stays PENDING until the leader lands

            if self._stopping:
                job.error = "rejected: scheduler is draining"
                self.metrics.job_rejected()
                self._emit(job, "rejected", reason="scheduler is draining")
                self._finish(job, JobState.FAILED)
                return job
            try:
                self.queue.push(job)
            except AdmissionError as exc:
                job.error = f"rejected: {exc.reason}"
                self.metrics.job_rejected()
                self._emit(job, "rejected", reason=exc.reason)
                self._finish(job, JobState.FAILED)
                return job
            self.cache.lead(spec.key, job.id)
            self._emit(job, "queued", queue_depth=self.queue.depth())
            self._work.notify()
            return job

    def _validate(self, spec: JobSpec) -> None:
        from repro.instances.library import _entry

        runs = getattr(self.backend, "coordinations", None)
        if runs is not None and spec.skeleton not in runs:
            raise ValueError(
                f"this scheduler's backend runs the {runs} skeletons, "
                f"not {spec.skeleton!r}"
            )
        try:
            entry = _entry(spec.instance)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        if entry.app != spec.app:
            raise ValueError(
                f"instance {spec.instance!r} belongs to application "
                f"{entry.app!r}, not {spec.app!r}"
            )

    def job(self, job_id: str) -> Job:
        """Look up a job record by id."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """All job records, in submission order.

        Takes the scheduler lock: gateway threads call this while
        worker threads insert new records, and iterating a dict that
        grows concurrently raises ``RuntimeError: dictionary changed
        size during iteration``.
        """
        with self._lock:
            # Ids are f"{name}j{seq:04d}"; sort on the numeric tail so
            # prefixed (sharded) ids like "s0-j0001" order correctly.
            return [
                self._jobs[k]
                for k in sorted(
                    self._jobs, key=lambda k: int(k.rsplit("j", 1)[-1])
                )
            ]

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs never run; running jobs are
        interrupted best-effort (in process, a sequential job at its
        next poll; on a cluster, by the coordinator).  Returns True if
        cancellation took or was initiated."""
        with self._lock:
            job = self._jobs[job_id]
            if job.terminal:
                return False
            if job.state is JobState.PENDING:
                if job.coalesced_into is not None:
                    self.cache.drop_follower(job.key, job.id)
                    self._finish(job, JobState.CANCELLED)
                    return True
                # Queued leader: tombstone it (queue.pop skips it) and
                # promote its first follower, if any, into the queue so
                # the coalesced work still happens.
                self._finish(job, JobState.CANCELLED)
                followers = self.cache.finish(job.key)
                self._promote(followers)
                return True
            # RUNNING: signal the backend.
            if job.cancel_event is not None:
                job.cancel_event.set()
                return True
            return False

    def _promote(self, follower_ids: list[str]) -> None:  # repro: holds[_lock]
        """Re-queue the first live follower as the new leader for its
        key; later followers re-join it (lock held by caller)."""
        live = [
            self._jobs[fid]
            for fid in follower_ids
            if not self._jobs[fid].terminal
        ]
        if not live:
            return
        new_leader, rest = live[0], live[1:]
        new_leader.coalesced_into = None
        try:
            self.queue.push(new_leader)
        except AdmissionError as exc:
            new_leader.error = f"rejected: {exc.reason}"
            self.metrics.job_rejected()
            self._emit(new_leader, "rejected", reason=exc.reason)
            self._finish(new_leader, JobState.FAILED)
            self._promote([j.id for j in rest])
            return
        self.cache.lead(new_leader.key, new_leader.id)
        self._emit(new_leader, "queued", queue_depth=self.queue.depth())
        self._work.notify()
        for job in rest:
            job.coalesced_into = self.cache.join(job.key, job.id)

    # -- long-running service mode -------------------------------------------

    def start(self) -> None:
        """Start ``n_workers`` long-lived worker threads that serve the
        queue until :meth:`stop` — the mode a network front door runs
        the scheduler in, where submissions arrive concurrently and
        forever rather than from a finite job file.  From here on the
        job table keeps the last :data:`RETAINED_JOBS` terminal records;
        an older job's id is unknown to :meth:`job` and :meth:`cancel`."""
        with self._lock:
            if self._threads:
                raise RuntimeError("scheduler already started")
            self._stopping = False
            if self._finished is None:
                self._finished = deque()
        self._threads = [
            threading.Thread(
                target=self._serve_loop,
                name=f"{self.name or 'svc-'}worker-{i}",
                daemon=True,
            )
            for i in range(self.n_workers)
        ]
        for t in self._threads:
            t.start()

    def _serve_loop(self) -> None:
        while True:
            with self._work:
                job = self.queue.pop()
                while job is None and not self._stopping:
                    self._work.wait(timeout=0.2)
                    job = self.queue.pop()
                if job is None:
                    return
            self._run_job(job)

    def stop(self, *, timeout: Optional[float] = 30.0) -> None:
        """Drain and stop the long-lived workers.

        In-flight jobs run to completion; jobs still *queued* are
        cancelled (``error="cancelled: scheduler shutting down"``) so
        their submitters' status streams terminate instead of hanging,
        and new submissions are rejected from this point on.
        Idempotent.
        """
        with self._work:
            self._stopping = True
            while True:
                job = self.queue.pop()
                if job is None:
                    break
                job.error = "cancelled: scheduler shutting down"
                self._finish(job, JobState.CANCELLED)
                for fid in self.cache.finish(job.key):
                    follower = self._jobs[fid]
                    if follower.terminal:
                        continue
                    follower.error = (
                        f"coalesced with {job.id}, cancelled at shutdown"
                    )
                    self._finish(follower, JobState.CANCELLED)
            self._work.notify_all()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []

    # -- execution -----------------------------------------------------------

    def run_until_idle(self) -> list[Job]:
        """Drain the queue with ``n_workers`` worker threads; returns all
        job records once every submitted job is terminal."""
        workers = [
            threading.Thread(target=self._worker_loop, name=f"svc-worker-{i}")
            for i in range(self.n_workers)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        return self.jobs()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                job = self.queue.pop()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state is not JobState.PENDING:  # cancelled in the gap
                return
            job.cancel_event = threading.Event()
            job.on_incumbent = lambda value: self._emit(
                job, "incumbent", value=value
            )
            job.transition(JobState.RUNNING, now=self._clock())
            self._running += 1
            self.metrics.job_executed()
        self._emit(job, "leased", worker=threading.current_thread().name)
        spec = job.spec
        deadline = (
            None if spec.timeout is None else time.monotonic() + spec.timeout
        )
        result: Optional[SearchResult] = None
        outcome = JobState.DONE
        for attempt in (1, 2):
            job.attempts = attempt
            try:
                result = self.backend.execute(
                    job, deadline=deadline, cancel=job.cancel_event
                )
                outcome = JobState.DONE
                break
            except JobTimeout:
                outcome = JobState.TIMEOUT
                job.error = (
                    f"timeout: exceeded {spec.timeout:.3f}s"
                    if spec.timeout is not None
                    else "timeout"
                )
                break
            except JobCancelled:
                outcome = JobState.CANCELLED
                job.error = "cancelled while running"
                break
            except WorkerCrash as exc:
                job.error = f"worker crash: {exc}"
                if attempt == 1:
                    self.metrics.job_retried()
                    continue  # the one retry
                outcome = JobState.FAILED
        with self._lock:
            self._running -= 1
            if outcome is JobState.DONE and result is not None:
                job.result = result
                job.error = None
                self.cache.put(job.key, result)
            self._finish(job, outcome)
            # The job table keeps finished jobs; their Event and hook
            # closure (~0.9 KB) have no reader once the job is terminal.
            job.cancel_event = job.on_incumbent = None
            followers = self.cache.finish(job.key)
            self._resolve_followers(job, followers)

    def _resolve_followers(  # repro: holds[_lock]
        self, leader: Job, follower_ids: list[str]
    ) -> None:
        """Fan the leader's outcome out to coalesced followers (lock held).

        A DONE leader serves its followers from the cache (each counts
        as a cache hit — that is the point of coalescing).  A leader
        that failed, timed out or was cancelled takes its followers with
        it: they asked for the identical computation, so re-running it
        would fail identically (retries already happened on the leader).
        """
        for fid in follower_ids:
            follower = self._jobs[fid]
            if follower.terminal:
                continue
            if leader.state is JobState.DONE:
                follower.result = leader.result
                follower.from_cache = True
                self.cache.record_coalesced_hit()
                self._finish(follower, JobState.DONE)
            else:
                follower.error = (
                    f"coalesced with {leader.id}, which ended "
                    f"{leader.state.value}: {leader.error or ''}".rstrip(": ")
                )
                terminal = (
                    leader.state
                    if leader.state in (JobState.CANCELLED,)
                    else JobState.FAILED
                )
                self._finish(follower, terminal)

    def _finish(self, job: Job, state: JobState) -> None:  # repro: holds[_lock]
        job.transition(state, now=self._clock())
        if self._finished is not None:
            self._finished.append(job.id)
            if len(self._finished) > RETAINED_JOBS:
                self._emit(self._jobs.pop(self._finished.popleft()), "expired")
        self.metrics.job_finished(job)
        data: dict = {"state": state.value, "from_cache": job.from_cache}
        if job.result is not None:
            data["value"] = job.result.value
        if job.error:
            data["error"] = job.error
        lat = job.latency()
        if lat is not None:
            data["latency"] = lat
        self._emit(job, state.value.lower(), **data)

    # -- reporting -----------------------------------------------------------

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The service-level metrics snapshot (queue, cache, latencies):
        copied under the scheduler lock, frozen after it is released."""
        with self._lock:
            counters = self.metrics.counters(
                queue_depth=self.queue.depth(),
                running=self._running,
                cache=self.cache,
            )
        return MetricsSnapshot.of(counters)
