"""ClusterBackend: scheduler jobs dispatched cluster-wide.

Implements the service layer's :class:`~repro.service.scheduler.Backend`
protocol on top of the coordinator of a
:class:`~repro.deploy.deployment.ClusterDeployment`, so ``repro serve
--backend cluster`` runs every queued search across whatever workers
are connected — local fan-out processes, other machines, or both.

Failure translation keeps the scheduler's policy intact end to end:

- coordinator job timeout  -> :class:`JobTimeout`
- scheduler cancel event   -> coordinator cancel -> :class:`JobCancelled`
- cluster failure (enumeration worker death, no workers, bad payload)
  -> :class:`WorkerCrash`, which the scheduler retries exactly once —
  so a search that died because one worker crashed mid-enumeration gets
  its second chance on the surviving workers, and the retry resolves
  any coalesced followers as a retried crash does on any backend.

One coordinator runs one job at a time, so concurrent scheduler workers
serialise on an internal lock; queueing above that is the scheduler's
job, not this backend's.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Optional

from repro.cluster.coordinator import (
    ClusterError,
    ClusterJobCancelled,
    ClusterJobTimeout,
)
from repro.cluster.local import job_knobs, job_payload
from repro.core.backends import BACKENDS
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult

__all__ = ["ClusterBackend", "wire_job"]


def wire_job(spec) -> dict:
    """Reduce a service :class:`JobSpec` to a wire job definition.

    The instance name doubles as the spec-factory argument (the
    registry is deterministic on every node), the search type comes
    from :func:`~repro.instances.library.resolve_job`, the knobs from
    the spec's :class:`SkeletonParams` overrides.  ValueError for a
    skeleton the cluster does not implement.
    """
    from repro.instances.library import library_spec_factory, resolve_job

    _, stype = resolve_job(spec.instance, spec.search_type, spec.stype_kwargs)
    params = SkeletonParams(**dict(spec.params))
    return job_payload(
        library_spec_factory,
        (spec.instance,),
        stype,
        coordination=spec.skeleton,
        **job_knobs(params),
    )


class ClusterBackend:
    """Execute scheduler jobs on a cluster coordinator.

    Args:
        deployment: an elastic
            :class:`~repro.deploy.deployment.ClusterDeployment` to run
            over; the backend uses (and on :meth:`close`, closes) the
            deployment's coordinator, and the fleet size is the
            deployment's business — typically an ``adapt()`` loop fed
            by the service queue's depth.  None builds one whose fleet
            is ``local_workers`` forked workers ``svc-0..``.
        local_workers: fan out this many localhost worker processes
            (0 means external workers are expected to connect).
            Mutually exclusive with ``deployment``.
        min_workers: block each job until at least this many workers are
            connected (default: ``local_workers`` or 1).
        worker_wait: how long a job waits for them, at most until its
            deadline; a wait the deadline ends is the job's timeout.
        poll_interval: cancellation poll cadence while a job runs.
        wire_codec: preferred frame body format for the deployment built
            here and its workers (a given deployment keeps its own).
    """

    # The skeletons a job may name; the scheduler refuses the rest at
    # submission instead of retrying them as worker crashes.
    coordinations = BACKENDS["cluster"].coordinations

    def __init__(
        self,
        *,
        deployment=None,
        local_workers: int = 0,
        min_workers: Optional[int] = None,
        worker_wait: float = 20.0,
        poll_interval: float = 0.05,
        wire_codec: str = "binary",
    ) -> None:
        if deployment is not None and local_workers:
            raise ValueError("pass either a deployment or local_workers, not both")
        if deployment is None:
            from repro.deploy import ClusterDeployment, WorkerSpec

            deployment = ClusterDeployment(
                WorkerSpec(name_prefix="svc", wire_codec=wire_codec),
                wire_codec=wire_codec,
            )
            deployment.fork(local_workers)
        self._deployment = deployment
        self.handle = deployment.handle
        self.min_workers = (
            min_workers if min_workers is not None else max(1, local_workers)
        )
        self.worker_wait = worker_wait
        self.poll_interval = poll_interval
        self._lock = threading.Lock()

    def execute(
        self,
        job,
        *,
        deadline: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> SearchResult:
        """Run one attempt of ``job`` across the cluster."""
        from repro.service.scheduler import JobCancelled, JobTimeout, WorkerCrash

        try:
            payload = wire_job(job.spec)
        except ValueError as exc:
            raise WorkerCrash(f"job not clusterable: {exc}") from exc
        with self._lock:
            wait = self.worker_wait
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            try:
                self.handle.wait_for_workers(self.min_workers, timeout=wait)
            except ClusterError as exc:
                # A wait the deadline cut short is the job's timeout, not
                # a crash to retry.
                if deadline is not None and time.monotonic() >= deadline:
                    raise JobTimeout from exc
                raise WorkerCrash(str(exc)) from exc
            timeout = (
                None if deadline is None
                else max(0.01, deadline - time.monotonic())
            )
            # One job runs at a time (we hold the lock), so routing the
            # coordinator's incumbent-improvement callback to this job's
            # progress hook is unambiguous.  Fires on the loop thread —
            # the hook (the scheduler's event sink) is thread-safe.
            self.handle.coordinator.on_incumbent = job.on_incumbent
            try:
                future = self.handle.run_job_future(payload, timeout=timeout)
                while True:
                    try:
                        return future.result(timeout=self.poll_interval)
                    except concurrent.futures.TimeoutError:
                        if cancel is not None and cancel.is_set():
                            self.handle.cancel_job("cancelled by scheduler")
                            try:
                                future.result(timeout=5.0)
                            except Exception:
                                pass
                            raise JobCancelled
                    except ClusterJobTimeout as exc:
                        raise JobTimeout from exc
                    except ClusterJobCancelled as exc:
                        raise JobCancelled from exc
                    except Exception as exc:
                        raise WorkerCrash(f"{type(exc).__name__}: {exc}") from exc
            finally:
                self.handle.coordinator.on_incumbent = None

    def load_stats(self) -> dict:
        """The coordinator's point-in-time load snapshot (queued/leased
        tasks, per-worker liveness) — surfaced on the gateway's
        ``/metrics`` endpoint."""
        return self.handle.load_stats()

    def close(self) -> None:
        """Close the deployment: its coordinator and its workers."""
        self._deployment.close()
