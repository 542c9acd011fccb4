"""Cluster deployment: a coordinator plus its local worker processes.

:class:`ClusterDeployment` is the one owner of an embedded
:class:`~repro.cluster.coordinator.ClusterHandle` and the worker
subprocesses started against it, each stamped from the deployment's
:class:`~repro.deploy.spec.WorkerSpec`.  A fixed fan-out
(:func:`~repro.cluster.local.cluster_search`,
``ClusterBackend(local_workers=n)``) forks its workers once with
:meth:`fork`; an elastic fleet is *mutable*:

- :meth:`scale` converges the fleet to an exact size, spawning workers
  stamped from the :class:`~repro.deploy.spec.WorkerSpec` or retiring
  the youngest ones through the coordinator's RETIRE drain (in-flight
  task finishes, unstarted leases are RELEASEd back and re-leased
  elsewhere — no work is lost or duplicated, see docs/deploy.md);
- :meth:`adapt` starts a background loop that polls the coordinator's
  load snapshot (plus an optional service-queue probe), feeds it to an
  :class:`~repro.deploy.adaptive.Adaptive` policy, and calls
  :meth:`scale` on the recommendation — Dask's ``cluster.adapt()``
  shape over this runtime's own signals;
- dead workers (crash, chaos kill) are reaped and, while adapting, the
  next tick's :meth:`scale` call respawns up to the recommended size,
  so the fleet self-heals at the same place it self-scales.

Scale-down always retires the *highest-indexed* non-retiring workers
first.  That determinism matters twice: the surviving fleet under
``adapt(minimum=1, ...)`` is always worker 0, and a chaos plan that
arms ``kill_on_retire`` on any index >= 1 is guaranteed its RETIRE
actually arrives when the fleet drains.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Any, Callable, Optional

from repro.cluster.coordinator import ClusterHandle
from repro.cluster.faults import CoordinatorFaults
from repro.cluster.local import job_payload
from repro.cluster.worker import start_worker_process
from repro.core.results import SearchResult
from repro.core.searchtypes import SearchType
from repro.deploy.adaptive import Adaptive, LoadSignals
from repro.deploy.spec import WorkerSpec
from repro.runtime.fleet import graceful_stop

__all__ = ["ClusterDeployment", "elastic_budget_search"]


class ClusterDeployment:
    """A coordinator and the fleet of worker processes started against it.

    Args:
        spec: template for fleet workers (default :class:`WorkerSpec`).
        host/port, heartbeat_interval, heartbeat_timeout, wire_codec:
            for the coordinator, started here and stopped by
            :meth:`close`.
        coordinator_faults: optional coordinator-side chaos hooks.
        metrics: optional :class:`~repro.service.metrics.ServiceMetrics`
            sink; the deployment records every spawn/retire and keeps
            the live fleet size in it.
        on_event: optional callback receiving one human-readable line
            per fleet change (the `serve` CLI prints these).
    """

    def __init__(
        self,
        spec: Optional[WorkerSpec] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 5.0,
        wire_codec: str = "binary",
        coordinator_faults: Optional[CoordinatorFaults] = None,
        metrics: Any = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec if spec is not None else WorkerSpec()
        self.handle = ClusterHandle(
            host=host,
            port=port,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            wire_codec=wire_codec,
            faults=coordinator_faults,
        )
        try:
            self.handle.start()
        except BaseException:
            self.handle.shutdown(drain_workers=False)  # stops the loop thread
            raise
        self.metrics = metrics
        self._on_event = on_event
        self._lock = threading.RLock()
        # name -> live-ish process
        self._procs: dict = {}  # guarded-by: _lock
        self._retiring: set[str] = set()  # guarded-by: _lock
        self._next_index = 0  # guarded-by: _lock
        self.workers_spawned = 0  # guarded-by: _lock
        self.workers_retired = 0  # guarded-by: _lock
        self.fleet_peak = 0  # guarded-by: _lock
        # Integral of fleet size over time while adapting — the cost
        # axis of the elasticity benchmark (worker-seconds provisioned).
        self.worker_seconds = 0.0  # guarded-by: _lock
        self._adapt_thread: Optional[threading.Thread] = None
        self._adapt_stop = threading.Event()
        self._queue_depth: Optional[Callable[[], int]] = None
        self.policy: Optional[Adaptive] = None
        self._closed = False  # guarded-by: _lock

    # -- introspection -------------------------------------------------------

    def _event(self, line: str) -> None:
        if self._on_event is not None:
            try:
                self._on_event(line)
            except Exception:
                pass

    def fleet_size(self) -> int:
        """Live worker processes, including those draining out."""
        with self._lock:
            self._reap()
            return len(self._procs)

    def active_size(self) -> int:
        """Live worker processes that are not retiring — the number
        :meth:`scale` converges toward."""
        with self._lock:
            self._reap()
            return len(self._procs) - len(self._retiring & set(self._procs))

    def worker_names(self) -> list[str]:
        """Names of the live workers, oldest (lowest index) first."""
        with self._lock:
            self._reap()
            return sorted(self._procs, key=self._index_of)

    def _index_of(self, name: str) -> int:
        try:
            return int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def signals(self) -> LoadSignals:
        """One :class:`LoadSignals` snapshot from the coordinator (and
        the service-queue probe, when :meth:`adapt` was given one)."""
        stats = self.handle.load_stats()
        depth = 0
        if self._queue_depth is not None:
            try:
                depth = int(self._queue_depth())
            except Exception:
                depth = 0
        return LoadSignals(
            queued_tasks=int(stats.get("queued_tasks", 0)),
            leased_tasks=int(stats.get("leased_tasks", 0)),
            service_queue_depth=depth,
            job_active=bool(stats.get("job_active", False)),
        )

    # -- fleet mutation ------------------------------------------------------

    def _reap(self) -> None:  # repro: holds[_lock]
        """Collect exited worker processes (lock held by caller)."""
        for name, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            del self._procs[name]
            was_retiring = name in self._retiring
            self._retiring.discard(name)
            if was_retiring:
                self.workers_retired += 1
                if self.metrics is not None:
                    self.metrics.worker_retired()
                self._event(f"retired {name} (exit {proc.exitcode})")
            else:
                self._event(f"worker {name} died (exit {proc.exitcode})")
        self._record_fleet()

    def _record_fleet(self) -> None:  # repro: holds[_lock]
        size = len(self._procs)
        self.fleet_peak = max(self.fleet_peak, size)
        if self.metrics is not None:
            self.metrics.set_fleet_size(size)

    def _start_one(self, *, spawn: bool) -> None:  # repro: holds[_lock]
        """Start the next worker stamped from the spec (see
        :func:`~repro.cluster.worker.start_worker_process` on ``spawn``)."""
        spec = self.spec
        name = spec.worker_name(self._next_index)
        self._next_index += 1
        self._procs[name] = start_worker_process(
            *self.handle.address,
            name,
            give_up_after=spec.give_up_after,
            chaos_events=list(spec.chaos_events) if spec.chaos_events else None,
            wire_codec=spec.wire_codec,
            spawn=spawn,
        )
        self.workers_spawned += 1
        if self.metrics is not None:
            self.metrics.worker_spawned()
        self._record_fleet()
        self._event(f"spawned {name}")

    def fork(self, n: int) -> None:
        """Fork ``n`` more workers: a fixed fan-out, made once from the
        calling thread.  A fleet that :meth:`scale` grows spawns them
        instead, since it also runs on the adapt thread."""
        with self._lock:
            for _ in range(n):
                self._start_one(spawn=False)

    def _retire_one(self, name: str) -> None:  # repro: holds[_lock]
        self._retiring.add(name)
        if not self.handle.retire_worker(name):
            # Not connected (still starting up, or mid-reconnect): it
            # holds no leases, so a plain terminate loses nothing.
            proc = self._procs.get(name)
            if proc is not None:
                graceful_stop(proc, grace=1.0)
        self._event(f"retiring {name}")

    def scale(self, n: int) -> None:
        """Converge the non-retiring fleet to exactly ``n`` workers.

        Spawns missing workers, or RETIREs the highest-indexed surplus
        ones (they drain: finish the in-flight task, hand unstarted
        leases back, exit).  Retiring workers stop counting immediately,
        so repeated calls are idempotent while a drain is in progress.
        """
        n = max(0, int(n))
        with self._lock:
            if self._closed:
                return
            self._reap()
            active = [
                name for name in self._procs if name not in self._retiring
            ]
            if len(active) < n:
                for _ in range(n - len(active)):
                    self._start_one(spawn=True)
            elif len(active) > n:
                # Youngest first: survivors are always the oldest
                # (lowest-index) workers, which keeps retire targeting
                # deterministic for tests and chaos plans.
                victims = sorted(active, key=self._index_of, reverse=True)
                for name in victims[: len(active) - n]:
                    self._retire_one(name)

    def scale_up(self, k: int = 1) -> None:
        """Grow the non-retiring fleet by ``k`` workers."""
        self.scale(self.active_size() + max(0, int(k)))

    def scale_down(self, k: int = 1) -> None:
        """Drain the ``k`` youngest non-retiring workers (floor 0)."""
        self.scale(self.active_size() - max(0, int(k)))

    def wait_for_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Block until ``n`` workers are *connected* to the coordinator."""
        self.handle.wait_for_workers(n, timeout=timeout)

    def wait_for_fleet(
        self, n: int, timeout: float = 20.0, *, poll: float = 0.05
    ) -> None:
        """Block until exactly ``n`` worker processes are alive (unlike
        :meth:`wait_for_workers` this also observes drains completing)."""
        deadline = time.monotonic() + timeout
        while True:
            size = self.fleet_size()
            if size == n:
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"fleet is {size} workers, wanted {n}, "
                    f"after {timeout:.1f}s"
                )
            time.sleep(poll)

    # -- adaptive loop -------------------------------------------------------

    def adapt(
        self,
        minimum: int = 1,
        maximum: int = 4,
        *,
        interval: float = 0.25,
        policy: Optional[Adaptive] = None,
        queue_depth: Optional[Callable[[], int]] = None,
    ) -> Adaptive:
        """Start following demand between ``minimum`` and ``maximum``.

        A daemon thread polls :meth:`signals` every ``interval``
        seconds, asks the policy for a target and converges with
        :meth:`scale` — which also respawns crashed workers up to the
        target, so adapting fleets self-heal.  ``queue_depth`` is an
        optional zero-argument probe (e.g. a service
        ``JobQueue.depth``) added to the demand signal.  Returns the
        policy in use; idempotent-ish: calling again replaces the loop.
        """
        self.stop_adapting()
        if policy is None:
            policy = Adaptive(minimum, maximum)
        self.policy = policy
        self._queue_depth = queue_depth
        self._adapt_stop = threading.Event()
        stop = self._adapt_stop

        def _loop() -> None:
            last = time.monotonic()
            # Converge to the floor immediately so a fresh deployment
            # has workers before the first job arrives.
            try:
                self.scale(policy.recommend(self.signals(), last))
            except Exception:
                pass
            while not stop.wait(interval):
                now = time.monotonic()
                try:
                    live = self.fleet_size()
                    with self._lock:
                        self.worker_seconds += live * (now - last)
                    last = now
                    self.scale(policy.recommend(self.signals(), now))
                except Exception:
                    # The coordinator may be mid-shutdown; the loop is
                    # best-effort and the next tick retries.
                    last = now
                    continue

        self._adapt_thread = threading.Thread(
            target=_loop, name="deploy-adapt", daemon=True
        )
        self._adapt_thread.start()
        return policy

    def stop_adapting(self) -> None:
        """Stop the adapt loop (fleet stays at its current size)."""
        if self._adapt_thread is not None:
            self._adapt_stop.set()
            self._adapt_thread.join(timeout=5.0)
            self._adapt_thread = None

    # -- job passthrough -----------------------------------------------------

    def run_job(
        self, payload: dict, *, timeout: Optional[float] = None
    ) -> SearchResult:
        """Run one job on the coordinator (blocking)."""
        return self.handle.run_job(payload, timeout=timeout)

    def run_job_future(self, payload: dict, *, timeout: Optional[float] = None):
        """Submit one job to the coordinator; returns a future."""
        return self.handle.run_job_future(payload, timeout=timeout)

    # -- teardown ------------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop adapting, stop the coordinator (every worker is sent
        RETIRE first) and reap the fleet, with the SIGTERM -> SIGKILL
        escalation as the backstop."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.stop_adapting()
        self.handle.shutdown(drain_workers=True, timeout=timeout)
        with self._lock:
            for proc in self._procs.values():
                proc.join(timeout=3.0)
                graceful_stop(proc, grace=1.0)
            self._procs.clear()
            self._retiring.clear()
            self._record_fleet()

    def __enter__(self) -> "ClusterDeployment":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def elastic_budget_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    *,
    coordination: str = "budget",
    minimum: int = 1,
    maximum: int = 4,
    timeout: Optional[float] = None,
    heartbeat_interval: float = 0.5,
    heartbeat_timeout: float = 5.0,
    worker_join_timeout: float = 20.0,
    burst_hold: float = 0.4,
    wire_codec: str = "binary",
    fault_plan: Optional[dict] = None,
    **knobs: Any,
) -> SearchResult:
    """A search on a deployment that scales mid-job.

    The elastic twin of :func:`repro.cluster.local.cluster_search`
    (``knobs`` likewise go to :func:`~repro.cluster.local.job_payload`),
    and the unit the conformance harness sweeps: start at ``minimum``
    workers, burst to ``maximum`` once the job is submitted, hold for
    ``burst_hold`` seconds so the extra workers take leases, then scale
    back down to ``minimum`` *while the job runs* — forcing the RETIRE
    drain (and, under a ``kill_on_retire`` chaos plan, the
    crash-during-drain path) on every call.  The result must be bit-identical to the
    sequential oracle regardless.

    Chaos workers are named ``deploy-0 .. deploy-{maximum-1}``; the
    scale-down retires every index >= ``minimum``, so plans targeting
    those indices always fire.

    ``coordination`` routes the job's work movement (``"budget"``,
    ``"stacksteal"`` or ``"ordered"``) — despite the historical name,
    any cluster coordination can run elastically.
    """
    if minimum < 1:
        raise ValueError("need at least one elastic worker")
    if maximum < minimum:
        raise ValueError("maximum must be >= minimum")
    payload = job_payload(
        spec_factory, factory_args, stype, coordination=coordination, **knobs
    )
    events = list((fault_plan or {}).get("events", []))
    spec = WorkerSpec(
        name_prefix="deploy",
        give_up_after=15.0,
        wire_codec=wire_codec,
        chaos_events=tuple(events) if events else None,
    )
    dep = ClusterDeployment(
        spec,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        wire_codec=wire_codec,
        coordinator_faults=CoordinatorFaults(events) if events else None,
    )
    try:
        dep.scale(minimum)
        dep.wait_for_workers(minimum, timeout=worker_join_timeout)
        future = dep.run_job_future(payload, timeout=timeout)
        # Burst: grow to the ceiling while the job is in flight.  The
        # job may finish before every new worker even connects — that
        # is normal elasticity, not an error.
        dep.scale(maximum)
        if burst_hold > 0:
            done = False
            try:
                future.result(timeout=burst_hold)
                done = True
            except (concurrent.futures.TimeoutError, TimeoutError):
                pass
            except Exception:
                done = True  # job failed; fall through to .result() below
            if not done:
                # Mid-job scale-down: surplus workers drain through the
                # RETIRE/RELEASE protocol while work is still live.
                dep.scale(minimum)
        wait = None
        if timeout is not None:
            wait = timeout + heartbeat_timeout + 10.0
        return future.result(timeout=wait)
    finally:
        dep.close()
