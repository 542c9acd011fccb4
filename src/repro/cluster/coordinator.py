"""The cluster coordinator: task table, steal mediation, incumbent, termination.

One coordinator owns the authoritative state of a distributed search.
What the job does — its first work, the published best, the merge of
every report, the Ordered ledger and its runs, the result — is the
:class:`~repro.runtime.driver.JobDriver` the process fleet's parent
runs too; what is here is its transport:

- the **task table** — every hand-over that exists *here* as a unit of
  work: sibling subtree roots at one depth, with their lease (which
  worker, which epoch) and lifecycle (queued → leased → done, or
  cancelled).  A worker keeps the roots it has not started and the
  offcuts of its stacks in its own order-preserving pool
  (:mod:`repro.cluster.worker`), so a **lease** is "these roots and
  everything their holder ran from its pool": the table holds the root
  task and whatever was handed over since, not one record per subtree;
- **steal mediation** — for budget and stack-stealing jobs, when the
  queue is empty and a worker holds no lease, a busy worker is sent a
  STEAL and answers with STOLEN: half of the shallowest level of its
  pool (budget never answers empty — the request waits for the next
  trip or dies with the lease's RESULT; stack-stealing fills an empty
  pool from its live stack and may answer empty).  The answer becomes
  one record per idle worker and is leased to them, never back to a
  prefetch slot of the victim.  OFFCUT is the unsolicited twin: a
  retiring or draining worker handing its pool back;
- the **outstanding counter** — distributed termination detection: the
  root task starts it at 1, every record cut from a STOLEN or OFFCUT
  increments it, every accepted RESULT decrements it; zero means
  the whole tree has been searched (the same invariant the
  multiprocessing backend keeps in a shared integer, here maintained by
  the single writer that sees every message);
- the **incumbent** broadcast — every INCUMBENT and RESULT goes
  through the driver's merge, and only a *strict* improvement of the
  best is rebroadcast to the other workers, so bound traffic is
  proportional to how often the answer actually improves (the
  real-network realisation of the simulator's delayed PGAS broadcast:
  a worker holding a stale bound prunes less, never wrongly, §4.3).

Fault model (see docs/cluster.md for the full argument):

- A worker that disconnects or misses heartbeats is declared dead; its
  leased tasks are re-queued with a **bumped epoch** and re-leased.
  RESULT/STOLEN/OFFCUT frames carrying a stale epoch are dropped, so a
  worker that was merely slow cannot double-count a reassigned task or
  corrupt the outstanding counter.
- A dead holder's lease re-runs from its root: what it had finished,
  what was still in its pool, and what it had already handed over
  (which lives on as tasks of its own, so it is searched twice).
  Re-running is idempotent for optimisation and decision searches
  (knowledge is max-merged), so the cluster *degrades* under crashes
  instead of undercounting; node counts may overcount re-searched work,
  and ``metrics.reassigned`` records every re-lease.
- An enumeration lease's partial accumulator dies with its worker and
  cannot be reconstructed, so a worker lost mid-enumeration fails the
  job loudly — identical policy to the multiprocessing backend.

The coordinator runs one job at a time (callers serialise; the service
:class:`~repro.cluster.backend.ClusterBackend` holds a lock).  Workers
may join at any time, including mid-job — they are sent the active JOB
and leased tasks immediately, which is also how a restarted worker
resumes contributing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cluster import protocol as P
from repro.cluster.faults import CoordinatorFaults
from repro.core.backends import backend_for
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Incumbent
from repro.runtime.driver import JobDriver, OrderedRun
from repro.runtime.worker import SpecCache

__all__ = [
    "ClusterError",
    "ClusterJobFailed",
    "ClusterJobTimeout",
    "ClusterJobCancelled",
    "Coordinator",
    "ClusterHandle",
]


class ClusterError(RuntimeError):
    """Base class for cluster runtime failures."""


class ClusterJobFailed(ClusterError):
    """The job cannot complete correctly (e.g. enumeration worker died)."""


class ClusterJobTimeout(ClusterError):
    """The job exceeded its wall-clock timeout and was abandoned."""


class ClusterJobCancelled(ClusterError):
    """The job was cancelled by the submitter."""


QUEUED = "queued"
LEASED = "leased"
DONE = "done"
CANCELLED = "cancelled"


@dataclass
class TaskRecord:
    """One unit of work: sibling subtrees, their lease and its epoch."""

    id: int
    nodes: Any  # wire-encoded roots (stored encoded so re-leases are cheap)
    depth: int
    epoch: int = 0
    state: str = QUEUED
    worker: Optional[int] = None
    # Ordered jobs only: the record *is* one lease of a run of frontier
    # tasks, created when the driver cuts it (``nodes`` stays None).
    run: Optional[OrderedRun] = None


@dataclass
class WorkerConn:
    """Coordinator-side record of one connected worker."""

    id: int
    name: str
    writer: Any
    slots: int = 1
    tasks: set = field(default_factory=set)  # leased task ids
    last_seen: float = 0.0
    alive: bool = True
    retiring: bool = False  # told to RETIRE: no new leases, drain out
    # Stack-stealing mediation state: a STEAL is in flight to this
    # worker (one at a time), / its last STOLEN answer was empty so
    # re-asking is pointless until it reports fresh progress.
    steal_pending: bool = False
    steal_dry: bool = False
    # Runnable subtrees in this worker's own pool (budget jobs), as last
    # reported on a frame it sent anyway (``pool``).
    pool: int = 0
    # The negotiated wire codec for frames *to* this worker (inbound
    # decoding auto-detects).  None until the WELCOME has been posted,
    # so the handshake itself always travels as JSON.
    codec: Any = None


class _Job:
    """Coordinator-side state of the active search job: its
    :class:`~repro.runtime.driver.JobDriver` and its lease table."""

    def __init__(self, job_id: int, payload: dict, loop, specs: SpecCache) -> None:
        self.id = job_id
        self.payload = payload
        self.driver = JobDriver(P.decode_job(job_id, payload, specs))
        backend_for("cluster", self.driver.job.coordination)  # wire input: ValueError
        self.tasks: dict[int, TaskRecord] = {}
        self.queue: deque[int] = deque()
        self.outstanding = 0
        self.contributors: set[int] = set()
        self.state = "running"
        self.done: asyncio.Future = loop.create_future()
        self._next_task = 0

    def _new_task_id(self) -> int:
        self._next_task += 1
        return self._next_task

    def lease_run(self, workers: int) -> Optional[TaskRecord]:
        """Ordered jobs: the next run the driver hands out, as a fresh
        task record (None while its window for ``workers`` is full)."""
        run = self.driver.lease(workers)
        if run is None:
            return None
        rec = TaskRecord(id=self._new_task_id(), nodes=None, depth=0, run=run)
        self.tasks[rec.id] = rec
        return rec

    def lease_entry(self, rec: TaskRecord) -> list:
        """One granted lease as its ``leases`` entry of a TASK frame."""
        run = rec.run
        if run is None:
            return [rec.id, rec.epoch, rec.nodes, rec.depth]
        return [
            rec.id, rec.epoch, P.pack_seqs(run.seqs), run.bound,
            self.driver.ledger.task_count,
        ]

    def requeue(self, rec: TaskRecord) -> None:
        """A lease was lost (worker death or retire handback): make its
        work leasable again and count the re-lease."""
        if rec.run is not None:
            # The run goes back to the driver, which re-cuts it; this
            # record is spent.
            rec.state = CANCELLED
            self.driver.requeue(rec.run)
            return
        # Bump the epoch *before* re-queueing: anything the previous
        # holder still says about this task is stale by construction.
        rec.epoch += 1
        rec.state = QUEUED
        rec.worker = None
        self.queue.appendleft(rec.id)
        self.driver.metrics.reassigned += 1

    def add_offcuts(self, depth: int, nodes: list, idle: int) -> None:
        """Queue the subtrees a lease-holder handed over (STOLEN, OFFCUT)
        — or the driver's first lease — as one record per idle worker,
        every ``idle``-th node each, so that each of them gets one lease
        with big and small subtrees in it.  With nobody idle the queue
        does the balancing: one record per subtree, leased as slots come
        free."""
        shares = min(idle, len(nodes)) or len(nodes)
        for first in range(shares):
            rec = TaskRecord(
                id=self._new_task_id(), nodes=nodes[first::shares], depth=depth
            )
            self.tasks[rec.id] = rec
            self.queue.append(rec.id)
        self.outstanding += shares

    def job_message(self) -> dict:
        """The JOB frame for a (possibly late-joining) worker."""
        job = self.driver.job
        return {
            "type": P.JOB,
            "job": self.id,
            "factory": self.payload["factory"],
            "factory_args": self.payload.get("factory_args") or [],
            "stype_kind": self.payload["stype_kind"],
            "stype_kwargs": dict(self.payload.get("stype_kwargs") or {}),
            "budget": int(self.payload.get("budget", 1000)),
            "share_poll": job.share_poll,
            "coordination": job.coordination,
            "chunked": job.chunked,
            "d_cutoff": job.d_cutoff,
            "best": self.driver.best,
        }


class Coordinator:
    """Asyncio coordinator server.  See the module docstring.

    Args:
        host/port: listen address (port 0 picks a free port; the bound
            port is in :attr:`port` after :meth:`start`).
        heartbeat_interval: the cadence workers are told to beat at.
        heartbeat_timeout: silence longer than this declares a worker
            dead and re-leases its tasks.
        wire_codec: the body format this coordinator *prefers*
            (``"binary"`` or ``"json"``); each connection settles on it
            via HELLO/WELCOME negotiation, so a JSON-only peer still
            talks to a binary-preferring coordinator.
        faults: optional coordinator-side fault injection (partition
            windows dropping inbound frames from named workers) — see
            :mod:`repro.cluster.faults`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 5.0,
        wire_codec: str = "binary",
        faults: Optional[CoordinatorFaults] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.wire_codec = P.get_codec(wire_codec).name
        self._faults = faults if faults is not None and faults else None
        self.workers: dict[int, WorkerConn] = {}
        # Optional observer of strict incumbent improvements — the
        # gateway's status streams feed off this.  Called on the loop
        # thread with the new objective value; must be fast and must
        # not raise (it is guarded anyway).
        self.on_incumbent: Optional[Callable[[int], None]] = None
        self._next_worker = 0
        self._retire_on_join: set[str] = set()
        self._next_job = 0
        self._job: Optional[_Job] = None
        self._specs = SpecCache()
        self._server: Optional[asyncio.AbstractServer] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._worker_event: Optional[asyncio.Event] = None
        self._loop = None
        self.shutting_down = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start the accept loop + watchdog."""
        self._loop = asyncio.get_running_loop()
        self._worker_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog_task = asyncio.create_task(self._watchdog())

    async def stop(self, *, drain_workers: bool = True) -> None:
        """Stop serving.  With ``drain_workers`` a SHUTDOWN is broadcast
        first so workers finish their current task and exit cleanly."""
        self.shutting_down = True
        if drain_workers:
            for worker in list(self.workers.values()):
                self._post(worker, {"type": P.SHUTDOWN})
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._job is not None:
            self._fail_job(self._job, ClusterJobCancelled("coordinator stopped"))
        for worker in list(self.workers.values()):
            self._drop_worker(worker)

    async def wait_for_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Block until at least ``n`` workers are connected."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(self.workers) < n:
            self._worker_event.clear()
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ClusterError(
                    f"only {len(self.workers)} of {n} workers joined "
                    f"within {timeout:.1f}s"
                )
            try:
                await asyncio.wait_for(self._worker_event.wait(), remaining)
            except asyncio.TimeoutError:
                continue

    # -- fleet introspection / elastic control ------------------------------

    def load_stats_now(self) -> dict:
        """A point-in-time load snapshot (loop thread only).

        This is the signal feed for :class:`repro.deploy.Adaptive`:
        backlog (subtrees queued here, plus the ones each budget worker
        last reported in its own pool), lease pressure,
        outstanding-task count, and per-worker liveness/lease state —
        everything the scaling policy needs, with no extra bookkeeping
        beyond what the scheduler already maintains.
        """
        now = time.monotonic()
        job = self._job
        active = job is not None and job.state == "running"
        if not active:
            queued = 0
        elif job.driver.ledger is not None:
            queued = job.driver.backlog
        else:
            # Runnable and unstarted: the subtrees queued here, plus
            # what the lease-holders keep in their own pools.
            queued = sum(
                len(job.tasks[tid].nodes) for tid in job.queue
            ) + sum(w.pool for w in self.workers.values())
        workers = [
            {
                "id": w.id,
                "name": w.name,
                "leased": len(w.tasks),
                "pool": w.pool,
                "retiring": w.retiring,
                "last_seen_age": max(0.0, now - w.last_seen),
            }
            for w in self.workers.values()
        ]
        return {
            "connected": len(self.workers),
            "retiring": sum(1 for w in self.workers.values() if w.retiring),
            "job_active": active,
            "queued_tasks": queued,
            "leased_tasks": (
                sum(len(w.tasks) for w in self.workers.values()) if active else 0
            ),
            "outstanding": job.outstanding if active else 0,
            "reassigned": job.driver.metrics.reassigned if active else 0,
            "workers": workers,
        }

    async def load_stats(self) -> dict:
        """Async wrapper over :meth:`load_stats_now` for cross-thread use."""
        return self.load_stats_now()

    def retire_worker_now(self, name: str) -> bool:
        """Begin retiring the named worker (loop thread only).

        Sends RETIRE and stops leasing to it; the worker finishes its
        in-flight task, RELEASEs unstarted leases, says BYE and exits.
        Returns False if no live worker has that name (should one join
        under it later, it is retired on arrival).  Idempotent.
        """
        for worker in self.workers.values():
            if worker.name == name and worker.alive:
                if not worker.retiring:
                    worker.retiring = True
                    self._post(worker, {"type": P.RETIRE})
                return True
        # Not connected (yet).  Remember the request: a worker that was
        # still starting up when it was retired must join as retiring,
        # or it is leased work in the instant before its stop reaches it
        # and says BYE holding it.
        self._retire_on_join.add(name)
        return False

    async def retire_worker(self, name: str) -> bool:
        """Async wrapper over :meth:`retire_worker_now`."""
        return self.retire_worker_now(name)

    # -- job execution ------------------------------------------------------

    async def run_job(
        self, payload: dict, *, timeout: Optional[float] = None
    ) -> SearchResult:
        """Run one search to completion across the connected workers.

        ``payload`` is the wire job definition: ``factory`` (dotted
        path), ``factory_args``, ``stype_kind``, ``stype_kwargs``,
        ``coordination`` and the knobs of
        :data:`~repro.runtime.worker.JOB_KNOBS`.  Raises ValueError for
        a coordination the cluster does not run or a knob below 1, and
        :class:`ClusterJobFailed`, :class:`ClusterJobTimeout` or
        :class:`ClusterJobCancelled`.
        """
        if self._job is not None:
            raise ClusterError("a cluster job is already running")
        self._next_job += 1
        try:
            job = _Job(
                self._next_job, payload, asyncio.get_running_loop(), self._specs
            )
        except (P.ProtocolError, TypeError) as exc:
            raise ClusterJobFailed(f"bad job payload: {exc}") from exc
        self._job = job

        def engage() -> None:
            msg = job.job_message()
            for worker in list(self.workers.values()):
                # Steal state is per-job; a STOLEN still in flight for the
                # previous job is dropped by the job-id check in _dispatch.
                worker.steal_pending = False
                worker.steal_dry = False
                worker.pool = 0
                self._post(worker, msg)

        try:
            # Synchronous on the loop: phase 1 is the region above
            # d_cutoff, small by construction.
            tasks = job.driver.start(engage)
        except Exception as exc:
            self._fail_job(job, ClusterJobFailed(
                f"frontier walk failed: {type(exc).__name__}: {exc}"
            ))
            raise job.done.exception() from exc
        for roots, depth in tasks:
            job.add_offcuts(depth, P.encode_node(roots), 1)
        if job.driver.ledger is not None:
            job.outstanding = job.driver.ledger.task_count
        if job.driver.finished:
            self._complete_job(job)
        else:
            self._pump()
        try:
            return await asyncio.wait_for(asyncio.shield(job.done), timeout)
        except asyncio.TimeoutError:
            self._fail_job(job, ClusterJobTimeout(
                f"cluster job exceeded {timeout:.3f}s"
            ))
            raise job.done.exception() from None

    def cancel_active_job(self, reason: str = "cancelled") -> bool:
        """Cancel the running job (thread-unsafe; see ClusterHandle)."""
        job = self._job
        if job is None or job.state != "running":
            return False
        self._fail_job(job, ClusterJobCancelled(reason))
        return True

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket

            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        worker: Optional[WorkerConn] = None
        try:
            hello = await self._read_frame(reader)
            if (
                hello is None
                or hello.get("type") != P.HELLO
                or hello.get("version") != P.PROTOCOL_VERSION
            ):
                writer.write(P.frame_bytes({
                    "type": P.ERROR,
                    "reason": f"expected HELLO with protocol version {P.PROTOCOL_VERSION}",
                }))
                return
            codec_name = P.negotiate(hello.get("codecs"), self.wire_codec)
            self._next_worker += 1
            worker = WorkerConn(
                id=self._next_worker,
                name=str(hello.get("name") or f"worker-{self._next_worker}"),
                writer=writer,
                slots=max(1, int(hello.get("slots", 1))),
                last_seen=time.monotonic(),
            )
            self.workers[worker.id] = worker
            self._post(worker, {
                "type": P.WELCOME,
                "worker": worker.id,
                "heartbeat": self.heartbeat_interval,
                "codec": codec_name,
            })
            # Everything after the WELCOME speaks the negotiated codec.
            worker.codec = P.get_codec(codec_name)
            if worker.name in self._retire_on_join:
                worker.retiring = True
                self._post(worker, {"type": P.RETIRE})
            if self.shutting_down:
                self._post(worker, {"type": P.SHUTDOWN})
            elif self._job is not None and self._job.state == "running":
                self._post(worker, self._job.job_message())
            self._worker_event.set()
            self._pump()
            while worker.alive:
                msg = await self._read_frame(reader)
                if msg is None:
                    break
                # Fault injection: a partitioned worker's frames vanish
                # before they can refresh liveness, so the watchdog
                # re-leases exactly as it would for a severed link.
                if self._faults is not None and self._faults.drop_inbound(
                    worker.name, msg["type"]
                ):
                    continue
                worker.last_seen = time.monotonic()
                if msg["type"] == P.BYE:
                    break
                self._dispatch(worker, msg)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        except P.ProtocolError:
            if worker is not None:
                self._post(worker, {
                    "type": P.ERROR, "reason": "protocol violation",
                })
        finally:
            if worker is not None:
                self._drop_worker(worker)
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    async def _read_frame(reader) -> Optional[dict]:
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF on a frame boundary
            raise ConnectionError("connection closed mid-frame") from None
        length = int.from_bytes(header, "big")
        if length > P.MAX_FRAME:
            raise P.ProtocolError(f"peer announced a {length}-byte frame")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ConnectionError("connection closed mid-frame") from None
        return P.decode_body(body)

    def _post(self, worker: WorkerConn, *msgs: dict) -> None:
        """Queue frames to a worker, in one write (single-writer event
        loop, so a plain buffered write is race-free; errors mark the
        worker dead and the heartbeat watchdog finishes the cleanup).
        One write because the first frame may set the receiver
        computing on this thread's core: a second write can be
        milliseconds behind it."""
        if not worker.alive:
            return
        try:
            worker.writer.write(
                b"".join(P.frame_bytes(msg, worker.codec) for msg in msgs)
            )
        except Exception:
            self._drop_worker(worker)

    # -- message dispatch ---------------------------------------------------

    def _dispatch(self, worker: WorkerConn, msg: dict) -> None:
        mtype = msg["type"]
        pool = msg.get("pool")
        if isinstance(pool, int):
            worker.pool = pool
        if mtype == P.HEARTBEAT:
            return  # last_seen already refreshed
        job = self._job
        if job is None or job.state != "running" or msg.get("job") != job.id:
            return  # stale traffic for a finished job: drop silently
        if mtype == P.INCUMBENT:
            self._on_incumbent(worker, job, msg)
        elif mtype == P.OFFCUT:
            self._take_handover(worker, job, msg)
        elif mtype == P.STOLEN:
            self._on_stolen(worker, job, msg)
        elif mtype == P.RESULT:
            self._on_result(worker, job, msg)
        elif mtype == P.RELEASE:
            self._on_release(worker, job, msg)
        elif mtype == P.ERROR:
            self._fail_job(job, ClusterJobFailed(
                f"worker {worker.name!r} cannot run the job: "
                f"{msg.get('reason', 'unspecified')}"
            ))

    def _valid_lease(self, worker: WorkerConn, job: _Job, msg: dict):
        """The task record iff this frame matches a live lease held by
        its sender at the current epoch; None drops the frame."""
        rec = job.tasks.get(msg.get("task"))
        if (
            rec is None
            or rec.state != LEASED
            or rec.worker != worker.id
            or rec.epoch != msg.get("epoch")
        ):
            return None
        return rec

    def _on_incumbent(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        driver = job.driver
        value = msg.get("value")
        if driver.job.enum or driver.ledger is not None or not isinstance(value, int):
            # Ordered workers never publish mid-task (fixed-bound tasks
            # are pure); the only incumbent authority is the ledger.
            return
        if driver.merge(Incumbent(value, P.decode_node(msg.get("node")))):
            # Strict improvement: rebroadcast to everyone else.  Ties
            # and stale publishes stop here.
            self._publish_best(job, worker)
        # A goal reached is completed on the RESULT frame, not here.
        # The publishing worker broke out of its search loop on this
        # same improvement and is guaranteed to follow with a RESULT
        # (goal=True) carrying its node counts; completing on the
        # INCUMBENT would race ahead of it and report a search that
        # visited zero nodes.  If the worker dies in between, its lease
        # is re-run and the goal is rediscovered.

    def _publish_best(self, job: _Job, sender: Optional[WorkerConn] = None) -> None:
        """Broadcast the driver's new best: to every worker but its
        sender, and to the ``on_incumbent`` observer."""
        value = job.driver.best
        job.driver.metrics.broadcasts += 1
        out = {"type": P.INCUMBENT, "job": job.id, "value": value}
        for other in list(self.workers.values()):
            if other is not sender:
                self._post(other, out)
        if self.on_incumbent is not None:
            try:
                self.on_incumbent(value)
            except Exception:
                pass

    def _take_handover(self, worker: WorkerConn, job: _Job, msg: dict) -> int:
        """Queue a STOLEN's or OFFCUT's subtrees for the workers with no
        lease.  Returns how many were accepted."""
        nodes = msg.get("nodes") or []
        rec = self._valid_lease(worker, job, msg) if nodes else None
        if rec is None:
            return 0
        idle = sum(1 for w in self._eligible() if not w.tasks)
        job.add_offcuts(int(msg.get("depth", rec.depth + 1)), nodes, idle)
        self._pump()
        return len(nodes)

    def _on_stolen(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        """A steal answer: half of the shallowest level of the victim's
        pool, or an empty list meaning a stack-stealing victim's pool
        and stack had nothing to give."""
        worker.steal_pending = False
        if msg.get("nodes"):
            job.driver.metrics.steals += self._take_handover(worker, job, msg)
        else:
            # Don't re-ask until the victim reports fresh progress (the
            # flag clears on its next RESULT); retry other victims now.
            worker.steal_dry = True
            self._pump()

    def _on_result(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        """A lease's report, through the driver: a sharing lease's
        counters and best, or an Ordered run's blocks for the ledger.
        An Ordered frame flagged ``more`` is an early flush: the run
        lease stays live.  A new best is broadcast — for Ordered the
        *finalised-prefix* best, monotone and deterministic, to every
        worker."""
        rec = self._valid_lease(worker, job, msg)
        if rec is None:
            return
        # Fresh progress: empty-handed steal verdicts are stale now, and
        # any STEAL this worker left unanswered died with the task.
        worker.steal_pending = False
        worker.pool = 0  # a lease ends when its holder's pool is dry
        for other in self.workers.values():
            other.steal_dry = False
        driver = job.driver
        done = rec.run is None or not msg.get("more")
        if done:
            rec.state = DONE
            rec.worker = None
            worker.tasks.discard(rec.id)
        job.contributors.add(worker.id)
        if rec.run is not None:
            moved = driver.accept(self._leased_blocks(job, rec, msg), done)
            job.outstanding = driver.ledger.task_count - driver.ledger.next_seq
        else:
            moved = driver.merge(*self._lease_report(job, msg))
            job.outstanding -= 1
        if moved:
            self._publish_best(job, worker if rec.run is None else None)
        if driver.goal or job.outstanding == 0:
            # A goal, or distributed termination: every task ever created
            # has been accepted exactly once (epochs make reassignment
            # idempotent for this counter), so the whole tree is searched.
            self._complete_job(job)
            return
        self._pump()

    @staticmethod
    def _lease_report(job: _Job, msg: dict) -> tuple:
        """A sharing RESULT as the driver's ``merge`` arguments: what
        the lease found (a witness travels with its value, or the value
        stays out), its counters — ``spawns`` the subtrees it split off
        its stacks, wherever each was then searched — and its goal."""
        counters = SearchMetrics(**{
            name: int(msg.get(name, 0))
            for name in ("nodes", "prunes", "backtracks", "max_depth", "spawns")
        })
        found = msg.get("knowledge")
        if not job.driver.job.enum:
            value, node = msg.get("value"), P.decode_node(msg.get("node"))
            valid = node is not None and isinstance(value, int)
            found = Incumbent(value, node) if valid else None
        return found, counters, bool(msg.get("goal"))

    @staticmethod
    def _leased_blocks(job: _Job, rec: TaskRecord, msg: dict) -> list:
        """An Ordered RESULT's blocks, minus any that is malformed or
        names a task outside its lease."""
        driver = job.driver
        leased = set(rec.run.seqs)
        blocks = []
        for wire in msg.get("blocks") or []:
            try:
                block = P.unpack_block(wire, driver.job.enum, driver.ledger.task_count)
            except P.ProtocolError:
                continue
            if leased.issuperset(block["seqs"]):
                blocks.append(block)
        return blocks

    def _on_release(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        """Retire handback: re-queue each returned lease under a bumped
        epoch (the cooperative twin of the crash re-lease path — same
        accounting, but no partial state ever existed)."""
        released = 0
        for pair in msg.get("tasks") or []:
            try:
                task_id, epoch = int(pair[0]), int(pair[1])
            except (TypeError, ValueError, IndexError):
                continue
            rec = self._valid_lease(worker, job, {"task": task_id, "epoch": epoch})
            if rec is None:
                continue
            worker.tasks.discard(rec.id)
            job.requeue(rec)
            released += 1
        if released:
            self._pump()

    # -- scheduling / fault handling ----------------------------------------

    def _pump(self) -> None:
        """Lease queued tasks to free slots, round-robin, batched.

        Each pass grants at most one lease per worker with a free slot,
        workers holding the fewest leases first — a hand-over is for
        whoever has nothing, not for a prefetch slot of the worker that
        gave it away; passes repeat until there is nothing to lease or
        every slot is full.  Round-robin (not filling one worker
        greedily) is what spreads the first few offcuts across the
        fleet — with prefetch slots a greedy fill would let one worker
        hoard the whole frontier and serialise the search.  All of a
        worker's grants then go out in ONE batched TASK frame (``leases:
        [[id, epoch, [node, ...], depth], ...]``).  An ordered job
        leases *runs* of task numbers: its entries are ``[id, epoch,
        seqs, bound, of]``, cut by the job's driver as slots come
        free.  When a budget or stack-stealing job has nothing
        queued, idle workers are served by asking busy ones
        (:meth:`_victims`); a worker's STEAL leaves in the same write
        as its TASK.
        """
        job = self._job
        if job is None or job.state != "running":
            return
        eligible = sorted(self._eligible(), key=lambda w: len(w.tasks))
        batches: dict[int, list[TaskRecord]] = {}
        granted = True
        while granted:
            granted = False
            for worker in eligible:
                if not worker.alive or len(worker.tasks) >= worker.slots:
                    continue
                if job.driver.ledger is not None:
                    rec = job.lease_run(len(eligible))
                else:
                    rec = None
                    while job.queue:
                        cand = job.tasks[job.queue.popleft()]
                        if cand.state == QUEUED:
                            rec = cand
                            break
                if rec is None:
                    break  # nothing (more) to lease
                rec.state = LEASED
                rec.worker = worker.id
                worker.tasks.add(rec.id)
                # A fresh lease is fresh stack: an empty-handed steal
                # verdict from before it says nothing about it.
                worker.steal_dry = False
                batches.setdefault(worker.id, []).append(rec)
                granted = True
        victims = (
            self._victims(eligible) if job.driver.ledger is None and not job.queue else ()
        )
        for worker in eligible:
            frames = []
            if worker.id in batches:
                frames.append({
                    "type": P.TASK,
                    "job": job.id,
                    "leases": [job.lease_entry(r) for r in batches[worker.id]],
                })
            if worker.id in victims:
                worker.steal_pending = True
                frames.append({"type": P.STEAL, "job": job.id})
            if frames:
                self._post(worker, *frames)

    def _eligible(self) -> list:
        """The workers that may be leased work."""
        return [w for w in self.workers.values() if w.alive and not w.retiring]

    @staticmethod
    def _victims(eligible: list) -> set:
        """The busy workers (their ids) to ask for work on behalf of
        the idle ones.

        One STEAL per idle worker per pass, aimed at the victims with
        the most to give (the fullest pool as last reported, then the
        most leases); a victim with a STEAL already in flight, or whose
        last answer was empty (``steal_dry``), is skipped until it
        reports progress or is granted a fresh lease.  A victim hands
        over half of the shallowest level of its pool; a stack-stealing
        one whose pool is empty splits its live stack first and may
        answer empty, a budget one answers only once it has something,
        so a request to it stays pending until a STOLEN or the lease's
        RESULT.
        """
        idle = sum(1 for w in eligible if not w.tasks)
        victims = [
            w for w in eligible
            if w.tasks and not w.steal_pending and not w.steal_dry
        ]
        victims.sort(key=lambda w: (w.pool, len(w.tasks)), reverse=True)
        return {w.id for w in victims[:idle]}

    def _drop_worker(self, worker: WorkerConn) -> None:
        """Remove a worker; re-lease its tasks (or fail an enumeration
        job, whose partial accumulator died with the worker)."""
        if not worker.alive:
            return
        worker.alive = False
        self.workers.pop(worker.id, None)
        try:
            worker.writer.close()
        except Exception:
            pass
        job = self._job
        leased = [t for t in worker.tasks]
        worker.tasks.clear()
        if job is None or job.state != "running" or not leased:
            return
        if job.driver.job.enum and job.driver.ledger is None:
            # Ordered enumeration is exempt: its tasks are pure
            # functions of (root, bound) with no shared accumulator, so
            # a crashed lease is simply re-run — bit-identical.
            self._fail_job(job, ClusterJobFailed(
                f"worker {worker.name!r} was lost holding "
                f"{len(leased)} enumeration task(s); a partial "
                "accumulator cannot be reconstructed, so completing "
                "would silently miscount"
            ))
            return
        for tid in leased:
            rec = job.tasks.get(tid)
            if rec is None or rec.state != LEASED:
                continue
            job.requeue(rec)
        self._pump()

    async def _watchdog(self) -> None:
        """Declare workers dead after ``heartbeat_timeout`` of silence."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if now - worker.last_seen > self.heartbeat_timeout:
                    self._drop_worker(worker)

    # -- completion ---------------------------------------------------------

    def _complete_job(self, job: _Job) -> None:
        if job.state != "running":
            return
        job.state = "finished"
        result = job.driver.result(max(1, len(job.contributors)))
        if not job.done.done():
            job.done.set_result(result)
        self._end_job(job)

    def _fail_job(self, job: _Job, exc: ClusterError) -> None:
        if job.state != "running":
            return
        job.state = "failed"
        if not job.done.done():
            job.done.set_exception(exc)
        self._end_job(job)

    def _end_job(self, job: _Job) -> None:
        msg = {"type": P.JOB_DONE, "job": job.id}
        for worker in list(self.workers.values()):
            worker.tasks.clear()
            worker.pool = 0
            self._post(worker, msg)
        if self._job is job:
            self._job = None


class ClusterHandle:
    """A coordinator running on a dedicated thread, for sync callers.

    The CLI, the service backend, tests and benchmarks all live in
    synchronous code; this wrapper owns the event loop thread and
    exposes the coordinator's operations as blocking calls.  All
    coordinator state is touched only on the loop thread, so the sync
    facade needs no locks of its own.
    """

    def __init__(self, **coordinator_kwargs: Any) -> None:
        self._kwargs = coordinator_kwargs
        self.coordinator: Optional[Coordinator] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the coordinator; returns (host, port)."""
        if self._thread is not None:
            raise RuntimeError("handle already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()
            # Drain cancelled tasks so the loop closes without warnings.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

        self._thread = threading.Thread(target=_run, name="cluster-coordinator")
        self._thread.daemon = True
        self._thread.start()
        started.wait()
        self.coordinator = Coordinator(**self._kwargs)
        self._call(self.coordinator.start(), timeout=10.0)
        return self.coordinator.host, self.coordinator.port

    def shutdown(self, *, drain_workers: bool = True, timeout: float = 10.0) -> None:
        """Stop the coordinator (optionally draining workers) and the
        loop thread.  Idempotent."""
        if self._loop is None:
            return
        if self.coordinator is not None:
            try:
                self._call(
                    self.coordinator.stop(drain_workers=drain_workers),
                    timeout=timeout,
                )
            except Exception:
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop = None
        self._thread = None

    # -- operations ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.coordinator.host, self.coordinator.port

    def n_workers(self) -> int:
        """How many workers are currently connected."""
        return len(self.coordinator.workers)

    def wait_for_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Block until ``n`` workers are connected.

        On timeout raises a :class:`ClusterError` naming how many
        workers actually connected versus how many were required —
        never a bare TimeoutError, whichever layer timed out (the
        coordinator-side deadline or this facade's own call guard).
        """
        try:
            self._call(
                self.coordinator.wait_for_workers(n, timeout),
                timeout=None if timeout is None else timeout + 1.0,
            )
        except (concurrent.futures.TimeoutError, asyncio.TimeoutError):
            raise ClusterError(
                f"only {self.n_workers()} of {n} required workers "
                f"connected within {timeout:.1f}s"
            ) from None

    def load_stats(self) -> dict:
        """Thread-safe point-in-time load snapshot (see
        :meth:`Coordinator.load_stats_now`)."""
        return self._call(self.coordinator.load_stats(), timeout=10.0)

    def retire_worker(self, name: str) -> bool:
        """Thread-safe retire request for the named worker."""
        return self._call(self.coordinator.retire_worker(name), timeout=10.0)

    def run_job(
        self, payload: dict, *, timeout: Optional[float] = None
    ) -> SearchResult:
        """Run one job to completion (blocking)."""
        return self.run_job_future(payload, timeout=timeout).result()

    def run_job_future(self, payload: dict, *, timeout: Optional[float] = None):
        """Submit a job; returns a ``concurrent.futures.Future``."""
        return asyncio.run_coroutine_threadsafe(
            self.coordinator.run_job(payload, timeout=timeout), self._loop
        )

    def cancel_job(self, reason: str = "cancelled") -> None:
        """Cancel the active job (thread-safe)."""
        self._loop.call_soon_threadsafe(
            self.coordinator.cancel_active_job, reason
        )

    def _call(self, coro, *, timeout: Optional[float]):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)
