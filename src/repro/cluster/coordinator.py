"""The cluster coordinator: the transport of one job at a time.

One coordinator owns the authoritative state of a distributed search,
in two units it drives on its loop thread: the job is the
:class:`~repro.runtime.driver.JobDriver` the process fleet's parent runs
too (first work or runs, published best, merge, Ordered ledger,
result), and its
work is the :class:`~repro.cluster.leases.LeaseTable` (every record
queued or held under an epoch, the grant round, steal mediation, and
termination).  What is here is what only a socket needs: the accept
loop and the HELLO/WELCOME handshake, heartbeats and the watchdog,
retire and shutdown, reading frames into the two units
(:meth:`_dispatch`) and writing what they decide (:meth:`_pump`,
:meth:`_post`).  Only a *strict* improvement of the best is
rebroadcast, so bound traffic is proportional to how often the answer
improves (a stale bound prunes less, never wrongly, §4.3).

Fault model (docs/cluster.md has the argument): a worker that
disconnects or misses heartbeats is dead, and its leases are requeued
under a bumped epoch, so frames it still sends are dropped.  A dead
holder's lease re-runs from its roots — idempotent for optimisation
and decision (``metrics.reassigned`` counts it) and exact for a run,
which reports once, while a Budget or Stack-Stealing enumeration fails
loudly, its partial accumulator lost with the worker.

One job runs at a time (the service's
:class:`~repro.cluster.backend.ClusterBackend` holds a lock).  Workers
may join at any time, mid-job too: they are sent the active JOB and
leased work at once, which is how a restarted worker rejoins.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.cluster import protocol as P
from repro.cluster.faults import CoordinatorFaults
from repro.cluster.leases import Lease, LeaseTable
from repro.core.backends import backend_for
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Incumbent
from repro.runtime.driver import JobDriver
from repro.runtime.worker import SpecCache
from repro.util.loop import LoopThread

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


def _field(msg: dict, name: str, kind: type, default: Any) -> Any:
    """``msg[name]``, ``default`` when absent, if it is exactly a
    ``kind``; otherwise a :class:`~repro.cluster.protocol.ProtocolError`,
    which the sender is answered with ``ERROR`` for."""
    value = msg.get(name, default)
    if type(value) is not kind:
        raise P.ProtocolError(f"{msg['type']} field {name!r} must be {kind.__name__}")
    return value


@dataclass
class WorkerConn:
    """Coordinator-side record of one connected worker."""

    id: int
    name: str
    writer: Any
    slots: int = 1
    last_seen: float = 0.0
    alive: bool = True
    retiring: bool = False  # told to RETIRE: no new leases, drain out
    # The negotiated wire codec for frames *to* this worker (inbound
    # decoding auto-detects).  None until the WELCOME has been posted,
    # so the handshake itself always travels as JSON.
    codec: Any = None


class _Job:
    """Coordinator-side state of the active search job: its
    :class:`~repro.runtime.driver.JobDriver` and its
    :class:`~repro.cluster.leases.LeaseTable`."""

    def __init__(self, job_id: int, payload: dict, specs: SpecCache) -> None:
        self.id = job_id
        self.payload = payload
        self.driver = JobDriver(P.decode_job(job_id, payload, specs))
        backend_for("cluster", self.driver.job.coordination)  # wire input: ValueError
        self.leases = LeaseTable(self.driver)
        self.contributors: set[int] = set()
        self.done: asyncio.Future = asyncio.get_running_loop().create_future()

    def lease_entry(self, lease: Lease) -> list:
        """One granted lease as its ``leases`` entry of a TASK frame."""
        run = lease.run
        if run is None:
            return [lease.id, lease.epoch, lease.nodes, lease.depth]
        return [lease.id, lease.epoch, P.pack_run(run.stretches), run.bound]

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
        self.shutting_down = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start the accept loop + watchdog."""
        self._worker_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog_task = asyncio.create_task(self._watchdog())

    async def stop(self, *, drain_workers: bool = True) -> None:
        """Stop serving.  With ``drain_workers`` every worker is sent
        RETIRE first, so it says BYE and exits for good instead of
        reconnecting.  A worker that joins while this runs is sent
        RETIRE either way."""
        self.shutting_down = True
        if drain_workers:
            for worker in list(self.workers.values()):
                self._retire(worker)
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

        The signal feed of :class:`repro.deploy.Adaptive`, read off
        the lease table: backlog (``queued_tasks``), lease pressure,
        ``outstanding`` work, and per-worker liveness and leases.
        """
        now = time.monotonic()
        job = self._job
        holders = job.leases.holders if job else {}
        workers = []
        for w in self.workers.values():
            holder = holders.get(w.id)
            workers.append({
                "id": w.id,
                "name": w.name,
                "leased": len(holder.leases) if holder else 0,
                "pool": holder.pool if holder else 0,
                "retiring": w.retiring,
                "last_seen_age": max(0.0, now - w.last_seen),
            })
        return {
            "connected": len(self.workers),
            "retiring": sum(1 for w in self.workers.values() if w.retiring),
            "job_active": job is not None,
            "queued_tasks": job.leases.backlog if job else 0,
            "leased_tasks": job.leases.leased if job else 0,
            "outstanding": job.leases.outstanding if job else 0,
            "reassigned": job.driver.metrics.reassigned if job else 0,
            "workers": workers,
        }

    def retire_worker_now(self, name: str) -> bool:
        """Begin retiring the named worker (loop thread only).

        Sends RETIRE and stops leasing to it; the worker finishes its
        in-flight task, RELEASEs unstarted leases, says BYE and exits.
        Returns False if no live worker has that name (should one join
        under it later, it is retired on arrival).  Idempotent.
        """
        for worker in self.workers.values():
            if worker.name == name and worker.alive:
                self._retire(worker)
                return True
        # Not connected (yet).  Remember the request: a worker that was
        # still starting up when it was retired must join as retiring,
        # or it is leased work in the instant before its stop reaches it
        # and says BYE holding it.
        self._retire_on_join.add(name)
        return False

    def _retire(self, worker: WorkerConn) -> None:
        """Lease ``worker`` nothing more and send it RETIRE (once)."""
        if not worker.retiring:
            worker.retiring = True
            if self._job is not None:
                self._job.leases.retire(worker.id)
            self._post(worker, {"type": P.RETIRE})

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
            job = _Job(self._next_job, payload, self._specs)
        except (P.ProtocolError, TypeError) as exc:
            raise ClusterJobFailed(f"bad job payload: {exc}") from exc
        self._job = job
        for worker in self.workers.values():
            if not worker.retiring:
                job.leases.join(worker.id, worker.slots)

        def engage() -> None:
            msg = job.job_message()
            for worker in list(self.workers.values()):
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
        for roots, depth in tasks:  # Budget's or Stack-Stealing's root
            job.leases.offer(P.encode_node(roots), depth)
        if job.leases.finished:
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
        if job is None:
            return False
        self._fail_job(job, ClusterJobCancelled(reason))
        return True

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker: Optional[WorkerConn] = None
        try:
            hello = await self._read_frame(reader)
            refusal = self._refuse(hello)
            if refusal:
                writer.write(P.frame_bytes({"type": P.ERROR, "reason": refusal}))
                return
            codec_name = P.negotiate(hello.get("codecs"), self.wire_codec)
            self._next_worker += 1
            worker = WorkerConn(
                id=self._next_worker,
                name=str(hello.get("name") or f"worker-{self._next_worker}"),
                writer=writer,
                slots=max(1, hello.get("slots", 1)),
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
            if self.shutting_down or worker.name in self._retire_on_join:
                self._retire(worker)
            job = self._job
            if job is not None and not worker.retiring:
                job.leases.join(worker.id, worker.slots)
                self._post(worker, job.job_message())
            self._worker_event.set()
            self._pump()
            severed = False
            while worker.alive:
                msg = await self._read_frame(reader)
                if msg is None:
                    break
                # Fault injection: a partitioned worker's frames vanish
                # before they can refresh liveness, so the watchdog
                # re-leases exactly as it would for a severed link.  TCP
                # never loses a frame and delivers the next, so neither
                # does a link that lost one: it stays severed.
                if self._faults is not None and (
                    self._faults.drop_inbound(worker.name, msg["type"]) or severed
                ):
                    severed = True
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
    def _refuse(hello: Optional[dict]) -> str:
        """Why ``hello`` is not a HELLO this coordinator admits; empty
        when it is."""
        if (
            hello is None
            or hello.get("type") != P.HELLO
            or hello.get("version") != P.PROTOCOL_VERSION
        ):
            return f"expected HELLO with protocol version {P.PROTOCOL_VERSION}"
        slots, codecs = hello.get("slots", 1), hello.get("codecs")
        if type(slots) is not int or not isinstance(codecs, (list, type(None))):
            return "malformed HELLO: slots must be an int, codecs a list"
        return ""

    @staticmethod
    async def _read_frame(reader) -> Optional[dict]:
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF on a frame boundary
            raise  # a torn frame: the connection handler closes it
        length = int.from_bytes(header, "big")
        if length > P.MAX_FRAME:
            raise P.ProtocolError(f"peer announced a {length}-byte frame")
        return P.decode_body(await reader.readexactly(length))

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
        job = self._job
        if job is not None and isinstance(msg.get("pool"), int):
            job.leases.report_pool(worker.id, msg["pool"])
        if mtype == P.HEARTBEAT:
            return  # last_seen already refreshed
        if job is None or msg.get("job") != job.id:
            return  # stale traffic for a finished job: drop silently
        if mtype == P.INCUMBENT:
            self._on_incumbent(worker, job, msg)
        elif mtype == P.OFFCUT:
            self._take_handover(worker, job, msg)
        elif mtype == P.STOLEN:
            # A steal answer: half of the shallowest level of the
            # victim's pool, or nothing (a stack-stealing victim's pool
            # and stack had nothing to give).
            job.leases.steal_answered(worker.id, not msg.get("nodes"))
            job.driver.metrics.steals += self._take_handover(worker, job, msg)
        elif mtype == P.RESULT:
            self._on_result(worker, job, msg)
        elif mtype == P.RELEASE:
            self._on_release(worker, job, msg)
        elif mtype == P.ERROR:
            self._fail_job(job, ClusterJobFailed(
                f"worker {worker.name!r} cannot run the job: "
                f"{msg.get('reason', 'unspecified')}"
            ))

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
        # A goal is completed on the RESULT (goal=True) that follows,
        # carrying the publisher's node counts: completing here would
        # report a search of zero nodes.  A publisher that dies in
        # between is re-run, and the goal rediscovered.

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
        lease, and grant.  Returns how many were accepted; a run is
        never split, so one named is a protocol violation."""
        nodes = _field(msg, "nodes", list, [])
        lease = job.leases.held(worker.id, msg.get("task"), msg.get("epoch"))
        if lease is not None and lease.run is not None:
            raise P.ProtocolError(f"{msg['type']} names run lease {lease.id}")
        accepted = len(nodes) if lease is not None else 0
        if accepted:
            job.leases.hand_over(nodes, _field(msg, "depth", int, lease.depth + 1))
        self._pump()
        return accepted

    def _on_result(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        """A lease's report, through the driver: an Ordered run's blocks
        for the ledger, else counters and best.  An Ordered frame flagged
        ``more`` is an early flush: the run lease stays held.  A new best
        is broadcast — for Ordered the *finalised-prefix* best, monotone
        and deterministic, to every worker."""
        lease = job.leases.held(worker.id, msg.get("task"), msg.get("epoch"))
        if lease is None:
            return
        driver = job.driver
        ordered = driver.ledger is not None
        # Read before the lease settles: a malformed report leaves it
        # held, to be requeued when its worker is dropped for it.
        report = self._leased_blocks(job, lease, msg) if ordered else self._lease_report(job, msg)
        done = not (ordered and msg.get("more"))
        job.leases.settle(worker.id, lease, done)
        job.contributors.add(worker.id)
        if ordered:
            moved = driver.accept(report, done)
        else:
            moved = driver.merge(*report, tasks=len(lease.run.seqs) if lease.run else 0)
        if moved:
            self._publish_best(job, None if ordered else worker)
        if driver.goal or job.leases.finished:
            self._complete_job(job)
        else:
            self._pump()

    @staticmethod
    def _lease_report(job: _Job, msg: dict) -> tuple:
        """A sharing RESULT as the driver's ``merge`` arguments: what
        the lease found (a witness travels with its value, or the value
        stays out), its counters — ``spawns`` the subtrees it split off
        its stacks, wherever each was then searched — and its goal."""
        counters = SearchMetrics(**{
            name: _field(msg, name, int, 0)
            for name in ("nodes", "prunes", "backtracks", "max_depth", "spawns")
        })
        if job.driver.job.enum:
            return _field(msg, "knowledge", int, 0), counters, bool(msg.get("goal"))
        value, node = msg.get("value"), P.decode_node(msg.get("node"))
        valid = node is not None and isinstance(value, int)
        return Incumbent(value, node) if valid else None, counters, bool(msg.get("goal"))

    @staticmethod
    def _leased_blocks(job: _Job, lease: Lease, msg: dict) -> list:
        """An Ordered RESULT's blocks, minus any that is malformed or
        names a task outside its lease."""
        driver = job.driver
        leased = set(lease.run.seqs)
        blocks = []
        for wire in _field(msg, "blocks", list, []):
            try:
                block = P.unpack_block(wire, driver.job.enum, driver.ledger.task_count)
            except P.ProtocolError:
                continue
            if leased.issuperset(block["seqs"]):
                blocks.append(block)
        return blocks

    def _on_release(self, worker: WorkerConn, job: _Job, msg: dict) -> None:
        """Unstarted leases handed back, by a retiring worker or as a run
        holder's answer to a STEAL (empty: none was still queued): each
        is requeued under a bumped epoch or cut again, the cooperative
        twin of the crash re-lease path — same accounting, but no
        partial state ever existed."""
        released = False
        for pair in _field(msg, "tasks", list, []):
            if isinstance(pair, list) and len(pair) == 2:
                released = job.leases.release(worker.id, *pair) or released
        job.leases.steal_answered(worker.id, not released)
        if released:
            self._pump()

    # -- scheduling / fault handling ----------------------------------------

    def _pump(self) -> None:
        """Run a grant round of the job's lease table and post what it
        decided: all of a worker's grants in ONE batched TASK frame
        (``leases: [[id, epoch, [node, ...], depth], ...]``, or for a run
        ``[id, epoch, stretches, bound]``), and a STEAL in the same
        write."""
        job = self._job
        if job is None:
            return
        for worker, leases, steal in job.leases.grant():
            frames = []
            if leases:
                frames.append({
                    "type": P.TASK,
                    "job": job.id,
                    "leases": [job.lease_entry(lease) for lease in leases],
                })
            if steal:
                frames.append({"type": P.STEAL, "job": job.id})
            if worker in self.workers:  # a failed write may have dropped it
                self._post(self.workers[worker], *frames)

    def _drop_worker(self, worker: WorkerConn) -> None:
        """Remove a worker; re-lease what it held (or fail a sharing
        enumeration, whose partial accumulator died with it)."""
        if not worker.alive:
            return
        worker.alive = False
        self.workers.pop(worker.id, None)
        try:
            worker.writer.close()
        except Exception:
            pass
        job = self._job
        lost = job.leases.leave(worker.id) if job is not None else 0
        if not lost:
            return
        if job.driver.job.enum and not job.driver.job.runs:
            # A run is exempt: it reports once and never ships a
            # subtree, so a crashed one is simply re-run — exactly.
            self._fail_job(job, ClusterJobFailed(
                f"worker {worker.name!r} was lost holding "
                f"{lost} enumeration lease(s); a partial "
                "accumulator cannot be reconstructed, so completing "
                "would silently miscount"
            ))
            return
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
        if not job.done.done():
            job.done.set_result(job.driver.result(max(1, len(job.contributors))))
            self._end_job(job)

    def _fail_job(self, job: _Job, exc: ClusterError) -> None:
        if not job.done.done():
            job.done.set_exception(exc)
            self._end_job(job)

    def _end_job(self, job: _Job) -> None:
        if self._job is job:
            self._job = None
        msg = {"type": P.JOB_DONE, "job": job.id}
        for worker in list(self.workers.values()):
            self._post(worker, msg)


class ClusterHandle:
    """A coordinator on a :class:`~repro.util.loop.LoopThread`, its
    operations as blocking calls for the CLI, the service backend,
    tests and benchmarks.  Coordinator state is touched only on the
    loop thread, so this facade needs no locks of its own."""

    def __init__(self, **coordinator_kwargs: Any) -> None:
        self._kwargs = coordinator_kwargs
        self.coordinator: Optional[Coordinator] = None
        self._loop = LoopThread("cluster-coordinator")

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the coordinator; returns (host, port)."""
        self._loop.start()
        self.coordinator = Coordinator(**self._kwargs)
        self._loop.run(self.coordinator.start(), timeout=10.0)
        return self.coordinator.host, self.coordinator.port

    def shutdown(self, *, drain_workers: bool = True, timeout: float = 10.0) -> None:
        """Stop the coordinator (optionally draining workers) and the
        loop thread.  Idempotent."""
        if self._loop.loop is None:
            return
        if self.coordinator is not None:
            try:
                self._loop.run(
                    self.coordinator.stop(drain_workers=drain_workers), timeout
                )
            except Exception:
                pass
        self._loop.stop(timeout)

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
            self._loop.run(
                self.coordinator.wait_for_workers(n, timeout),
                None if timeout is None else timeout + 1.0,
            )
        except (concurrent.futures.TimeoutError, asyncio.TimeoutError):
            raise ClusterError(
                f"only {self.n_workers()} of {n} required workers "
                f"connected within {timeout:.1f}s"
            ) from None

    def load_stats(self) -> dict:
        """Thread-safe point-in-time load snapshot (see
        :meth:`Coordinator.load_stats_now`)."""
        return self._loop.call(self.coordinator.load_stats_now)

    def retire_worker(self, name: str) -> bool:
        """Thread-safe retire request for the named worker."""
        return self._loop.call(self.coordinator.retire_worker_now, name)

    def run_job(
        self, payload: dict, *, timeout: Optional[float] = None
    ) -> SearchResult:
        """Run one job to completion (blocking)."""
        return self.run_job_future(payload, timeout=timeout).result()

    def run_job_future(self, payload: dict, *, timeout: Optional[float] = None):
        """Submit a job; returns a ``concurrent.futures.Future``."""
        return self._loop.submit(self.coordinator.run_job(payload, timeout=timeout))

    def cancel_job(self, reason: str = "cancelled") -> None:
        """Cancel the active job (thread-safe)."""
        self._loop.loop.call_soon_threadsafe(self.coordinator.cancel_active_job, reason)
