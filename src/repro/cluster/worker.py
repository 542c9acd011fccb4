"""Cluster worker nodes: the one worker behind a TCP client.

A :class:`ClusterWorker` is the socket transport of
:class:`~repro.runtime.worker.Worker`, the worker the process fleet
runs too: the same lease loop, the same one call to
:func:`~repro.runtime.sharing.execute_lease` (Budget, Stack-Stealing,
Depth-Bounded) or :func:`~repro.core.ordered.execute_run` (Ordered),
the same spec cache.  Only the transport methods differ: the shared
incumbent integer became INCUMBENT frames, the short lease count became
the coordinator's STEAL, what a starving peer is given leaves in one
STOLEN frame and reaches it as one lease of several roots, and the
outstanding counter is the coordinator's lease table.  A lease is its
roots and everything its holder ran from its own pool, answered by one
RESULT.  An Ordered or Depth-Bounded job's leases carry no roots: a run
names its tasks by their parent's child-index path.  A failure — a JOB
this worker cannot build, a lease that raises, a run naming what this
worker's tree lacks — is answered with ERROR, which fails the job.

Threading model (per connection):

- the **receiver** thread reads frames and updates cheap shared state:
  the current job context, the local task queue, the pruning bound (a
  plain int — atomic to read under the GIL), and the retire/done flags;
- the **heartbeat** thread sends HEARTBEAT at the interval the
  coordinator announced in WELCOME;
- the **main** thread runs the search loop, so incumbent updates and
  JOB_DONE aborts land mid-task without the search ever polling the
  socket itself.

Fault behaviour: if the connection dies mid-task the task is simply
abandoned — the coordinator's heartbeat watchdog re-leases it under a
new epoch, and anything this worker still sends about it is dropped as
stale.  The worker then reconnects with *capped, jittered* exponential
backoff: the delay doubles up to ``reconnect_max`` and each sleep is
scaled by a random factor in [0.5, 1.0], so a churning fleet of
respawned workers neither stalls for minutes on an unbounded backoff
nor reconnects in thundering-herd lockstep.  A session that ends
before its WELCOME (a refused handshake) counts as a refused connect:
same backoff, same ``give_up_after``.  RETIRE is the one way to leave,
sent on elastic scale-down (see :mod:`repro.deploy`) and by a closing
coordinator: hand the pool back (OFFCUT), finish only the subtree
already *in hand*, hand every unstarted lease back in a RELEASE frame
so the coordinator re-leases it under a bumped epoch, then BYE and exit
for good — never reconnect, however the session then ends.

``run_worker`` is the process-level entry: one in-process worker, or a
fan-out of several local worker processes (each a full ClusterWorker)
that are stopped with the SIGTERM -> SIGKILL escalation of
:func:`repro.runtime.fleet.graceful_stop` — the SIGTERM handler
installed here turns the first rung into an orderly abandon-and-BYE.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import signal
import socket
import sys
import threading
import time
from typing import Optional

from repro.cluster import protocol as P
from repro.cluster.faults import WorkerFaults
from repro.core.searchtypes import Incumbent
from repro.runtime.fleet import WORKER_SWITCH_INTERVAL, graceful_stop
from repro.runtime.sharing import FLUSH, LeaseOutcome
from repro.runtime.worker import Worker, WorkerJob

__all__ = ["ClusterWorker", "run_worker", "start_worker_process"]


class ClusterWorker(Worker):
    """One worker node.  ``run()`` blocks until retired or stopped.

    A STEAL is answered by the Budget or Stack-Stealing lease in hand at
    its next poll (STOLEN), or on a run job, whose leases are never
    split, at once by a RELEASE of those still queued.

    Args:
        host/port: the coordinator's address.
        name: reported in HELLO (diagnostics on the coordinator side).
        stop_event: optional ``threading.Event``; when set the worker
            abandons its current task and exits at the next poll (the
            SIGTERM hook for process fan-out).
        wire_codec: preferred body format, offered in HELLO (the
            coordinator's own preference wins if this worker offers
            it).  ``"json"`` offers *only* JSON — the debugging veto.
        give_up_after: stop retrying (and raise) after this many seconds
            without reaching a coordinator; None retries forever.
        jitter: reconnect-jitter source returning floats in [0, 1)
            (injectable for deterministic tests; default
            ``random.random``).
        faults: optional :class:`~repro.cluster.faults.WorkerFaults`
            injection hooks (conformance chaos testing); None in normal
            operation.
    """

    # Concurrent leases asked for in HELLO.  Leases beyond the one being
    # searched sit in the local queue as prefetch (a RETIRE hands them
    # back untouched, and so does a run job's STEAL);
    # two double-buffer, so finishing a task never stalls on a RESULT ->
    # TASK round trip.
    SLOTS = 2

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        stop_event: Optional[threading.Event] = None,
        wire_codec: str = "binary",
        reconnect_initial: float = 0.1,
        reconnect_max: float = 2.0,
        give_up_after: Optional[float] = None,
        connect_timeout: float = 5.0,
        jitter=None,
        faults: Optional[WorkerFaults] = None,
    ) -> None:
        super().__init__()  # the spec cache outlives sessions: receiver thread only
        self.host = host
        self.port = port
        self.name = name or f"worker-{socket.gethostname()}"
        self._faults = faults
        self.stop_event = stop_event
        self.wire_codec = P.get_codec(wire_codec).name
        self.reconnect_initial = reconnect_initial
        self.reconnect_max = reconnect_max
        self.give_up_after = give_up_after
        self.connect_timeout = connect_timeout
        self._jitter = jitter if jitter is not None else random.random
        self.worker_id: Optional[int] = None
        self.tasks_run = 0
        self.sessions = 0
        self.retired = False
        self._finished = False
        self._send_lock = threading.Lock()
        # Monotonic time of the last frame that actually left.
        self._last_sent = 0.0  # guarded-by: _send_lock
        self._new_session(None)

    def _new_session(self, sock: Optional[socket.socket]) -> None:
        """Fresh per-session state."""
        self._sock = sock
        self._session_dead = threading.Event()
        self._local_q: queue.Queue = queue.Queue()
        self._ctx: Optional[WorkerJob] = None  # the last JOB's
        self._lease: tuple = (None, None)  # task id and epoch in hand
        self._retire = False
        self._codec = None  # negotiated in WELCOME; None => JSON
        # The unanswered STEAL frame, if any (written by the receiver
        # thread, consumed by the lease being run: at share_poll
        # cadence, and between two subtrees of a budget lease).
        self._steal_req: Optional[dict] = None

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    # -- connection management ----------------------------------------------

    def reconnect_delay(self, backoff: float) -> float:
        """The actual sleep for one reconnect attempt: the exponential
        backoff value capped at ``reconnect_max``, scaled by a random
        factor in [0.5, 1.0).  The cap bounds how long a respawned
        worker can stall before rejoining under churn; the jitter
        decorrelates a fleet of workers all chasing the same restarted
        coordinator."""
        capped = min(backoff, self.reconnect_max)
        return capped * (0.5 + 0.5 * float(self._jitter()))

    def run(self) -> None:
        """Connect (and reconnect with capped, jittered exponential
        backoff) until a retire completes or the stop event fires."""
        backoff = self.reconnect_initial
        last_contact = time.monotonic()
        while not self._finished and not self._stopped():
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            except OSError:
                pass  # refused: back off below
            else:
                try:
                    self._session(sock)
                except (ConnectionError, OSError, P.ProtocolError):
                    pass  # session died: reconnect (leases reassigned by epoch)
                if self._retire:
                    # Told to leave: however the session then ended (BYE
                    # sent, or EOF first), there is nothing to come back to.
                    self._finished = True
                if self._codec is not None:
                    # Welcomed (the codec is negotiated there): a
                    # coordinator was reached.  A handshake it refused
                    # backs off like a refused connect.
                    backoff = self.reconnect_initial
                    last_contact = time.monotonic()
                    continue
            if (
                self.give_up_after is not None
                and time.monotonic() - last_contact > self.give_up_after
            ):
                raise ConnectionError(
                    f"no coordinator at {self.host}:{self.port} for "
                    f"{self.give_up_after:.1f}s; giving up"
                )
            delay = self.reconnect_delay(backoff)
            if self.stop_event is not None:
                self.stop_event.wait(delay)
            else:
                time.sleep(delay)
            backoff = min(backoff * 2, self.reconnect_max)

    def _session(self, sock: socket.socket) -> None:
        """One connection lifetime: handshake, then search until EOF,
        retire, or stop."""
        self._new_session(sock)  # the HELLO below goes out as JSON
        self.sessions += 1
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        sock.settimeout(self.connect_timeout)
        self._send({
            "type": P.HELLO,
            "version": P.PROTOCOL_VERSION,
            "name": self.name,
            "slots": self.SLOTS,
            "codecs": P.offered_codecs(self.wire_codec),
        })
        welcome = P.read_frame(sock)
        if welcome is None or welcome.get("type") != P.WELCOME:
            raise P.ProtocolError(f"expected WELCOME, got {welcome!r}")
        self.worker_id = welcome.get("worker")
        interval = float(welcome.get("heartbeat", 0.5))
        # No codec field: stay on the handshake's JSON.
        self._codec = P.get_codec(welcome.get("codec") or "json")
        sock.settimeout(None)

        recv = threading.Thread(target=self._recv_loop, daemon=True)
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(interval,), daemon=True
        )
        recv.start()
        beat.start()
        try:
            # The lease loop, until session death, stop, or a retire
            # handback (BYE sent).
            self.serve()
        finally:
            self._session_dead.set()
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
            recv.join(timeout=2.0)
            beat.join(timeout=2.0)

    def _send(self, msg: dict) -> None:
        if self._faults is not None and self._faults.drop_outbound(msg["type"]):
            return  # chaos: the frame is lost on the (simulated) wire
        data = P.frame_bytes(msg, self._codec)
        with self._send_lock:
            self._sock.sendall(data)
            # Only a frame that actually left counts for heartbeat
            # suppression — a chaos-dropped one returned above.
            self._last_sent = time.monotonic()

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._session_dead.wait(interval):
            # repro: allow[lock-discipline] -- benign lock-free read of a monotonic float; worst case is one extra beat
            if time.monotonic() - self._last_sent < interval:
                # Any frame refreshes the coordinator's deadline, so a
                # busy worker (RESULTs, OFFCUTs, INCUMBENTs flowing)
                # needs no explicit beat — one fewer frame per cycle.
                # Checked before the chaos hook so suppression never
                # consumes a scripted beat delay.
                continue
            if self._faults is not None:
                pause = self._faults.next_beat_delay()
                if pause > 0:
                    time.sleep(pause)  # chaos: a beat arrives late
            try:
                # ``pool``: runnable subtrees this worker holds that the
                # coordinator cannot see (its load signal adds them up).
                self._send({"type": P.HEARTBEAT, "pool": len(self.pool)})
            except OSError:
                self._session_dead.set()
                return

    # -- receiving ----------------------------------------------------------

    def _recv_loop(self) -> None:
        try:
            while not self._session_dead.is_set():
                msg = P.read_frame(self._sock, self._codec)
                if msg is None:
                    break
                self._on_message(msg)
        except (ConnectionError, OSError, P.ProtocolError):
            pass
        finally:
            self._session_dead.set()

    def _on_message(self, msg: dict) -> None:
        mtype = msg.get("type")
        # The current job, if this frame is about it.
        ctx = self._ctx if self._ctx is not None and msg.get("job") == self._ctx.id else None
        if mtype == P.JOB:
            # A STEAL that trailed the last job's final RESULT asked for
            # that job's work: it must not be answered out of this one's.
            self._steal_req = None
            try:
                self._ctx = ctx = P.decode_job(msg["job"], msg, self.specs)
            except Exception as exc:
                # A factory missing here, say: the coordinator fails the
                # job rather than lease it to a worker that drops it.
                self._ctx = None
                self._send({
                    "type": P.ERROR, "job": msg.get("job"),
                    "reason": f"cannot build the job: {type(exc).__name__}: {exc}",
                })
                return
            best = msg.get("best")
            ctx.bound = best if isinstance(best, int) else 0
        elif mtype == P.TASK:
            if ctx is not None and not ctx.done:
                for lease in msg["leases"]:
                    task_id, epoch = lease[:2]
                    if ctx.runs:
                        # A run: its stretches by path, and the bound it
                        # was cut under.
                        work = (P.unpack_run(lease[2], ctx.d_cutoff), lease[3])
                    else:
                        work = (P.decode_node(lease[2]), int(lease[3]))  # roots, depth
                    self._local_q.put((ctx, task_id, epoch, work))
        elif mtype == P.STEAL:
            if ctx is not None and ctx.runs:
                # A run is never split: the answer is the leases queued
                # behind the one in hand, handed back now.
                self._release_unstarted(answer=True)
            else:
                # Answered by the lease being run (or the one queued),
                # at its next poll; dropped if we turn out to be idle.
                self._steal_req = msg
        elif mtype == P.INCUMBENT:
            value = msg.get("value")
            if ctx is not None and isinstance(value, int) and value > ctx.bound:
                ctx.bound = value
        elif mtype == P.JOB_DONE:
            if ctx is not None:
                ctx.done = True
        elif mtype == P.RETIRE:
            if self._faults is not None:
                # Chaos: may hard-exit here, dying mid-retire with its
                # leases live — the coordinator's crash re-lease path
                # must recover what the handback would have returned.
                self._faults.on_retire()
            self._retire = True
        elif mtype == P.ERROR:
            # The coordinator rejected something we sent; surface the
            # reason (diagnosis only — the session keeps running, and
            # the lease-epoch machinery recovers any affected task).
            print(
                f"[{self.name}] coordinator error: "
                f"{msg.get('reason', 'unspecified')}",
                file=sys.stderr,
            )
        # HEARTBEAT and unknown types: nothing to do.

    # -- the socket transport -----------------------------------------------

    def next_work(self) -> Optional[tuple]:
        while True:
            if self._session_dead.is_set():
                return None
            if self._stopped():
                self._say_bye()
                return None
            if self._retire:
                # Between leases, so nothing is in flight: hand every
                # unstarted lease back and leave for good.  (A RETIRE
                # that lands mid-lease reaches this check right after
                # that lease's RESULT is sent.)
                self._release_unstarted()
                self._say_bye()
                self.retired = True
                self._finished = True
                return None
            if self._steal_req is not None and self._local_q.empty():
                # Idle with nothing queued: every lease this worker was
                # sent has had its RESULT, and the request died with it
                # (the coordinator clears ``steal_pending`` there).  A
                # STEAL that finds a lease still queued — TASK and STEAL
                # leave the coordinator in one pump — is for that lease,
                # and is answered from its first poll.
                self._steal_req = None
            try:
                ctx, task_id, epoch, work = self._local_q.get(timeout=0.05)
            except queue.Empty:
                continue
            if ctx.done or ctx is not self._ctx:
                continue
            if self._faults is not None:
                # Chaos: may hard-exit here, dying with this lease live
                # so the coordinator's re-lease path has to recover it.
                self._faults.on_task_start(self.tasks_run + 1)
            self._lease = (task_id, epoch)
            return ctx, work

    def _frame(self, mtype: str, **fields) -> dict:
        """A frame about the lease in hand."""
        task_id, epoch = self._lease
        return {"type": mtype, "job": self.job.id, "task": task_id, "epoch": epoch, **fields}

    def demand(self) -> int:
        # A waiting STEAL is the starving peer; a RETIRE hands the
        # whole pool back, so only the subtree in hand is finished here.
        if self.pool and self._retire:
            return FLUSH
        return self._steal_req is not None

    def ship(self, nodes: list, depth: int) -> None:
        # The first frame after a STEAL is its answer (empty included);
        # anything else shipped is a pool being handed back, one OFFCUT
        # per depth.
        stolen = self._steal_req is not None
        if stolen:
            self._steal_req = None
        self._send(self._frame(
            P.STOLEN if stolen else P.OFFCUT, depth=depth,
            nodes=[P.encode_node(node) for node in nodes], pool=len(self.pool),
        ))

    def bound(self) -> int:
        return self.job.bound

    def publish(self, found: Incumbent) -> None:
        # A strict local improvement: raise the local bound, ship value
        # + witness upstream (the witness travels with the publish so a
        # later crash of this worker cannot orphan it).
        job = self.job
        if found.value > job.bound:
            job.bound = found.value
        self._send({
            "type": P.INCUMBENT, "job": job.id,
            "value": found.value, "node": P.encode_node(found.node),
        })

    def aborted(self) -> bool:
        """Should the lease in hand stop with nothing sent?  JOB_DONE, a
        stop request, a dead session: lease accounting covers us."""
        return self.job.done or self._session_dead.is_set() or self._stopped()

    def on_subtree(self) -> None:
        self.tasks_run += 1  # the subtree that just ended
        if self._faults is not None:
            # Chaos: may hard-exit here, dying with the lease live, a
            # pool behind it and children already shipped.
            self._faults.on_task_start(self.tasks_run + 1)

    def report(self, outcome: LeaseOutcome, tasks: int) -> None:
        """One RESULT: the counters of every subtree the lease ran and
        ``spawns``, the subtrees split off a stack here."""
        self.tasks_run += 1
        # A STEAL this lease could not serve dies with its RESULT.
        self._steal_req = None
        total, knowledge = outcome.metrics, outcome.knowledge
        result = self._frame(
            P.RESULT, nodes=total.nodes, prunes=total.prunes,
            backtracks=total.backtracks, max_depth=total.max_depth,
            goal=outcome.goal, spawns=total.spawns,
        )
        if self.job.enum:
            result["knowledge"] = knowledge
        elif knowledge.node is not None:
            # Belt and braces: improvements were already published with
            # their witnesses, but repeat the lease-local best anyway.
            result["value"] = knowledge.value
            result["node"] = P.encode_node(knowledge.node)
        self._send(result)

    def flush(self, blocks: list, done: bool) -> None:
        """An ordered run's blocks of columns, as a RESULT flagged
        ``more`` while the run is still going.  No INCUMBENT is ever
        published mid-run: the coordinator's ledger is the only
        incumbent authority."""
        frame = self._frame(P.RESULT, blocks=[P.pack_block(block) for block in blocks])
        if done:
            self.tasks_run += 1
        else:
            frame["more"] = True
        self._send(frame)

    def fail(self, reason: str) -> None:
        """This worker cannot run the job in hand correctly: say so (the
        coordinator fails the job) and take no more of it."""
        self.job.done = True
        self._send({"type": P.ERROR, "job": self.job.id, "reason": reason})

    def _say_bye(self) -> None:
        try:
            self._send({"type": P.BYE})
        except OSError:
            pass

    def _release_unstarted(self, answer: bool = False) -> None:
        """RELEASE the job's leases still in the local queue: a RETIRE's
        handback, or with ``answer`` a STEAL's, sent even when the main
        thread's dequeue took the last one first.

        Only leases this worker never *started* are returned — the
        coordinator re-leases them under a bumped epoch, so the handback
        is exact for every search type (no partial accumulator exists
        for work that never began).  The queue is filtered under its own
        lock, so each lease is dequeued or returned, never both."""
        ctx = self._ctx
        if ctx is None or ctx.done:
            return
        with self._local_q.mutex:
            queued = self._local_q.queue
            leases = [item for item in queued if item[0] is ctx]
            for item in leases:
                queued.remove(item)
        returned = [[task_id, epoch] for _ctx, task_id, epoch, _work in leases]
        if returned or answer:
            try:
                self._send({"type": P.RELEASE, "job": ctx.id, "tasks": returned})
            except OSError:
                pass  # crash path: the lease epochs cover us anyway


# -- process fan-out ---------------------------------------------------------


def _worker_process_main(
    host, port, name, give_up_after, chaos_events=None, wire_codec="binary",
) -> None:
    """Entry point of one fanned-out worker process.

    SIGTERM — the first rung of :func:`graceful_stop` — sets the stop
    event, so the worker abandons its current task (the coordinator
    re-leases it) and exits at the next poll instead of dying mid-write.

    ``chaos_events`` optionally carries a FaultPlan's event list (see
    :mod:`repro.cluster.faults`); events addressed to ``name`` become
    this worker's injection hooks.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    sys.setswitchinterval(WORKER_SWITCH_INTERVAL)
    worker = ClusterWorker(
        host, port, name=name, stop_event=stop, wire_codec=wire_codec, give_up_after=give_up_after,
        faults=WorkerFaults.from_events(chaos_events, name),
    )
    try:
        worker.run()
    except ConnectionError:
        raise SystemExit(1)


def start_worker_process(
    host: str,
    port: int,
    name: str,
    *,
    give_up_after: Optional[float] = None,
    chaos_events: Optional[list] = None,
    wire_codec: str = "binary",
    spawn: bool = False,
):
    """Start one local worker process against a coordinator — the one
    place that does (it owns :func:`_worker_process_main`'s arguments).

    ``spawn`` is the caller's to choose in code, from where it starts
    workers.  A fixed fan-out made once from the calling thread forks
    (a few ms).  A fleet that grows at unpredictable moments from a
    background thread, while other threads run arbitrary code, must
    spawn: fork would snapshot whatever locks those threads hold
    (module import locks especially) into a child that has no thread to
    ever release them — a worker that connects and heartbeats but never
    searches.  Spawn pays ~0.5 s of interpreter start-up per worker for
    immunity to that whole class of deadlock.

    ``give_up_after`` bounds orphan spin if the starter dies before it
    retires the worker: the worker stops retrying on its own.
    """
    ctx = multiprocessing.get_context("spawn") if spawn else multiprocessing
    proc = ctx.Process(
        target=_worker_process_main,
        args=(host, port, name, give_up_after, chaos_events, wire_codec),
        daemon=True,
    )
    proc.start()
    return proc


def run_worker(
    host: str,
    port: int,
    *,
    processes: int = 1,
    name: Optional[str] = None,
    stop_event: Optional[threading.Event] = None,
    give_up_after: Optional[float] = None,
    wire_codec: str = "binary",
) -> None:
    """Run worker capacity against a coordinator (blocking).

    With ``processes == 1`` the worker runs in this process.  With more,
    each becomes its own OS process (its own interpreter, so searches
    run truly in parallel) and this call supervises them: it returns
    when all children exit (retired) and stops them with the
    SIGTERM -> SIGKILL escalation on interrupt.
    """
    if processes < 1:
        raise ValueError("need at least one worker process")
    if processes == 1:
        ClusterWorker(
            host,
            port,
            name=name,
            stop_event=stop_event,
            give_up_after=give_up_after,
            wire_codec=wire_codec,
        ).run()
        return
    base = name or f"worker-{socket.gethostname()}"
    procs = [
        start_worker_process(
            host, port, f"{base}-{i}",
            give_up_after=give_up_after, wire_codec=wire_codec,
        )
        for i in range(processes)
    ]
    try:
        while any(p.is_alive() for p in procs):
            if stop_event is not None and stop_event.is_set():
                break
            for p in procs:
                p.join(timeout=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        for p in procs:
            graceful_stop(p, grace=2.0)
