"""Cluster worker nodes: the search kernel behind a TCP client.

A :class:`ClusterWorker` connects to a coordinator, pulls subtree TASK
leases, and runs each one through the same transport-free executor the
multiprocessing workers call
(:func:`~repro.runtime.sharing.execute_lease` for Budget and
Stack-Stealing, :func:`~repro.core.ordered.execute_run` for Ordered) —
only the callbacks differ: the shared incumbent integer became
INCUMBENT frames, the short lease count became the coordinator's STEAL,
what a starving peer is given leaves in one STOLEN frame and reaches it
as one lease of several roots, and the outstanding counter lives on the
coordinator.  A lease is its roots and everything its holder ran from
its own pool, answered by one RESULT.  An ordered job's leases carry no
roots: the worker walks the frontier for itself when the JOB arrives
(on the search thread, while the coordinator walks its own) and is
leased positions in it.  The spec of the last job is kept while the
next JOB names the same factory and arguments.

Threading model (per connection):

- the **receiver** thread reads frames and updates cheap shared state:
  the current job context, the local task queue, the pruning bound (a
  plain int — atomic to read under the GIL), and the drain/done flags;
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
nor reconnects in thundering-herd lockstep.  SHUTDOWN triggers a
graceful drain: hand the pool back (OFFCUT), finish the leased work,
send the RESULTs, say BYE — and never reconnect, whichever of BYE and
the closing coordinator's EOF comes first.  RETIRE (elastic scale-down,
see :mod:`repro.deploy`) is stricter: hand the pool back, finish only
the subtree already *in hand*, hand every unstarted lease back in a
RELEASE frame so the coordinator re-leases it under a bumped epoch,
then BYE and exit for good — no reconnect.

``run_worker`` is the process-level entry: one in-process worker, or a
fan-out of several local worker processes (each a full ClusterWorker)
that are stopped with the SIGTERM -> SIGKILL escalation of
:func:`repro.runtime.processes.graceful_stop` — the SIGTERM handler
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
from repro.core.ordered import execute_run, worker_tasks
from repro.core.searchtypes import Incumbent
from repro.runtime.fleet import WORKER_SWITCH_INTERVAL
from repro.runtime.processes import graceful_stop, make_stype
from repro.runtime.sharing import FLUSH, execute_lease
from repro.runtime.workpool import Workpool

__all__ = ["ClusterWorker", "run_worker", "start_worker_process"]


class _JobContext:
    """Worker-side state of one job: rebuilt spec/search type + knobs.

    ``bound`` is the incumbent value as last heard (written by the
    receiver thread, read lock-free by the search loop — the same
    stale-tolerant discipline as the shared integer in the
    multiprocessing backend); ``done`` flips when JOB_DONE arrives and
    is checked on the share_poll cadence to abort mid-task.
    """

    def __init__(self, msg: dict, specs: P.LastSpec) -> None:
        self.id = msg["job"]
        self.spec = specs.build(msg)
        self.stype = make_stype(
            msg["stype_kind"], dict(msg.get("stype_kwargs") or {})
        )
        self.enum = self.stype.kind == "enumeration"
        self.budget = max(1, int(msg.get("budget", 1000)))
        self.share_poll = max(1, int(msg.get("share_poll", 64)))
        self.coordination = str(msg["coordination"])
        self.chunked = bool(msg.get("chunked", True))
        self.d_cutoff = int(msg.get("d_cutoff", 2))
        # Ordered jobs: this worker's own walk of the frontier, made by
        # the search thread before it runs the job's first lease.
        self.tasks: list = []
        best = msg.get("best")
        self.bound = best if isinstance(best, int) else 0
        self.done = False


class ClusterWorker:
    """One worker node.  ``run()`` blocks until drained or stopped.

    Args:
        host/port: the coordinator's address.
        name: reported in HELLO (diagnostics on the coordinator side).
        stop_event: optional ``threading.Event``; when set the worker
            abandons its current task and exits at the next poll (the
            SIGTERM hook for process fan-out).
        slots: concurrent leases to ask the coordinator for (leases
            beyond the one being searched sit in the local queue as
            prefetch; a RETIRE hands them back untouched).  The default
            of 2 double-buffers: while one task runs, its successor is
            already local, so finishing a task never stalls on a
            RESULT -> TASK round trip.
        wire_codec: preferred body format, offered in HELLO (the
            coordinator's own preference wins if this worker offers
            it).  ``"json"`` offers *only* JSON — the debugging veto.
        give_up_after: stop retrying (and raise) after this many seconds
            without reaching a coordinator; None retries forever.
        jitter: reconnect-jitter source returning floats in [0, 1)
            (injectable for deterministic tests; default
            ``random.random``).
        faults: optional :class:`~repro.cluster.faults.WorkerFaults`
            injection hooks (conformance chaos testing); defaults to
            whatever the ``REPRO_CHAOS`` environment variable names for
            this worker, i.e. nothing in normal operation.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        stop_event: Optional[threading.Event] = None,
        slots: int = 2,
        wire_codec: str = "binary",
        reconnect_initial: float = 0.1,
        reconnect_max: float = 2.0,
        give_up_after: Optional[float] = None,
        connect_timeout: float = 5.0,
        jitter=None,
        faults: Optional[WorkerFaults] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"worker-{socket.gethostname()}"
        self._faults = faults if faults is not None else WorkerFaults.from_env(self.name)
        self.stop_event = stop_event
        self.slots = max(1, int(slots))
        self.wire_codec = P.get_codec(wire_codec).name
        self.reconnect_initial = reconnect_initial
        self.reconnect_max = reconnect_max
        self.give_up_after = give_up_after
        self.connect_timeout = connect_timeout
        self._jitter = jitter if jitter is not None else random.random
        self.worker_id: Optional[int] = None
        self.tasks_run = 0
        self.nodes_searched = 0
        self.sessions = 0
        self.retired = False
        self._finished = False
        # Per-session state (reset in _session):
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._session_dead = threading.Event()
        self._local_q: queue.Queue = queue.Queue()
        self._ctx: Optional[_JobContext] = None
        self._specs = P.LastSpec()  # outlives sessions: receiver thread only
        self._drain = False
        self._retire = False
        self._codec = None  # negotiated in WELCOME; None => JSON
        # The unanswered STEAL frame, if any (written by the receiver
        # thread, consumed by the lease being run: at share_poll
        # cadence, and between two subtrees of a budget lease).
        self._steal_req: Optional[dict] = None
        # The unstarted subtrees of the lease being run — roots it
        # came with, offcuts of its stacks — replaced when the lease
        # ends (main thread only; the heartbeat thread reads its length).
        self._pool = Workpool("depth")
        # Monotonic time of the last frame that actually left.
        self._last_sent = 0.0  # guarded-by: _send_lock

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
        backoff) until a graceful drain/retire completes or the stop
        event fires."""
        backoff = self.reconnect_initial
        last_contact = time.monotonic()
        while not self._finished and not self._stopped():
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            except OSError:
                if (
                    self.give_up_after is not None
                    and time.monotonic() - last_contact > self.give_up_after
                ):
                    raise ConnectionError(
                        f"no coordinator at {self.host}:{self.port} for "
                        f"{self.give_up_after:.1f}s; giving up"
                    ) from None
                delay = self.reconnect_delay(backoff)
                if self.stop_event is not None:
                    self.stop_event.wait(delay)
                else:
                    time.sleep(delay)
                backoff = min(backoff * 2, self.reconnect_max)
                continue
            backoff = self.reconnect_initial
            try:
                self._session(sock)
            except (ConnectionError, OSError, P.ProtocolError):
                pass  # session died: reconnect (leases reassigned by epoch)
            if self._drain:
                # SHUTDOWN was the coordinator closing: however the
                # session then ended (BYE sent, or EOF first), there is
                # nothing to reconnect to.
                self._finished = True
            last_contact = time.monotonic()

    def _session(self, sock: socket.socket) -> None:
        """One connection lifetime: handshake, then search until EOF,
        drain, or stop."""
        self.sessions += 1
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._session_dead = threading.Event()
        self._local_q = queue.Queue()
        self._ctx = None
        self._drain = False
        self._retire = False
        self._steal_req = None
        self._codec = None  # the HELLO below must go out as JSON

        sock.settimeout(self.connect_timeout)
        self._send({
            "type": P.HELLO,
            "version": P.PROTOCOL_VERSION,
            "name": self.name,
            "slots": self.slots,
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
            self._search_loop()
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
                self._send({"type": P.HEARTBEAT, "pool": len(self._pool)})
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
        if mtype == P.JOB:
            # A STEAL that trailed the last job's final RESULT asked for
            # that job's work: it must not be answered out of this one's.
            self._steal_req = None
            try:
                self._ctx = _JobContext(msg, self._specs)
            except Exception as exc:
                # Environment mismatch (factory missing here): stay
                # idle; the coordinator's job timeout is the backstop.
                print(
                    f"[{self.name}] cannot build job "
                    f"{msg.get('job')}: {exc}",
                    file=sys.stderr,
                )
                self._ctx = None
            ctx = self._ctx
            if ctx is not None and ctx.coordination == "ordered":
                # Ahead of every lease of the job: the walk (no task id).
                self._local_q.put((ctx, None, None, None))
        elif mtype == P.TASK:
            ctx = self._ctx
            if ctx is not None and msg.get("job") == ctx.id and not ctx.done:
                for lease in msg["leases"]:
                    task_id, epoch = lease[:2]
                    if ctx.coordination == "ordered":
                        # A run: seqs, the bound it was cut under, and
                        # the size of the frontier it was cut from.
                        work = (P.unpack_seqs(lease[2], lease[4]), *lease[3:5])
                    else:
                        work = (P.decode_node(lease[2]), int(lease[3]))  # roots, depth
                    self._local_q.put((ctx, task_id, epoch, work))
        elif mtype == P.STEAL:
            # Answered by the lease being run (or the one queued), at
            # its next poll; dropped if we turn out to be idle.
            self._steal_req = msg
        elif mtype == P.INCUMBENT:
            ctx = self._ctx
            value = msg.get("value")
            if (
                ctx is not None
                and msg.get("job") == ctx.id
                and isinstance(value, int)
                and value > ctx.bound
            ):
                ctx.bound = value
        elif mtype == P.JOB_DONE:
            ctx = self._ctx
            if ctx is not None and msg.get("job") == ctx.id:
                ctx.done = True
        elif mtype == P.RETIRE:
            if self._faults is not None:
                # Chaos: may hard-exit here, dying mid-retire with its
                # leases live — the coordinator's crash re-lease path
                # must recover what the handback would have returned.
                self._faults.on_retire()
            self._retire = True
        elif mtype == P.SHUTDOWN:
            self._drain = True
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

    # -- searching ----------------------------------------------------------

    def _search_loop(self) -> None:
        """Pull leased tasks and run them; exit on session death, stop,
        a completed drain, or a retire handback (BYE sent)."""
        while True:
            if self._session_dead.is_set():
                return
            if self._stopped():
                self._say_bye()
                return
            if self._retire:
                # Between tasks, so nothing is in flight: hand every
                # unstarted lease back and leave for good.  (A RETIRE
                # that lands mid-task reaches this check right after
                # that task's RESULT is sent.)
                self._release_unstarted()
                self._say_bye()
                self.retired = True
                self._finished = True
                return
            if self._steal_req is not None and self._local_q.empty():
                # Idle with nothing queued: every lease this worker was
                # sent has had its RESULT, and the request died with it
                # (the coordinator clears ``steal_pending`` there).  A
                # STEAL that finds a lease still queued — TASK and STEAL
                # leave the coordinator in one pump — is for that lease,
                # and is answered from its first poll.
                self._steal_req = None
            try:
                item = self._local_q.get(timeout=0.05)
            except queue.Empty:
                if self._drain:
                    # Drain complete: no leases left to finish.
                    self._say_bye()
                    self._finished = True
                    return
                continue
            ctx, task_id, epoch, work = item
            if ctx.done or ctx is not self._ctx:
                continue
            if self._faults is not None and task_id is not None:
                # Chaos: may hard-exit here, dying with this lease live
                # so the coordinator's re-lease path has to recover it.
                self._faults.on_task_start(self.tasks_run + 1)
            try:
                if task_id is None:
                    self._walk_frontier(ctx)
                elif ctx.coordination == "ordered":
                    self._run_ordered_lease(ctx, task_id, epoch, *work)
                else:
                    self._run_task(ctx, task_id, epoch, *work)
            except (ConnectionError, OSError):
                self._session_dead.set()
                return

    def _abandoned(self, ctx) -> bool:
        """Should the lease in hand stop with nothing sent?  JOB_DONE, a
        stop request, a dead session: lease accounting covers us."""
        return ctx.done or self._session_dead.is_set() or self._stopped()

    def _fail_job(self, ctx, reason: str) -> None:
        """This worker cannot run ``ctx``'s job correctly: say so (the
        coordinator fails the job) and take no more of it."""
        ctx.done = True
        self._send({"type": P.ERROR, "job": ctx.id, "reason": reason})

    def _walk_frontier(self, ctx) -> None:
        """Number an ordered job's frontier for ourselves."""
        try:
            ctx.tasks = worker_tasks(ctx.spec, ctx.stype, ctx.d_cutoff)
        except Exception as exc:
            self._fail_job(ctx, f"frontier walk failed: {type(exc).__name__}: {exc}")

    def _say_bye(self) -> None:
        try:
            self._send({"type": P.BYE})
        except OSError:
            pass

    def _release_unstarted(self) -> None:
        """RELEASE every lease still sitting in the local queue.

        Only tasks this worker never *started* are returned — the
        coordinator re-leases them under a bumped epoch, so the handback
        is exact for every search type (no partial accumulator exists
        for work that never began)."""
        returned: list[list] = []
        ctx = self._ctx
        while True:
            try:
                item_ctx, task_id, epoch, _work = self._local_q.get_nowait()
            except queue.Empty:
                break
            if ctx is not None and item_ctx is ctx and not ctx.done and task_id is not None:
                returned.append([task_id, epoch])
        if returned and ctx is not None:
            try:
                self._send({"type": P.RELEASE, "job": ctx.id, "tasks": returned})
            except OSError:
                pass  # crash path: the lease epochs cover us anyway

    def _run_task(self, ctx, task_id, epoch, roots, root_depth) -> None:
        """Run one budget or stack-stealing lease to its RESULT.

        :func:`~repro.runtime.sharing.execute_lease` runs the lease;
        this method is its wire.  A waiting STEAL is the starving peer:
        it is answered with one STOLEN frame — half of the shallowest
        level of the lease's pool, which under Stack-Stealing is first
        filled from the live stack if it is empty (and the answer is
        empty when the stack has nothing to give); a Budget request the
        pool cannot serve waits for the next trip, or dies with the
        RESULT.  A RETIRE or SHUTDOWN makes a lease hand its whole pool
        back as OFFCUT frames, one per depth, so only the subtree in
        hand is finished here.  Every strict improvement leaves as
        INCUMBENT (value + witness).  One RESULT then carries the
        counters of every subtree run and ``spawns``, the subtrees
        split off a stack here.

        Nothing is sent if the lease is abandoned (job done / stop /
        session death), leaving the coordinator's lease accounting to
        handle it.
        """
        pooled = ctx.coordination == "budget"
        pool = self._pool  # empty between leases

        def demand() -> int:
            if pool and (self._retire or self._drain):
                return FLUSH
            return self._steal_req is not None

        def ship(nodes: list, depth: int) -> None:
            # The first frame after a STEAL is its answer; anything
            # else shipped is a pool being handed back.
            stolen = self._steal_req is not None
            if stolen:
                self._steal_req = None
            self._send({
                "type": P.STOLEN if stolen else P.OFFCUT,
                "job": ctx.id,
                "task": task_id,
                "epoch": epoch,
                "depth": depth,
                "nodes": [P.encode_node(node) for node in nodes],
                "pool": len(pool),
            })

        def publish(inc: Incumbent) -> None:
            # A strict local improvement: raise the local bound, ship
            # value + witness upstream (the witness travels with the
            # publish so a later crash of this worker cannot orphan it).
            if inc.value > ctx.bound:
                ctx.bound = inc.value
            self._send({
                "type": P.INCUMBENT,
                "job": ctx.id,
                "value": inc.value,
                "node": P.encode_node(inc.node),
            })

        def on_subtree() -> None:
            self.tasks_run += 1  # the subtree that just ended
            if self._faults is not None:
                # Chaos: may hard-exit here, dying with the lease
                # live, a pool behind it and children already shipped.
                self._faults.on_task_start(self.tasks_run + 1)

        knowledge = ctx.stype.initial_knowledge(ctx.spec)
        if not ctx.enum:
            knowledge = Incumbent(knowledge.value, None)  # no witness of ours yet
        try:
            lease = execute_lease(
                ctx.spec, ctx.stype, roots, root_depth, knowledge, pool,
                budget=ctx.budget if pooled else None, chunked=ctx.chunked,
                poll=ctx.share_poll, demand=demand, ship=ship,
                bound=lambda: ctx.bound, publish=publish,
                should_abort=lambda: self._abandoned(ctx), on_subtree=on_subtree,
            )
        finally:
            # The lease is over, whatever was left in its pool.
            self._pool = Workpool("depth")
        self.nodes_searched += lease.metrics.nodes
        if lease.abandoned:
            return
        self.tasks_run += 1

        # A STEAL this lease could not serve dies with its RESULT.
        self._steal_req = None
        total, knowledge = lease.metrics, lease.knowledge
        result = {
            "type": P.RESULT,
            "job": ctx.id,
            "task": task_id,
            "epoch": epoch,
            "nodes": total.nodes,
            "prunes": total.prunes,
            "backtracks": total.backtracks,
            "max_depth": total.max_depth,
            "goal": lease.goal,
            "spawns": total.spawns,
        }
        if ctx.enum:
            result["knowledge"] = knowledge
        elif knowledge.node is not None:
            # Belt and braces: improvements were already published with
            # their witnesses, but repeat the lease-local best anyway.
            result["value"] = knowledge.value
            result["node"] = P.encode_node(knowledge.node)
        self._send(result)

    def _run_ordered_lease(self, ctx, task_id, epoch, seqs, bound, of) -> None:
        """One ordered lease: a run of replicable tasks, in order.

        :func:`~repro.core.ordered.execute_run` threads the bound
        through the run starting from the lease's (``ctx.bound`` is the
        finalised-prefix best as last heard, its restart signal) and
        hands back blocks of columns, which leave as RESULT frames —
        flagged ``more`` while the run is still going.  No INCUMBENT is
        ever published mid-run; the coordinator's ledger is the only
        incumbent authority, and it re-issues whatever ran from a bound
        that turns out wrong.  A lease cut from another frontier than
        the one walked here fails the job.
        """

        def flush(blocks: list, done: bool) -> None:
            self.nodes_searched += sum(sum(block["nodes"]) for block in blocks)
            frame = {
                "type": P.RESULT,
                "job": ctx.id,
                "task": task_id,
                "epoch": epoch,
                "blocks": [P.pack_block(block) for block in blocks],
            }
            if not done:
                frame["more"] = True
            self._send(frame)

        try:
            finished = execute_run(
                ctx.spec, ctx.stype, ctx.tasks, seqs, bound, of, flush,
                published=lambda: ctx.bound,
                should_abort=lambda: self._abandoned(ctx),
                poll=ctx.share_poll,
            )
        except ValueError as exc:
            self._fail_job(ctx, str(exc))
            return
        # An aborted run just stops: lease accounting covers us.
        if finished:
            self.tasks_run += 1


# -- process fan-out ---------------------------------------------------------


def _worker_process_main(
    host, port, name, give_up_after, chaos_events=None, slots=2,
    wire_codec="binary",
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
        host, port, name=name, stop_event=stop, slots=slots,
        wire_codec=wire_codec, give_up_after=give_up_after,
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
    slots: int = 2,
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
    drains the worker: the worker stops retrying on its own.
    """
    ctx = multiprocessing.get_context("spawn") if spawn else multiprocessing
    proc = ctx.Process(
        target=_worker_process_main,
        args=(host, port, name, give_up_after, chaos_events, slots, wire_codec),
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
    when all children exit (drain) and stops them with the
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
