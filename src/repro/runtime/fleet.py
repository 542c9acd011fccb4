"""The warm worker fleet under the process backend.

YewPar's workers are started once per locality and fed from its
workpool for the life of the program (§4.3).  :class:`ProcessFleet` is
that for :mod:`repro.runtime.processes`: worker processes that outlive
the search that started them, so a search costs a message per worker,
not a process launch.  This module knows process lifetimes and nothing
about searching: each process holds one worker object, made by the
fleet's ``make_worker`` when it starts (the pipe transport of
:mod:`repro.runtime.worker`), and a job is a message to it.

A handle is ``created``, ``running`` from its first job, and ``closed``
by :meth:`~ProcessFleet.close`, by interpreter exit, or by a failed job
of several workers; the next job then forks fresh workers.  Workers
are forked: the spawn context's locks and shared integers are named
semaphores that only the resource tracker unlinks, and a host that
stops the tracker before it exits (the ledger does) would get a leak
warning and a traceback per semaphore.  A forked worker instead lets
go, on entry, of what it must not hold.

A worker is in one job at a time.  A job engages ``n`` idle workers,
forking more if fewer are idle: a job of one worker over that worker's
own wires (a :class:`TaskPipe` and shared integers), beside any other
(see :data:`BUSY_CORES`), one of several over wires shared by every
worker forked with them, one such job at a time.  Messages are pickled
and written on their sender's thread.  The owner waits on the result
pipes and the process sentinels at once, so a death is seen as it
happens.  A worker's idle report is its job's last message: once every
engaged worker has sent one the owner drains the task pipe, and the
integers are reset with nobody looking.  A worker that raises, dies or
exits fails the job with RuntimeError and the job's workers are
stopped, their results unrecoverable; so is every worker forked with
failed shared wires (they may hold half an item), once idle.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import sys
import threading
from contextlib import contextmanager, nullcontext
from multiprocessing import get_context, parent_process
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple, Optional

__all__ = [
    "ProcessFleet", "TaskPipe", "Wires", "graceful_stop", "POLL", "WORKER_SWITCH_INTERVAL",
    "BUSY_CORES",
]

_CTX = get_context("fork")

# How long a worker idles on the task pipe before it looks at the job's
# ``done`` flag again: a backstop, as whoever raises the flag also posts
# an end-of-job sentinel per peer.  Once the job is over, the owner
# drains the task pipe whenever it waits this long for a report: a
# hand-over bigger than the pipe's buffer may be half written, with
# every reader gone.
POLL = 0.02

# A cluster worker's search thread shares its interpreter with threads
# that have a moment's work to do now and then — its frame receiver,
# its heartbeat.  At the default 5 ms switch interval a STEAL would
# wait that long to be seen; the worker (and ``cluster-worker`` run as
# one) switches at this.  A fleet worker has no such neighbour: it
# writes its own messages.
WORKER_SWITCH_INTERVAL = 0.0005

# While this many workers are busy, a job of one worker waits up to POLL
# for one to free (more searches than cores, the owner's left aside, slow
# every one), then takes one of its own: no job waits for a long one.
BUSY_CORES = max(1, (os.cpu_count() or 2) - 1)


def graceful_stop(proc, *, grace: float = 5.0) -> None:
    """Stop a child process: SIGTERM, wait up to ``grace``, then SIGKILL.

    The graduated escalation gives a cooperating child (one whose main
    thread handles SIGTERM, as the cluster worker's does)
    a window to flush its final message and close its pipes cleanly,
    while still guaranteeing death for a child that is wedged or
    blocking the signal.
    """
    if proc.is_alive():
        proc.terminate()  # SIGTERM on POSIX
        proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()  # SIGKILL: non-negotiable
        proc.join(timeout=grace)


class TaskPipe:
    """One pipe that every process of a fleet writes and reads, a whole
    item at a time: writes under one lock and reads under another, as
    ``multiprocessing.SimpleQueue`` does, so whoever reads a hand-over
    is its thief.  :meth:`put` pickles and writes on the caller's
    thread."""

    def __init__(self) -> None:
        self._reader, self._writer = _CTX.Pipe(duplex=False)
        self._rlock, self._wlock = _CTX.Lock(), _CTX.Lock()
        # A poll object, not Connection.poll: that builds a selector a call.
        self._poller = select.poll()
        self._poller.register(self._reader.fileno(), select.POLLIN)

    def _ready(self, timeout: float) -> bool:
        return bool(self._poller.poll(timeout * 1000))

    def put(self, item: Any) -> None:
        """Write ``item``; an item that cannot be pickled raises here,
        before a byte is written."""
        blob = ForkingPickler.dumps(item)
        with self._wlock:
            self._writer.send_bytes(blob)

    def get(self, timeout: float) -> Any:
        """The next item, or None if there was none to take within
        ``timeout`` seconds."""
        # Wait unlocked, so that a drain never waits on an idle reader.
        if not self._ready(timeout):
            return None
        with self._rlock:
            if not self._ready(0):
                return None  # a peer took it
            blob = self._reader.recv_bytes()
        return pickle.loads(blob)

    def drain(self) -> None:
        """Drop every item in the pipe now, one being written included."""
        with self._rlock:
            while self._ready(0):
                self._reader.recv_bytes()

    def close(self) -> None:
        """Close this process's ends of the pipe."""
        self._reader.close()
        self._writer.close()


class Wires(NamedTuple):
    """What a job's workers share with its owner, and in a worker's
    copy its own result pipe."""

    tasks: TaskPipe  # work items, owner and workers both put; () ends a job
    results: Any  # a worker's send end: (tag, body) messages to the owner
    done: Any  # raw byte: the job is over (the tree is searched, or a goal met)
    outstanding: Any  # locked int: leases queued or held
    best: Any  # locked int: the shared incumbent value


def _exit_with_owner() -> None:
    """Thread of every worker: a killed owner must not leave it behind,
    whatever it is doing."""
    poller = select.poll()
    poller.register(parent_process().sentinel, select.POLLIN)
    poller.poll()
    os._exit(1)


def _worker_main(ctrl, shared: Wires, own: Wires, make_worker: Callable) -> None:
    """A fleet worker: make its worker, hand it each job, a pickled
    ``(alone, message)``, as ``run(own if alone else shared, message)``,
    report a crash instead of dying silently, report idle, wait."""
    # Not the owner's handlers: ^C is the owner's to act on, and
    # SIGTERM is how it stops a worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Whoever stops the resource tracker waits for every holder of its
    # pipe; a worker registers nothing and may outlive that wait.  Not
    # imported: every process that imports the backends (each cluster
    # worker at start-up) would pay for it.
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    threading.Thread(target=_exit_with_owner, daemon=True).start()
    worker = make_worker()
    while True:
        try:
            blob = ctrl.recv_bytes()
        except EOFError:
            return
        try:
            alone, message = pickle.loads(blob)
            worker.run(own if alone else shared, message)
        except BaseException as exc:
            own.results.send(("error", f"{type(exc).__name__}: {exc}"))
        own.results.send(("idle", None))


def _new_wires() -> Wires:
    """Wires as their owner holds them, without a result pipe."""
    done = _CTX.Value("b", 0, lock=False)
    return Wires(TaskPipe(), None, done, _CTX.Value("q", 0), _CTX.Value("q", 0))


class ProcessFleet:
    """Lazily started, long-lived worker processes, each in one job at
    a time; ``make_worker()`` makes each process's worker."""

    def __init__(self, make_worker: Callable) -> None:
        self._make_worker = make_worker
        self.status = "created"
        self._cond = threading.Condition()  # over the members and their ``busy``
        self._turn = threading.Lock()  # the job on the shared wires holds it
        # A worker as its owner holds it: the owner's ends of its pipes,
        # its own wires, the shared wires it was forked with, ``busy``.
        self._members: list = []
        self._shared: Optional[Wires] = None
        atexit.register(self.close)
        os.register_at_fork(after_in_child=self._disown)

    def pids(self) -> list:
        """The worker processes alive now (none before the first job)."""
        return [member.proc.pid for member in self._members]

    def close(self) -> None:
        """Stop the workers: the idle ones now, the others as their jobs end."""
        with self._turn:  # not the shared wires under a job
            self._release([], failed=True)

    def _disown(self) -> None:
        """In a forked child of the owner, a worker included: the
        workers are not this process's to use or stop, and the owner's
        ends of their pipes must close when the owner dies."""
        for member in self._members:
            member.ctrl.close()
            member.results.close()
        self._members, self._shared = [], None
        self._cond, self._turn = threading.Condition(), threading.Lock()

    def _claim(self, n: int) -> list:
        """The first ``n`` idle workers, forking as many as are short."""
        with self._cond:
            if n == 1:  # see BUSY_CORES
                self._cond.wait_for(
                    lambda: sum(m.busy for m in self._members) < BUSY_CORES, timeout=POLL)
            dead = [m for m in self._members if not m.busy and m.proc.exitcode is not None]
            self._members = [m for m in self._members if m not in dead]
            self._shared = self._shared or _new_wires()
            engaged = [m for m in self._members if not m.busy][:n]
            while len(engaged) < n:
                own, (theirs, ours), (results, sender) = (
                    _new_wires(), _CTX.Pipe(duplex=False), _CTX.Pipe(duplex=False))
                args = (theirs, self._shared._replace(results=sender),
                        own._replace(results=sender), self._make_worker)
                proc = _CTX.Process(target=_worker_main, args=args, daemon=True)
                engaged.append(SimpleNamespace(
                    proc=proc, ctrl=ours, results=results, wires=own, shared=self._shared))
                self._members.append(engaged[-1])  # first: the child disowns it too
                proc.start()
                theirs.close()
                sender.close()
            for member in engaged:
                member.busy = True
            self.status = "running"
        _stop(dead)
        return engaged

    def _release(self, engaged: list, failed: bool) -> None:
        """Take back the workers of a job, stopped if it failed.  Shared
        wires that failed, or a closed fleet's, go with every worker
        forked with them."""
        with self._cond:
            for member in engaged:
                member.busy = False
            if failed and len(engaged) != 1:
                self.status = "closed"
                if self._shared is not None:
                    self._shared.tasks.close()
                self._shared = None
            gone = [m for m in self._members if not m.busy and (
                m.shared is not self._shared or failed and m in engaged)]
            self._members = [m for m in self._members if m not in gone]
            self._cond.notify_all()
        _stop(gone)

    @contextmanager
    def job(
        self, label: str, n: int, message: Any,
        stop: Optional[Callable[[int], bool]] = None,
    ) -> Iterator[tuple]:
        """Run ``worker.run(wires, message)`` in ``n`` idle workers over
        the worker's own wires for a job of one, else the shared ones,
        their integers at zero.  Yields ``(wires, reports)``: ``reports``
        iterates over the bodies of the workers' ``("ok", body)``
        messages until every worker has left ``run``, and is the crash
        watchdog.  Leaving the block waits for that end; leaving it by
        an exception stops the job's workers.

        ``stop(best)``, for a Budget or Stack-Stealing job, is asked with
        the job's incumbent at every wake of that wait, at least every
        :data:`POLL` seconds, until the job is over; True raises ``done``,
        so that the workers abandon their leases at their next poll.
        """
        blob = pickle.dumps((n == 1, message))  # a caller's error, before anything starts
        with self._turn if n > 1 else nullcontext():
            engaged = self._claim(n)
            wires = engaged[0].wires if n == 1 else engaged[0].shared
            failed = True
            try:
                wires.done.value = wires.outstanding.value = wires.best.value = 0
                for member in engaged:
                    member.ctrl.send_bytes(blob)

                def fail(error: str):
                    raise RuntimeError(f"{label} backend worker failed: {error}")

                def died(proc) -> None:
                    proc.join(timeout=5.0)
                    fail(f"worker died with exit code {proc.exitcode} before reporting results")

                def reports() -> Iterator[Any]:
                    # Every result pipe and every process sentinel, in one
                    # poll object (``connection.wait`` builds a selector
                    # a call): a worker that dies is seen as it dies.
                    poller, ends = select.poll(), {}
                    for member in engaged:
                        ends[member.results.fileno()] = (member.proc, member.results)
                        ends[member.proc.sentinel] = (member.proc, None)
                    for fd in ends:
                        poller.register(fd, select.POLLIN)
                    idle = 0
                    while idle < n:
                        # Once the job is over, a dry spell may be a
                        # writer blocked on a task pipe nobody reads.
                        over = wires.done.value
                        ready = poller.poll(POLL * 1000 if over or stop else None)
                        if over and not ready:
                            wires.tasks.drain()
                        if not over and stop is not None and stop(wires.best.value):
                            wires.done.value = 1
                        for fd, _ in ready:
                            proc, results = ends[fd]
                            if results is None:
                                died(proc)
                            try:
                                tag, body = results.recv()
                            except EOFError:
                                died(proc)
                            if tag == "error":
                                fail(body)
                            if tag == "idle":
                                idle += 1
                            else:
                                yield body
                    wires.tasks.drain()  # what nobody took: the next job starts empty

                stream = reports()
                yield wires, stream
                for _ in stream:
                    pass  # a straggler's report, until every worker is idle
                failed = False
            finally:
                self._release(engaged, failed)


def _stop(members: list) -> None:
    """Stop these workers and close the owner's ends of their pipes."""
    for member in members:
        member.ctrl.close()
    for member in members:
        graceful_stop(member.proc)
        member.results.close()
        member.wires.tasks.close()
