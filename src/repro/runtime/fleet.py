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
by :meth:`~ProcessFleet.close`, by interpreter exit, or by a job that
failed; a closed fleet starts fresh workers for the next job.  Workers
are forked, as this backend's always were.  The spawn context (the
cluster fleet's, see :mod:`repro.deploy.spec`) would keep the owner's
sockets out of these long-lived children, but its locks and shared
integers are named semaphores that only the resource tracker unlinks,
and a host that stops the tracker before it exits (the ledger does)
would get a leak warning and a traceback per semaphore.  A forked
worker instead lets go, on entry, of what it must not hold.

One job runs at a time.  It engages the first ``n`` workers (the fleet
grows to the largest ``n`` asked for) with a message down each one's
control pipe, and they work over pipes and shared integers that live
as long as the fleet: one :class:`TaskPipe` that everyone writes and
reads, and a result pipe per worker.  A message is pickled and written
on its sender's thread, so it has left when the call returns; no
process runs a queue's feeder thread.  The owner waits on the result
pipes and the workers' process sentinels at once, so a death is seen
as it happens.  A worker's idle report is the last message of its job,
and the owner leaves a job once every engaged worker has sent one: the
result pipes are then empty, the task pipe is drained, and the
integers are reset with nobody looking.  A worker that raises, dies or
exits fails the job with RuntimeError and takes the fleet with it: its
local results are unrecoverable.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import sys
import threading
from contextlib import contextmanager
from multiprocessing import get_context, parent_process
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "ProcessFleet", "TaskPipe", "Wires", "graceful_stop", "POLL", "WORKER_SWITCH_INTERVAL",
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
    """What a fleet's workers share with its owner, made once, and in a
    worker's copy its own result pipe."""

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


def _worker_main(ctrl, wires: Wires, make_worker: Callable) -> None:
    """A fleet worker: make its worker, hand it each job, a pickled
    message, as ``run(message)``, report a crash instead of dying
    silently, report idle, wait for the next job."""
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
    worker = make_worker(wires)
    while True:
        try:
            blob = ctrl.recv_bytes()
        except EOFError:
            return
        try:
            worker.run(pickle.loads(blob))
        except BaseException as exc:
            wires.results.send(("error", f"{type(exc).__name__}: {exc}"))
        wires.results.send(("idle", None))


class ProcessFleet:
    """Lazily started, long-lived worker processes, one job at a time;
    ``make_worker(wires)`` makes each process's worker."""

    def __init__(self, make_worker: Callable) -> None:
        self._make_worker = make_worker
        self.status = "created"
        self._lock = threading.Lock()
        # (Process, send end of its control pipe, receive end of its result pipe)
        self._workers: list = []
        self._wires = None
        atexit.register(self.close)
        os.register_at_fork(after_in_child=self._disown)

    def pids(self) -> list:
        """The worker processes alive now (none before the first job)."""
        return [proc.pid for proc, _, _ in self._workers]

    def close(self) -> None:
        """Stop the workers, after the job in flight if there is one."""
        with self._lock:
            self._shutdown()

    def _shutdown(self) -> None:
        self.status = "closed"
        workers, self._workers = self._workers, []
        wires, self._wires = self._wires, None
        for _, ctrl, _ in workers:
            ctrl.close()
        for proc, _, results in workers:
            graceful_stop(proc)
            results.close()
        if wires is not None:
            wires.tasks.close()

    def _disown(self) -> None:
        """In a forked child of the owner, a worker included: the
        workers are not this process's to use or stop, and the owner's
        ends of their pipes must close when the owner dies."""
        for _, ctrl, results in self._workers:
            ctrl.close()
            results.close()
        self._workers, self._wires = [], None
        self._lock = threading.Lock()

    def _engage(self, n: int) -> list:
        if any(proc.exitcode is not None for proc, _, _ in self._workers):
            self._shutdown()
        if self._wires is None:
            self._wires = Wires(
                TaskPipe(), None,
                _CTX.Value("b", 0, lock=False),
                _CTX.Value("q", 0), _CTX.Value("q", 0),
            )
        while len(self._workers) < n:
            theirs, ours = _CTX.Pipe(duplex=False)
            results, sender = _CTX.Pipe(duplex=False)
            args = (theirs, self._wires._replace(results=sender), self._make_worker)
            proc = _CTX.Process(target=_worker_main, args=args, daemon=True)
            self._workers.append((proc, ours, results))  # first: the child disowns it too
            proc.start()
            theirs.close()
            sender.close()
        self.status = "running"
        return self._workers[:n]

    @contextmanager
    def job(self, label: str, n: int, message: Any) -> Iterator[tuple]:
        """Run ``worker.run(message)`` in ``n`` workers, with the
        shared integers starting at zero.

        Yields ``(wires, reports)``: ``reports`` iterates over
        the bodies of the ``("ok", body)`` messages the workers send
        and ends when every worker has left ``run``.  Waiting for one
        is also the crash watchdog.  Leaving the block waits for that
        end; leaving it by an exception stops the whole fleet.
        """
        blob = pickle.dumps(message)  # a caller's error, before anything starts
        with self._lock:
            try:
                engaged = self._engage(n)
                wires = self._wires
                wires.done.value = 0
                wires.outstanding.value = 0
                wires.best.value = 0
                for _, ctrl, _ in engaged:
                    ctrl.send_bytes(blob)

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
                    for proc, _, results in engaged:
                        ends[results.fileno()] = (proc, results)
                        ends[proc.sentinel] = (proc, None)
                    for fd in ends:
                        poller.register(fd, select.POLLIN)
                    idle = 0
                    while idle < n:
                        # Once the job is over, a dry spell may be a
                        # writer blocked on a task pipe nobody reads.
                        ready = poller.poll(POLL * 1000 if wires.done.value else None)
                        if not ready:
                            wires.tasks.drain()
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
            except BaseException:
                self._shutdown()
                raise
