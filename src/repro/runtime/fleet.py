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
sockets out of these long-lived children, but its queues and shared
integers are named semaphores that only the resource tracker unlinks,
and a host that stops the tracker before it exits (the ledger does)
would get a leak warning and a traceback per semaphore.  A forked
worker instead lets go, on entry, of what it must not hold.

One job runs at a time.  It engages the first ``n`` workers (the fleet
grows to the largest ``n`` asked for) with a message down each one's
control pipe, and they work over queues and shared integers that live
as long as the fleet.  Everything on a queue is stamped with the job's
epoch and anything stamped otherwise is dropped, because a job may end
with tasks still queued; the integers are reset only once every worker
of the previous job has reported itself idle.  A worker that raises,
dies or exits fails the job with RuntimeError and takes the fleet with
it: its local results are unrecoverable.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from multiprocessing import get_context, parent_process
from queue import Empty
from typing import Any, Callable, Iterator, NamedTuple

__all__ = ["ProcessFleet", "Wires", "graceful_stop", "WORKER_SWITCH_INTERVAL"]

_CTX = get_context("fork")

# A worker process's search thread shares its interpreter with threads
# that have a moment's work to do now and then — the task queue's
# feeder, a cluster worker's frame receiver.  At the default 5 ms a
# hand-over waits that long to leave, and a STEAL to be seen.
WORKER_SWITCH_INTERVAL = 0.0005


def graceful_stop(proc, *, grace: float = 5.0) -> None:
    """Stop a child process: SIGTERM, wait up to ``grace``, then SIGKILL.

    The graduated escalation gives a cooperating child (one whose main
    thread handles SIGTERM — the job subprocess and the cluster worker)
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


class Wires(NamedTuple):
    """What a fleet's workers share with its owner, made once."""

    task_q: Any  # (epoch, ...) work items, owner and workers both put
    result_q: Any  # (epoch, tag, body) messages to the owner
    done: Any  # raw byte: the job is over (the tree is searched, or a goal met)
    outstanding: Any  # locked int: leases queued or held
    best: Any  # locked int: the shared incumbent value


def _exit_with_owner() -> None:
    """Thread of every worker: a killed owner must not leave it behind,
    whatever it is doing."""
    # Imported here, as is the tracker below: every process that imports
    # the backends (each cluster worker at start-up) would pay for them.
    from multiprocessing.connection import wait

    wait([parent_process().sentinel])
    os._exit(1)


def _worker_main(ctrl, wires: Wires, make_worker: Callable) -> None:
    """A fleet worker: make its worker, hand it each ``(epoch, blob)``
    job as ``run(epoch, message)`` (``blob`` the pickled message), report
    a crash instead of dying silently, report idle, wait for the next
    job."""
    # Not the owner's handlers: ^C is the owner's to act on, and
    # SIGTERM is how it stops a worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Whoever stops the resource tracker waits for every holder of its
    # pipe; a worker registers nothing and may outlive that wait.
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    threading.Thread(target=_exit_with_owner, daemon=True).start()
    sys.setswitchinterval(WORKER_SWITCH_INTERVAL)
    # Nothing unflushed is worth blocking this process's exit for.
    wires.task_q.cancel_join_thread()
    wires.result_q.cancel_join_thread()
    worker = make_worker(wires)
    while True:
        try:
            epoch, blob = ctrl.recv()
        except EOFError:
            return
        try:
            worker.run(epoch, pickle.loads(blob))
        except BaseException as exc:
            wires.result_q.put((epoch, "error", f"{type(exc).__name__}: {exc}"))
        wires.result_q.put((epoch, "idle", None))


class ProcessFleet:
    """Lazily started, long-lived worker processes, one job at a time;
    ``make_worker(wires)`` makes each process's worker."""

    def __init__(self, make_worker: Callable) -> None:
        self._make_worker = make_worker
        self.status = "created"
        self._lock = threading.Lock()
        self._workers: list = []  # (Process, send end of its control pipe)
        self._wires = None
        self._epoch = 0
        atexit.register(self.close)
        os.register_at_fork(after_in_child=self._disown)

    def pids(self) -> list:
        """The worker processes alive now (none before the first job)."""
        return [proc.pid for proc, _ in self._workers]

    def close(self) -> None:
        """Stop the workers, after the job in flight if there is one."""
        with self._lock:
            self._shutdown()

    def _shutdown(self) -> None:
        self.status = "closed"
        workers, self._workers = self._workers, []
        wires, self._wires = self._wires, None
        for _, ctrl in workers:
            ctrl.close()
        for proc, _ in workers:
            graceful_stop(proc)
        if wires is not None:
            wires.task_q.close()
            wires.result_q.close()

    def _disown(self) -> None:
        """In a forked child of the owner, a worker included: the
        workers are not this process's to use or stop, and the owner's
        ends of their control pipes must close when the owner dies."""
        for _, ctrl in self._workers:
            ctrl.close()
        self._workers, self._wires = [], None
        self._lock = threading.Lock()

    def _engage(self, n: int) -> list:
        if any(proc.exitcode is not None for proc, _ in self._workers):
            self._shutdown()
        if self._wires is None:
            self._wires = Wires(
                _CTX.Queue(), _CTX.Queue(),
                _CTX.Value("b", 0, lock=False),
                _CTX.Value("q", 0), _CTX.Value("q", 0),
            )
            # A job may end with tasks unread; never wait to flush them.
            self._wires.task_q.cancel_join_thread()
        while len(self._workers) < n:
            theirs, ours = _CTX.Pipe(duplex=False)
            args = (theirs, self._wires, self._make_worker)
            proc = _CTX.Process(target=_worker_main, args=args, daemon=True)
            self._workers.append((proc, ours))  # first: the child disowns it too
            proc.start()
            theirs.close()
        self.status = "running"
        return self._workers[:n]

    @contextmanager
    def job(self, label: str, n: int, message: Any) -> Iterator[tuple]:
        """Run ``worker.run(epoch, message)`` in ``n`` workers, with the
        shared integers starting at zero.

        Yields ``(wires, epoch, reports)``: ``reports`` iterates over
        the bodies of the ``(epoch, "ok", body)`` messages the workers
        put on ``result_q`` and ends when every worker has left
        ``run``.  Waiting for one is also the crash watchdog.  Leaving
        the block waits for that end; leaving it by an exception stops
        the whole fleet.
        """
        blob = pickle.dumps(message)  # a caller's error, before anything starts
        with self._lock:
            try:
                engaged = self._engage(n)
                wires = self._wires
                self._epoch = epoch = self._epoch + 1
                wires.done.value = 0
                wires.outstanding.value = 0
                wires.best.value = 0
                for _, ctrl in engaged:
                    ctrl.send((epoch, blob))

                def fail(error: str):
                    raise RuntimeError(f"{label} backend worker failed: {error}")

                def reports() -> Iterator[Any]:
                    idle = 0
                    while idle < n:
                        try:
                            stamp, tag, body = wires.result_q.get(timeout=0.1)
                        except Empty:
                            for proc, _ in engaged:
                                if proc.exitcode is not None:
                                    fail(f"worker died with exit code {proc.exitcode} "
                                         "before reporting results")
                            continue
                        if stamp != epoch:
                            continue
                        if tag == "error":
                            fail(body)
                        if tag == "idle":
                            idle += 1
                        else:
                            yield body

                stream = reports()
                yield wires, epoch, stream
                for _ in stream:
                    pass  # a straggler's report, until every worker is idle
            except BaseException:
                self._shutdown()
                raise
