"""The job-status event hub bridging scheduler threads and asyncio.

Scheduler lifecycle callbacks fire on worker threads (and, for the
cluster backend, on the coordinator's loop thread); the gateway's
streaming handlers live on the asyncio loop.  :class:`EventBroker` sits
between them: ``publish`` is thread-safe and lock-cheap, ``subscribe``
is an async iterator that replays a job's full history and then follows
live events until the job reaches a terminal state — so a client that
connects *after* ``queued`` still sees the whole story, and a client
that connects after ``done`` gets an immediately-terminating stream
rather than a hang.

Bounded on both axes: per-job histories cap at ``history_limit``
(oldest *non-terminal* events dropped first, with a ``dropped`` marker
event so truncation is visible), and the broker retires the
oldest *terminal* job logs beyond ``max_jobs`` so a long-lived gateway
does not leak one log per job forever.  A log also goes with its job's
record: a serving scheduler publishes ``expired`` when it drops one.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import AsyncIterator, Callable, Optional

from repro.service.scheduler import RETAINED_JOBS

__all__ = ["TERMINAL_EVENTS", "EventBroker"]

# Event names that end a job's stream (mirrors JobState terminals).
TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled", "timeout"})


class _JobLog:
    """Append-only event history + live subscriber fan-out for one job."""

    __slots__ = ("events", "terminal", "dropped", "subscribers")

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.terminal = False
        self.dropped = 0
        # (loop, queue) pairs; events are marshalled onto each
        # subscriber's loop with call_soon_threadsafe.
        self.subscribers: list[tuple[asyncio.AbstractEventLoop, asyncio.Queue]] = []


class EventBroker:
    """Thread-safe publish, asyncio subscribe, bounded retention.

    Args:
        history_limit: per-job event cap; incumbent chatter beyond it
            drops the oldest events (terminality is never dropped).
        max_jobs: total job logs retained; beyond it the oldest
            *terminal* logs are evicted (live jobs are never evicted).
        clock: wall-clock source stamped onto events (injectable).
    """

    def __init__(
        self,
        *,
        history_limit: int = 512,
        max_jobs: int = RETAINED_JOBS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if history_limit < 8:
            raise ValueError("history_limit must be >= 8")
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.history_limit = history_limit
        self.max_jobs = max_jobs
        self._clock = clock
        self._lock = threading.Lock()
        self._logs: "OrderedDict[str, _JobLog]" = OrderedDict()  # guarded-by: _lock

    # -- publishing (any thread) --------------------------------------------

    def publish(self, job_id: str, event: str, **data) -> None:
        """Record ``event`` for ``job_id`` and wake its subscribers.

        Safe to call from any thread; never raises into the caller
        (the scheduler's hot path must not die on a slow stream).
        """
        record = {"job": job_id, "event": event, "ts": self._clock(), **data}
        with self._lock:
            if event == "expired":  # the job's record went: its log goes too
                self._logs.pop(job_id, None)
                return
            log = self._logs.get(job_id)
            if log is None:
                log = _JobLog()
                self._logs[job_id] = log
                self._evict_locked()
            if log.terminal:
                return  # post-terminal noise: the stream already ended
            log.events.append(record)
            if len(log.events) > self.history_limit:
                # Keep the most recent events; the head slot becomes a
                # marker carrying the cumulative drop count.
                keep = self.history_limit - 1
                trimmed = len(log.events) - keep
                if log.dropped:
                    trimmed -= 1  # the old head marker is not a real event
                log.dropped += trimmed
                log.events = [
                    {
                        "job": job_id,
                        "event": "dropped",
                        "ts": record["ts"],
                        "count": log.dropped,
                    }
                ] + log.events[-keep:]
            if event in TERMINAL_EVENTS:
                log.terminal = True
            subscribers = list(log.subscribers)
        for loop, queue in subscribers:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, record)
            except RuntimeError:
                pass  # subscriber's loop is gone; its queue is garbage

    def _evict_locked(self) -> None:
        """Drop the oldest terminal logs beyond ``max_jobs`` (lock held)."""
        if len(self._logs) <= self.max_jobs:
            return
        for job_id in list(self._logs):
            log = self._logs[job_id]
            if log.terminal and not log.subscribers:
                del self._logs[job_id]
                if len(self._logs) <= self.max_jobs:
                    return

    # -- introspection -------------------------------------------------------

    def history(self, job_id: str) -> list[dict]:
        """A copy of the job's recorded events (empty if unknown)."""
        with self._lock:
            log = self._logs.get(job_id)
            return list(log.events) if log else []

    def closed(self, job_id: str) -> bool:
        """Whether the job's stream has reached a terminal event."""
        with self._lock:
            log = self._logs.get(job_id)
            return bool(log and log.terminal)

    def __len__(self) -> int:
        with self._lock:
            return len(self._logs)

    # -- subscribing (asyncio side) -----------------------------------------

    async def subscribe(
        self, job_id: str, *, poll_timeout: Optional[float] = None
    ) -> AsyncIterator[dict]:
        """Replay the job's history, then follow live events.

        The iterator ends after yielding a terminal event.  With
        ``poll_timeout`` set, a silent gap longer than that yields a
        synthetic ``{"event": "ping"}`` keep-alive record instead of
        blocking forever — streaming handlers use it to detect dead
        client sockets by attempting a write.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        with self._lock:
            log = self._logs.get(job_id)
            if log is None:
                log = _JobLog()
                self._logs[job_id] = log
                self._evict_locked()
            replay = list(log.events)
            terminal = log.terminal
            if not terminal:
                log.subscribers.append((loop, queue))
        try:
            for record in replay:
                yield record
                if record["event"] in TERMINAL_EVENTS:
                    return
            if terminal:
                return
            while True:
                try:
                    record = await asyncio.wait_for(queue.get(), poll_timeout)
                except asyncio.TimeoutError:
                    yield {"job": job_id, "event": "ping", "ts": self._clock()}
                    continue
                yield record
                if record["event"] in TERMINAL_EVENTS:
                    return
        finally:
            with self._lock:
                log = self._logs.get(job_id)
                if log is not None:
                    try:
                        log.subscribers.remove((loop, queue))
                    except ValueError:
                        pass
