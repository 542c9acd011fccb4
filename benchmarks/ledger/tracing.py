"""The benchmark's own span recorder.

Spans ``{id, name, start, end, parent, run_id}`` are recorded around
every call the benchmark makes into a layer, kept in memory, and
written out when the run ends.  Nothing in ``src/`` knows about them:
spans inside the program are a later issue.

The recorder can be switched off (``enabled = False``); a disabled
``span`` costs one attribute read, which is what lets a traced run
alternate traced and untraced passes and report the difference as
``bench.trace_overhead_frac``.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span store; safe to use from the gateway client threads."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        """Record one span; nests under the calling thread's open span."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "run_id": self.run_id,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds (a
        span's duration minus the part its child spans cover)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(s["id"], 0.0)
        return out
