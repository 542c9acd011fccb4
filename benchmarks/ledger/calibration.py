"""Speed calibration: every timed operation is read against the machine's
speed around that moment.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of per cent — up to 2x between whole runs — in phases longer than
any one repetition.  A fixed pure-Python kernel (the hand-written UTS
counter on a pinned 81 k-node tree) is therefore timed immediately
before and after every operation.  When the run's readings are all in,
an operation's seconds are divided by its *speed*: the median reading
from ``WINDOW_S`` before it started to ``WINDOW_S`` after it ended, over
``REFERENCE_S`` — what the operation would have taken on a machine that
runs the kernel in ``REFERENCE_S`` (there, normalised seconds are plain
seconds).  A change to the program moves the operation and not the
kernel, so it shows in full; a slow phase of the host moves both and
cancels.

Two kinds of reading, because one process and two processes do not slow
down together (the two cores differ in speed from phase to phase):

- ``solo`` — the kernel in the calling process: for the sequential and
  hand-written cells.  One process sits on one core whose speed changes
  from second to second, so only the two adjacent readings count.
- ``pair`` — the kernel in two helper processes at once, mean of the
  two: for everything that keeps both cores busy — the parallel cells,
  the gateway loop (server, backend and client threads) and set-up (two
  workers starting).  Both cores together change speed slowly and a
  single reading is the noisier signal, so the window is wide.

Measured over 20 runs per workload (spread = inter-quartile distance of
the run medians over their median, mean over workloads): adjacent solo
readings cut the sequential wall's spread from 9.7 % to 3.5 % (a window
of 8 s: 3.8 %, pair readings: 6 %); pair readings within 8 s cut the
parallel walls' from 9.8 % to 7.2 % (any window did) and the gateway
metrics' from 8.8 % to 6.3 % (adjacent solo readings: 10 %).

The helpers are started with the *spawn* method (a process that calls
``run_workload`` twice, as the tests do, may have threads by then),
answer one reading before ``Clock()`` returns so their start-up
disturbs nothing, block on a pipe between readings, and are stopped and
joined by ``close``.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .instances import handwritten_uts_count

REFERENCE_S = 0.031  # the kernel's time on the reference machine (this sandbox, typically)
WINDOW_S = {"solo": 0.0, "pair": 8.0}
KERNEL_TREE = (4.0, 8, 439092716)  # spec.FULL.micro_uts: 81 370 nodes
KERNEL_CALLS = 2
FRESH_S = 0.010  # a reading this recent has seen nothing else run since
HELPERS = 2
HELPER_TIMEOUT_S = 30.0


def kernel_s() -> float:
    t0 = time.perf_counter()
    for _ in range(KERNEL_CALLS):
        handwritten_uts_count(*KERNEL_TREE)
    return time.perf_counter() - t0


def _helper(conn) -> None:
    while conn.recv():
        conn.send(kernel_s())


@dataclass
class Timed:
    """One bracketed operation: when it ran and which reading it uses."""

    kind: str
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Clock:
    """Calibration readings, shared between adjacent operations."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(HELPERS):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))
        try:
            self._pair_s()  # both helpers are up and have imported the kernel
        except BaseException:
            self.close()
            raise
        # kind -> [(begin, end, seconds the kernel took)], in time order
        self.readings: dict[str, list[tuple]] = {"solo": [], "pair": []}

    def _pair_s(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        for _, conn in self._helpers:
            if not conn.poll(HELPER_TIMEOUT_S):
                raise RuntimeError("a calibration helper did not answer")
        return statistics.mean(conn.recv() for _, conn in self._helpers)

    def reading(self, kind: str) -> None:
        """Time the kernel now, unless the last reading of this kind is
        so recent that nothing else has run since."""
        readings = self.readings[kind]
        begin = time.perf_counter()
        if readings and begin - readings[-1][1] < FRESH_S:
            return
        value = kernel_s() if kind == "solo" else self._pair_s()
        readings.append((begin, time.perf_counter(), value))

    @contextmanager
    def around(self, kind: str):
        """Bracket a block with two readings and time it."""
        timed = Timed(kind)
        self.reading(kind)
        timed.start = time.perf_counter()
        try:
            yield timed
        finally:
            timed.end = time.perf_counter()
            self.reading(kind)

    def speed(self, timed: Timed) -> float:
        """The factor by which the machine was slower than the reference
        machine around ``timed`` (1.0: as fast; 2.0: half as fast).
        Ask once the run's readings are all in."""
        window = WINDOW_S[timed.kind] + FRESH_S
        near = [
            value for begin, end, value in self.readings[timed.kind]
            if end >= timed.start - window and begin <= timed.end + window
        ]
        return statistics.median(near) / REFERENCE_S

    def close(self) -> None:
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc, _ in self._helpers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []
