"""Order-preserving distributed workpools.

Standard deque-based work-stealing breaks heuristic search order (§2.3),
so YewPar uses bespoke order-preserving pools (§4.3): tasks are handed
out in the order the search heuristic would visit them, and steals
prefer tasks *near the root* — heuristically the largest subtrees, which
amortise the communication cost (§4.2).

:class:`Workpool` realises this as a priority pool keyed on
``(depth, spawn sequence)``: local pops and remote steals both take the
shallowest, earliest-spawned task.  For the ordering ablation bench a
``"lifo"`` discipline (most-recently-spawned first, the classic deque)
is also provided.

The simulator's localities share one end of the pool.  A Budget worker
of the real runtimes (:mod:`repro.runtime.processes`,
:mod:`repro.cluster.worker`) owns its pool outright and uses both ends
of it, as YewPar's depth pool does: under the ``"depth"`` discipline
:meth:`Workpool.pop` hands the owner its *deepest* task, so a worker
left alone walks its subtrees in the order the sequential search would
and the pool never holds more than the open siblings of one root-to-leaf
path, while :meth:`Workpool.pop_shallowest` takes out the whole level
nearest the root, of which a starving peer is given half
(:mod:`repro.runtime.sharing`).
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

__all__ = ["Workpool", "PoolEntry"]


class PoolEntry:
    """A queued task with its ordering key."""

    __slots__ = ("depth", "seq", "task")

    def __init__(self, depth: int, seq: int, task: Any) -> None:
        self.depth = depth
        self.seq = seq
        self.task = task


class Workpool:
    """One locality's pool of pending tasks.

    ``discipline`` is ``"order"`` (depth-then-spawn-order priority, the
    YewPar depthpool analogue), ``"depth"`` (deepest first, spawn order
    within a depth: the owner's end of that pool), ``"lifo"`` (most
    recent first, the classic work-stealing deque that *breaks*
    heuristic order) or ``"fifo"`` (strict spawn order, ignoring depth).
    """

    DISCIPLINES = ("order", "depth", "lifo", "fifo")

    def __init__(self, discipline: str = "order") -> None:
        if discipline not in self.DISCIPLINES:
            raise ValueError(f"unknown pool discipline {discipline!r}")
        self.discipline = discipline
        self._heap: list[tuple[tuple, int, PoolEntry]] = []  # guarded-by: caller
        self._seq = 0  # guarded-by: caller

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def _key(self, depth: int, seq: int) -> tuple:
        if self.discipline == "order":
            return (depth, seq)
        if self.discipline == "depth":
            return (-depth, seq)
        if self.discipline == "fifo":
            return (seq,)
        return (-seq,)  # lifo

    def push(self, task: Any, depth: int, rank: tuple | None = None) -> None:
        """Add a spawned task; ``depth`` is its root's global depth.

        ``rank`` overrides the discipline key: the Ordered skeleton
        passes the task's heuristic path key so pops follow the exact
        sequential traversal order regardless of spawn interleaving.
        """
        entry = PoolEntry(depth, self._seq, task)
        key = rank if rank is not None else self._key(depth, self._seq)
        heapq.heappush(self._heap, (key, self._seq, entry))
        self._seq += 1

    def pop(self) -> Optional[Any]:
        """Take the highest-priority task, or None if empty.

        Local pops and remote steals use the same end: the simulator
        models contention in time, not in data-structure slots.
        """
        if not self._heap:
            return None
        _, _, entry = heapq.heappop(self._heap)
        return entry.task

    def pop_shallowest(self) -> list:
        """Take every task at the shallowest depth, in spawn order.

        The thief's end of the pool, whatever the discipline: the
        subtrees nearest the root — heuristically the largest, so one
        hand-over amortises its round trip (§4.2) — all siblings, in the
        heuristic's order.  A scan of the pool, where :meth:`pop` is a
        heap operation: owners pop per task, peers starve a few times a
        search.  Empty pool, empty list.
        """
        if not self._heap:
            return []
        depth = min(item[2].depth for item in self._heap)
        level = [item for item in self._heap if item[2].depth == depth]
        self._heap = [item for item in self._heap if item[2].depth != depth]
        heapq.heapify(self._heap)
        level.sort(key=lambda item: item[1])
        return [item[2].task for item in level]
