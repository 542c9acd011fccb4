"""The coordinator's lease table: a job's work is queued, held or gone.

A Budget or Stack-Stealing record is sibling subtree roots at one
depth (kept wire-encoded, so a re-lease is cheap); an Ordered or
Depth-Bounded lease is one run of frontier tasks, named by path, that
the job's :class:`~repro.runtime.driver.JobDriver` cuts as slots come
free.  A record is queued or held by one worker, a run only held.  A
lease whose last ``RESULT`` is accepted is dropped, and so is a lost
run, whose tasks go back to the driver to be cut again under a new id.
A sharing job is searched when nothing is queued or held — the mts
master's rule (PAPERS.md): done when its list of unexplored subtrees is
empty and no worker holds one — and a run job when its driver says so.

A record's **epoch** is its fault-recovery value.  A requeued record
keeps its id and bumps its epoch, so whatever its previous holder still
says about it names an epoch nobody holds, and :meth:`LeaseTable.held`
refuses it.

The table makes the coordinator's scheduling decisions: the grant round
and, when a job's queue is empty, which busy workers are asked for work
on behalf of the idle ones.  A Budget or Stack-Stealing holder gives
from its pool or its stack; a run is never split, so its holder is
asked only for the lease queued behind the one it runs, which comes
back as a release.  Every lease
starts, ends, is handed over or is stolen here, so this is where an
event stream of those is recorded.  It knows no socket, frame or clock:
the coordinator drives it on its loop thread,
``tests/cluster/test_leases.py`` in memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.runtime.driver import JobDriver, OrderedRun

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One lease: a record of sibling roots at one depth, or a run."""

    id: int
    nodes: Any  # wire-encoded roots; None for a run
    depth: int = 0
    epoch: int = 0
    run: Optional[OrderedRun] = None


@dataclass(eq=False)
class _Holder:
    """A worker the job may lease to, and what the table heard from it."""

    worker: int
    slots: int
    leases: dict = field(default_factory=dict)  # id -> Lease
    eligible: bool = True  # not retiring: granted work and asked for it
    steal_pending: bool = False  # a STEAL is in flight to it (one at a time)
    steal_dry: bool = False  # its last answer was empty: not asked again yet
    pool: int = 0  # subtrees in its own pool, as last reported


class LeaseTable:
    """The lease table of the job ``driver`` runs.  Workers are the
    coordinator's ids; among workers holding as many leases, earlier
    joiners are served first."""

    def __init__(self, driver: JobDriver) -> None:
        self.driver = driver
        self.queue: deque[Lease] = deque()
        self.holders: dict[int, _Holder] = {}
        self._ids = 0

    # -- workers -----------------------------------------------------------

    def join(self, worker: int, slots: int) -> None:
        """``worker`` may hold up to ``slots`` leases."""
        self.holders[worker] = _Holder(worker, slots)

    def retire(self, worker: int) -> None:
        """Grant ``worker`` nothing more and ask it for nothing; it
        still answers for what it holds."""
        if worker in self.holders:
            self.holders[worker].eligible = False

    def leave(self, worker: int) -> int:
        """``worker`` is gone: requeue what it held, and say how much."""
        holder = self.holders.pop(worker, None)
        if holder is None:
            return 0
        for lease in sorted(holder.leases.values(), key=lambda lease: lease.id):
            self._requeue(lease)
        return len(holder.leases)

    def report_pool(self, worker: int, pool: int) -> None:
        """``worker`` keeps ``pool`` subtrees in its own pool."""
        if worker in self.holders:
            self.holders[worker].pool = pool

    # -- work --------------------------------------------------------------

    def offer(self, nodes: Any, depth: int) -> None:
        """Queue one record of roots."""
        self._ids += 1
        self.queue.append(Lease(self._ids, nodes, depth))

    def hand_over(self, nodes: list, depth: int) -> None:
        """Queue the subtrees a lease-holder handed over (``STOLEN``,
        ``OFFCUT``) as one record per idle worker, every ``idle``-th
        node each, so that each gets big and small subtrees.  With
        nobody idle the queue balances: one record per subtree."""
        idle = sum(1 for h in self.holders.values() if h.eligible and not h.leases)
        shares = min(idle, len(nodes)) or len(nodes)
        for first in range(shares):
            self.offer(nodes[first::shares], depth)

    def held(self, worker: int, task: Any, epoch: Any) -> Optional[Lease]:
        """The lease ``task`` iff ``worker`` holds it at ``epoch``; None
        drops a stale or forged frame."""
        holder = self.holders.get(worker)
        if holder is None or not isinstance(task, int):
            return None
        lease = holder.leases.get(task)
        return lease if lease is not None and lease.epoch == epoch else None

    def settle(self, worker: int, lease: Lease, done: bool) -> None:
        """``worker`` reported on ``lease``, which ``done`` drops.  A
        report is fresh progress: every empty verdict is stale, and a
        STEAL its sender left unanswered died with the lease, whose
        holder's pool is dry."""
        holder = self.holders[worker]
        holder.steal_pending = False
        holder.pool = 0
        for other in self.holders.values():
            other.steal_dry = False
        if done:
            del holder.leases[lease.id]

    def release(self, worker: int, task: Any, epoch: Any) -> bool:
        """``worker`` hands ``task`` back unstarted: requeue it.  False
        if it does not hold it at ``epoch``."""
        lease = self.held(worker, task, epoch)
        if lease is not None:
            del self.holders[worker].leases[lease.id]
            self._requeue(lease)
        return lease is not None

    def _requeue(self, lease: Lease) -> None:
        if lease.run is not None:
            self.driver.requeue(lease.run)
            return
        # Bump the epoch *before* re-queueing: anything the previous
        # holder still says about this record is stale by construction.
        lease.epoch += 1
        self.queue.appendleft(lease)
        self.driver.metrics.reassigned += 1

    def steal_answered(self, worker: int, empty: bool) -> None:
        """``worker`` answered its STEAL; after an empty answer it is
        not asked again until a report or a fresh lease."""
        holder = self.holders.get(worker)
        if holder is not None:
            holder.steal_pending = False
            holder.steal_dry = holder.steal_dry or empty

    # -- the grant round ---------------------------------------------------

    def grant(self) -> list:
        """Lease queued work to free slots; returns ``(worker, leases,
        steal)`` for each worker with something to be told.

        Each pass grants at most one lease per eligible worker with a
        free slot, fewest leases first — a hand-over is for whoever has
        nothing, not for a prefetch slot of the worker that gave it
        away — until nothing is left to lease or every slot is full;
        round-robin, not a greedy fill, spreads the first hand-overs
        across the fleet.  A run job's runs are cut by the driver as
        slots come free.  When nothing is left to lease, ``steal`` names
        the busy workers to ask for work on behalf of the idle ones: one
        per idle worker, those with the most to give first (the fullest
        pool as last reported, then the most leases), none with a STEAL
        in flight or an empty last answer, and on a run job only those
        with a lease queued behind the one they run.
        """
        eligible = sorted(
            (h for h in self.holders.values() if h.eligible), key=lambda h: len(h.leases)
        )
        granted: dict[int, list] = {}
        more = True
        while more:
            more = False
            for holder in eligible:
                if len(holder.leases) >= holder.slots:
                    continue
                lease = self._next(len(eligible))
                if lease is None:
                    break
                holder.leases[lease.id] = lease
                holder.steal_dry = False  # a fresh lease is fresh stack
                granted.setdefault(holder.worker, []).append(lease)
                more = True
        victims: list = []
        if not self.queue:
            idle = sum(1 for h in eligible if not h.leases)
            # Leases a holder must have to be asked: any, if it can split
            # the one it runs; else one queued behind it.
            least = 2 if self.driver.job.runs else 1
            victims = [
                h for h in eligible
                if len(h.leases) >= least and not h.steal_pending and not h.steal_dry
            ]
            victims.sort(key=lambda h: (h.pool, len(h.leases)), reverse=True)
            del victims[idle:]
            for holder in victims:
                holder.steal_pending = True
        return [
            (h.worker, granted.get(h.worker, []), h in victims)
            for h in eligible if h.worker in granted or h in victims
        ]

    def _next(self, workers: int) -> Optional[Lease]:
        if not self.driver.job.runs:
            return self.queue.popleft() if self.queue else None
        run = self.driver.lease(workers)
        if run is None:
            return None
        self._ids += 1
        return Lease(self._ids, None, run=run)

    # -- what the coordinator reads ----------------------------------------

    @property
    def finished(self) -> bool:
        """Runs: the driver says so.  Sharing: nothing is queued or held
        (TCP keeps a lease's hand-overs ahead of its ``RESULT``, so
        never while work is in flight)."""
        if self.driver.job.runs:
            return self.driver.finished
        return not self.queue and not self.leased

    @property
    def leased(self) -> int:
        return sum(len(h.leases) for h in self.holders.values())

    @property
    def outstanding(self) -> int:
        """Frontier tasks not done (the driver's ``outstanding``), or
        records queued or held."""
        if self.driver.job.runs:
            return self.driver.outstanding
        return len(self.queue) + self.leased

    @property
    def backlog(self) -> int:
        """Runnable, unstarted subtrees: frontier tasks waiting for a
        lease, or the roots queued here plus the holders' own pools."""
        if self.driver.job.runs:
            return self.driver.backlog
        return sum(len(lease.nodes) for lease in self.queue) + sum(
            h.pool for h in self.holders.values()
        )
