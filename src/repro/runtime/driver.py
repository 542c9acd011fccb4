"""One job driver over two transports.

A coordination has two halves: the workers' (:mod:`repro.runtime.worker`)
and the driver's, which starts the job, keeps what the workers report
and says what the search found.  :class:`JobDriver` is the driver's
half for both real runtimes: the process fleet's parent
(:mod:`repro.runtime.processes`) and the cluster coordinator
(:mod:`repro.cluster.coordinator`) each run one per job, and keep only
what their transport alone knows — pipes and shared integers, or a
lease table, steal mediation and liveness.  For Ordered and
Depth-Bounded (§4.3: Ordered is Depth-Bounded with an ordered workpool)
it walks the frontier, the job's one walk, and leases runs of it by
child-index path; a run's report is finalised in the
:class:`~repro.core.ordered.OrderedLedger` or merged under the live
incumbent (the split of "Replicable Parallel Branch and Bound Search").

A job goes ``start(engage)``; then, Budget and Stack-Stealing, a
:meth:`~JobDriver.merge` per report until the transport's own
termination count says the tree is searched; runs, :meth:`~JobDriver.lease`
/ :meth:`~JobDriver.accept` (Ordered) or :meth:`~JobDriver.merge` /
:meth:`~JobDriver.requeue` until :attr:`~JobDriver.finished`; then
:meth:`~JobDriver.result`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.ordered import OrderedLedger, ordered_frontier
from repro.core.results import SearchMetrics, SearchResult
from repro.runtime.worker import WorkerJob

__all__ = ["OrderedRun", "JobDriver"]


@dataclass(frozen=True)
class OrderedRun:
    """One run: the tasks ``seqs`` — a ``range`` of fresh work, or an
    ascending list — the best they were cut under (None for
    enumeration), and the same tasks by path, as a worker is told them
    (:meth:`~repro.core.ordered.FrontierTasks.stretches`)."""

    seqs: Sequence[int]
    bound: Optional[int] = None
    stretches: Sequence[list] = ()


class JobDriver:
    """The driver's half of one job (``job`` checked its knobs).

    ``knowledge``, ``metrics`` and ``goal`` are the search so far;
    ``best`` is the published best (None for enumeration): what the
    workers prune from, and for Ordered the finalised-prefix best.
    ``finished`` says the driver needs nothing more: phase 1 ended the
    search, a goal was met, or every task is done (:attr:`outstanding`).
    A sharing job ends when its transport's termination count says so.

    Runs go out in sequence order — always the lowest-numbered
    work not yet handed out, so a task the ledger wants run again comes
    before anything fresh — and never more than two runs per worker are
    in flight.  Run length needs no knob: it starts at 1, doubles with
    every lease, is capped at a quarter of an even share of what is left
    to hand out, drops back to 1 when the finalised best moves, and is
    never shorter than the ``share_poll`` nodes between two of a
    worker's looks at the world, in tasks of the mean size done so far
    (docs/parallel.md).  The tasks to run again go out in as many leases
    as there are workers, an even share each.  An Ordered task the
    finalised best already prunes at its root is never leased: ``start``
    and ``accept`` park it in the ledger as the record it would report.
    """

    def __init__(self, job: WorkerJob) -> None:
        self.job = job
        self.knowledge = job.stype.initial_knowledge(job.spec)
        self.best: Optional[int] = None if job.enum else self.knowledge.value
        self.metrics = SearchMetrics()
        self.goal = self.finished = False
        self.ledger: Optional[OrderedLedger] = None  # Ordered, once started
        self.started = time.perf_counter()
        self.in_flight = 0  # runs leased, not yet done or requeued
        self._tasks: Any = ()  # the frontier of a run job, walked here alone
        self._prefix = 0  # the nodes above it
        self._owed = 0  # Depth-Bounded tasks not yet reported
        self._reruns: list[int] = []  # ascending; all below the fresh
        self._shares = 0  # leases cut from _reruns since it last grew
        self._fresh: list[int] = []  # ascending: never leased, not condemned
        self._fresh_under: Any = None  # the best _fresh was last condemned under
        self._size = 1

    def start(self, engage: Callable[[], None]) -> list:
        """The first work of the job; returns its first leases as
        ``(roots, depth)`` pairs: Budget's and Stack-Stealing's root, or
        nothing for Ordered and Depth-Bounded, whose frontier this walks.

        ``engage()`` tells the workers about the job: before the
        Ordered walk, so that they build the spec meanwhile, after
        phase 1 otherwise — and never when phase 1
        is the whole search (``d_cutoff <= 0``, a goal met above the
        cutoff, a tree that ends there), which sets :attr:`finished`.
        """
        job = self.job
        walks = job.coordination == "ordered" and job.d_cutoff > 0
        if walks:
            engage()
        if job.runs:
            frontier = ordered_frontier(job.spec, job.stype, d_cutoff=job.d_cutoff)
            self.knowledge, self.goal = frontier.knowledge, frontier.goal
            self.metrics, self._prefix = frontier.metrics, frontier.metrics.nodes
            self._tasks, self._owed = frontier.tasks, len(frontier.tasks)
            self._fresh = list(range(self._owed))
            self.finished = not self._owed  # a goal empties them too
            if not job.enum:
                self.best = self.knowledge.value
        if job.coordination == "ordered":
            self.ledger = OrderedLedger(job.stype, frontier)
            self.metrics = self.ledger.metrics
            self._condemn()
        if not (walks or self.finished):
            engage()
        return [] if job.runs else [([job.spec.root], 0)]

    def merge(self, found: Any, metrics: Optional[SearchMetrics] = None,
              goal: bool = False, tasks: int = 0) -> bool:
        """Fold in a report: what it ``found`` (an accumulator, or an
        incumbent whose witness may be None; None: nothing), the counters
        of a lease that ended, its goal, and a Depth-Bounded run's number
        of ``tasks``, which ends the run.  Returns True when the published
        best moved.  An incumbent's goal is read off the knowledge: a
        lease stopped by a target published elsewhere holds no witness."""
        stype = self.job.stype
        if found is not None:
            self.knowledge = stype.combine(self.knowledge, found)
        if metrics is not None:
            self.metrics.merge(metrics)
        if tasks:
            self.in_flight -= 1
            self._owed -= tasks
        self.goal = self.goal or (goal if self.job.enum else stype.is_goal(self.knowledge))
        if self.job.runs:
            self.finished = self.goal or not self._owed
        if self.job.enum or found is None or found.value <= self.best:
            return False
        self.best = found.value
        return True

    # -- runs ------------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Frontier tasks waiting for a lease."""
        return len(self._reruns) + len(self._fresh)

    @property
    def outstanding(self) -> int:
        """Frontier tasks not finalised (Ordered) or reported (Depth-Bounded)."""
        ledger = self.ledger
        return self._owed if ledger is None else ledger.task_count - ledger.next_seq

    def lease(self, workers: int) -> Optional[OrderedRun]:
        """Cut the next run, or None while the window of ``workers``
        workers is full or there is nothing left to hand out."""
        if self.finished or self.in_flight >= 2 * workers:
            return None
        reruns, ledger = self._reruns, self.ledger
        # A requeued seq may have finalised meanwhile (a duplicate
        # report from the lease presumed lost): nothing left to run.
        while ledger is not None and reruns and reruns[0] < ledger.next_seq:
            del reruns[0]
        size = min(self._size, max(1, self.backlog // (4 * workers)))
        done = len(self._tasks) - self.outstanding
        per_task = (self.metrics.nodes - self._prefix) / done if done else 0.0
        if per_task:
            size = max(size, int(self.job.share_poll // per_task))
        seqs: Sequence[int]
        if reruns:
            share = max(size, -(-len(reruns) // max(1, workers - self._shares)))
            self._shares += 1
            seqs = reruns[:share]
            del reruns[:share]
        elif self._fresh:
            seqs = self._fresh[:size]
            del self._fresh[:size]
            if seqs[-1] - seqs[0] == len(seqs) - 1:
                seqs = range(seqs[0], seqs[-1] + 1)
        else:
            return None
        self._size = size * 2
        self.in_flight += 1
        return OrderedRun(seqs, self.best, self._tasks.stretches(seqs))

    def accept(self, blocks: Sequence[dict], done: bool) -> bool:
        """Feed one report's blocks to the ledger; ``done`` says the run
        that sent it is complete.  Returns True when the finalised best
        moved — the transport's cue to publish :attr:`best`."""
        ledger = self.ledger
        before = ledger.required_bound()
        for block in blocks:
            ledger.record(block)
        self._queue_again(ledger.advance())
        if done:
            self.in_flight -= 1
        self._condemn()
        self.knowledge, self.goal = ledger.knowledge, ledger.goal
        self.best = ledger.required_bound()
        if self.best == before:
            return False
        self._size = 1
        return True

    def requeue(self, run: OrderedRun) -> int:
        """A run was lost (its worker died or handed it back): queue what
        it owes again, counted as reassigned; returns how many tasks."""
        self.in_flight -= 1
        first = 0 if self.ledger is None else self.ledger.next_seq
        owed = [seq for seq in run.seqs if seq >= first]
        self._queue_again(owed)
        self.metrics.reassigned += len(owed)
        return len(owed)

    def _condemn(self) -> None:
        """Park every task waiting for a lease that the finalised best
        prunes at its root (:meth:`~repro.core.ordered.FrontierTasks.pruned_at_root`):
        it is finalised without a node, a lease or a kernel call.  Called
        where the transports look for the end of the job — ``start`` and
        ``accept`` — so :attr:`finished` flips there and nowhere else."""
        ledger = self.ledger
        if not ledger.finished:
            best = ledger.required_bound()
            self._reruns, doomed = self._tasks.split(self._reruns, best)
            if best != self._fresh_under:
                self._fresh, more = self._tasks.split(self._fresh, best)
                self._fresh_under = best
                doomed += more
            if doomed:
                ledger.condemn(doomed)
                self._queue_again(ledger.advance())
        self.finished = ledger.finished

    def _queue_again(self, seqs: Sequence[int]) -> None:
        if seqs:
            self._reruns = sorted(set(self._reruns).union(seqs))
            self._shares = 0

    def result(self, workers: int) -> SearchResult:
        """What the search found, on ``workers`` workers."""
        self.metrics.weighted_nodes = self.metrics.nodes
        return SearchResult.from_knowledge(
            self.job.stype, self.knowledge, self.goal, self.metrics,
            time.perf_counter() - self.started, workers,
        )
