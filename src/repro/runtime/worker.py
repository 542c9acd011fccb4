"""One worker over two transports.

YewPar starts its workers once per locality and feeds them from the
locality's workpool (§4.3); a coordination is a policy that runs on
that worker, not a second worker.  :class:`Worker` is that worker for
both real runtimes: it holds the job in hand (:class:`WorkerJob`), the
specs of the last jobs (:class:`SpecCache`) and the lease loop.  Its
transport is a subclass — the process fleet's pipes and shared
integers (:class:`repro.runtime.processes.PipeWorker`) or the
cluster's frames (:class:`repro.cluster.worker.ClusterWorker`) — and
the kernel reaches it only at its polls.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.ordered import FrontierTasks, execute_run
from repro.core.searchtypes import (
    Decision, Enumeration, Incumbent, Optimisation, SearchType, make_search_type,
)
from repro.runtime.sharing import LeaseOutcome, execute_lease
from repro.runtime.workpool import Workpool

__all__ = [
    "JOB_KNOBS", "RUNS", "job_knobs", "make_stype", "stype_payload", "SpecCache", "WorkerJob",
    "Worker",
]

# The knobs of a job, beside its coordination, on either transport.
JOB_KNOBS = ("budget", "share_poll", "d_cutoff", "chunked")

# Coordinations leased in runs of the driver's frontier, named by path:
# one report each, never split, no node shipped.
RUNS = ("ordered", "depthbounded")


def job_knobs(params: Any) -> dict:
    """A :class:`~repro.core.params.SkeletonParams` reduced to its job knobs."""
    return {knob: getattr(params, knob) for knob in JOB_KNOBS}


def make_stype(kind: str, kwargs: dict) -> SearchType:
    """Top-level (picklable) search-type factory used by the backends."""
    return make_search_type(kind, **kwargs)


def stype_payload(stype: SearchType) -> tuple[str, dict]:
    """Reduce a standard search type to ``(kind, kwargs)`` for shipping
    to worker processes, where :func:`make_stype` rebuilds it.

    Only the three stock types survive this round trip; subclasses and
    Enumeration instances with custom monoids carry behaviour that
    cannot be reconstructed by name, so they are rejected with advice.
    """
    if type(stype) is Decision:
        return "decision", {"target": stype.target}
    if type(stype) is Optimisation:
        return "optimisation", {}
    if type(stype) is Enumeration and stype.is_default:
        return "enumeration", {}
    raise ValueError(
        f"the processes backend cannot ship search type {stype!r} to workers "
        "by name; pass an explicit stype_factory to the multiprocessing_* "
        "functions instead"
    )


# How many specs a SpecCache keeps: a service's fleet serves its own
# jobs and its process's other callers, each naming a spec of its own.
SPECS_KEPT = 8


class SpecCache:
    """The specs of the last :data:`SPECS_KEPT` keys asked for, each
    kept while later jobs name it (instances are deterministic: it would
    be rebuilt identical).  The list is replaced whole, so threads
    sharing it each get the spec they asked for: one per worker, in the
    fleet's parent and in the coordinator."""

    def __init__(self) -> None:
        self._entries: list = []  # (key, spec), the most recent first

    def get(self, key: Any, build: Callable[[], Any]) -> Any:
        """The spec ``key`` names: ``build()``'s, unless it is kept."""
        entries = self._entries
        entry = next((entry for entry in entries if entry[0] == key), None)
        if entry is None:
            entry = (key, build())
        if not entries or entries[0] is not entry:
            self._entries = [entry, *(e for e in entries if e is not entry)][:SPECS_KEPT]
        return entry[1]


class WorkerJob:
    """One job, as both its driver and its workers hold it.

    A ``budget`` or ``share_poll`` below 1 is a ValueError.  ``budget``
    is None but for Budget; every lease starts from ``zero``, with no
    witness of this worker's.  ``runs``: the leases are runs (:data:`RUNS`),
    and ``tasks`` the table of the parents they named.  ``bound`` and
    ``done`` are for a transport that is told the incumbent and the end
    of the job rather than reading it.
    """

    def __init__(
        self, id: int, spec: Any, stype: SearchType, coordination: str, *,
        budget: int = 1000, share_poll: int = 64, d_cutoff: int = 2, chunked: bool = True,
    ) -> None:
        for knob, value in (("budget", budget), ("share_poll", share_poll)):
            if int(value) < 1:
                raise ValueError(f"{knob} must be >= 1")
        self.id = id
        self.spec = spec
        self.stype = stype
        self.enum = stype.kind == "enumeration"
        self.coordination = coordination
        self.budget = int(budget) if coordination == "budget" else None
        self.share_poll = int(share_poll)
        self.d_cutoff = int(d_cutoff)
        self.chunked = bool(chunked)
        zero = stype.initial_knowledge(spec)
        self.zero = zero if self.enum else Incumbent(zero.value, None)
        self.runs = coordination in RUNS
        self.tasks = FrontierTasks(spec, stype, self.d_cutoff) if self.runs else None
        self.bound = 0
        self.done = False


class Worker:
    """The lease loop, behind the transport a subclass supplies: the
    methods under "the transport" below.  An ``OSError`` out of the
    transport ends the loop; what that means is the transport's call.
    """

    def __init__(self) -> None:
        self.specs = SpecCache()
        self.pool = Workpool("depth")  # the lease in hand's unstarted subtrees
        self.job: Optional[WorkerJob] = None  # the job of the work in hand

    def serve(self) -> None:
        """Take work from :meth:`next_work` until it hands over None."""
        while (item := self.next_work()) is not None:
            job, work = item
            self.job = job
            try:
                if job.coordination == "ordered":
                    execute_run(
                        job.spec, job.stype, job.tasks, *work, self.flush,
                        published=self.bound, should_abort=self.aborted,
                        poll=job.share_poll,
                    )
                elif job.runs:  # Depth-Bounded: one lease, nobody asks for it
                    _seqs, rows = job.tasks.rows(work[0])
                    roots = [job.tasks.node(row) for row in rows]
                    self._run_lease(job, roots, job.tasks.depth, lambda: 0)
                else:
                    self._run_lease(job, *work, self.demand)
            except OSError:
                raise
            except Exception as exc:
                self.fail(f"{type(exc).__name__}: {exc}")

    def _run_lease(self, job: WorkerJob, roots: list, depth: int, demand: Callable) -> None:
        try:
            outcome = execute_lease(
                job.spec, job.stype, roots, depth, job.zero, self.pool,
                budget=job.budget, chunked=job.chunked, poll=job.share_poll,
                demand=demand, ship=self.ship, bound=self.bound,
                publish=self.publish, should_abort=self.aborted,
                on_subtree=self.on_subtree,
            )
        finally:
            self.pool = Workpool("depth")  # whatever the lease left in it
        if not outcome.abandoned:
            self.report(outcome, len(roots) if job.runs else 0)

    # -- the transport ---------------------------------------------------

    def next_work(self) -> Optional[tuple]:
        """What to do next: ``(job, work)`` for a lease — ``(roots,
        depth)``, or a run's ``(stretches, bound)`` — or None to leave."""

    def demand(self) -> int:
        """Is a peer starving (or :data:`~repro.runtime.sharing.FLUSH`)?"""

    def ship(self, nodes: list, depth: int) -> None:
        """These subtree roots, all at ``depth``, go: one hand-over."""

    def bound(self) -> int:
        """The best objective published, as last heard."""

    def publish(self, found: Incumbent) -> None:
        """A strict improvement found here."""

    def aborted(self) -> bool:
        """Should the lease or run in hand stop now, reporting nothing?"""

    def on_subtree(self) -> None:
        """Before each subtree a lease pops from its pool."""

    def report(self, outcome: LeaseOutcome, tasks: int) -> None:
        """A lease ended, not abandoned: ``tasks`` > 0 for a Depth-Bounded run."""

    def flush(self, blocks: list, done: bool) -> None:
        """An Ordered run's blocks, ``done`` on its last report."""

    def fail(self, reason: str) -> None:
        """The job in hand cannot be run here: fail it."""
