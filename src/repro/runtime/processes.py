"""Real multi-core execution with worker processes.

These backends achieve *actual* CPython parallel speedup by
distributing subtree tasks over ``multiprocessing`` workers, each
searching in its own interpreter.

Four coordinations have process implementations, and one worker runs
them all: :class:`~repro.runtime.worker.Worker`, the cluster's worker
too, whose lease loop makes the one call to
:func:`~repro.runtime.sharing.execute_lease` (the first three below) or
:func:`~repro.core.ordered.execute_run` (the last), and one driver,
:class:`~repro.runtime.driver.JobDriver`, the cluster coordinator's
too, which starts each job, merges or finalises what the workers report
and assembles the result.  What is here is the pipe transport of both:
:class:`PipeWorker` for the worker, ``_fleet_search`` for the parent —
pipes and shared integers and the non-negative incumbent-seed check.
The processes belong to one warm fleet (:mod:`repro.runtime.fleet`, ``FLEET`` below): the first
search of a process forks its workers, every later one engages them
with a message each, and they stop when the process exits (or at
``FLEET.close()``).  A search of one process runs on an idle worker
beside any other, one of several after the last such search; a search
that loses a worker raises RuntimeError and stops its workers.

- :func:`multiprocessing_depthbounded_search` — **static** splitting:
  the parent walks the depth-``d`` frontier and leases runs of it, as
  for Ordered; workers never split further (the OpenMP-style baseline
  of Table 1).
- :func:`multiprocessing_budget_search` — **dynamic** work sharing
  (Budget): subtrees that outrun their node budget shed offcuts into
  the worker's own order-preserving pool, and half of the pool's
  shallowest level goes to the shared task pipe, as one item for one thief,
  only while another worker is starving.
- :func:`multiprocessing_stacksteal_search` — **demand-driven** work
  sharing (Stack-Stealing): the same worker, but a stack is split only
  while the shared lease count says another worker is starving.
- :func:`multiprocessing_ordered_search` — **replicable** search
  (Ordered, after Archibald et al.): discovery-ordered atomic tasks,
  numbered by the parent's frontier walk, leased as runs named by
  child-index path and reported as columns,
  finalised in sequence order by an
  :class:`~repro.core.ordered.OrderedLedger`, making value, witness and
  node counts identical run-to-run at any worker count.

Because ``SearchSpec`` objects contain closures (not picklable), every
backend takes a *spec factory* — a top-level callable plus picklable
arguments — which travels to the workers pickled, with the
coordination and its knobs; each rebuilds the spec from it and keeps
it while later searches name it (the last few specs are kept).
Incumbent knowledge is shared through a shared 64-bit integer holding
the best objective value: workers seed their pruning from it, read it
lock-free on a fixed node cadence, and take the lock only to publish
improvements — the multi-process analogue of the simulator's delayed
bound broadcast (stale reads only cost pruning, §4.3).  Sharing an
objective through a signed integer seeded at 0 requires objectives to
be non-negative ints; every backend validates that at launch (see
:func:`_checked_incumbent_seed`).

Remaining limitations, stated plainly: witness nodes travel back by
pickling, and even on a warm fleet a search pays for its messages — a
one-node Budget search on two workers takes 0.25–0.33 ms (2-core host,
median of 1 000) — and work reaches a second worker only at the first
worker's next poll, so a tree of a few thousand nodes is still no
faster than sequentially.  The simulator remains the instrument for
studying coordination at scale.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from typing import Any, Callable, Optional

from repro.core.params import SkeletonParams
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Incumbent, SearchType
from repro.runtime.driver import JobDriver
from repro.runtime.fleet import POLL, ProcessFleet, Wires, graceful_stop
from repro.runtime.sharing import LeaseOutcome
from repro.runtime.worker import SpecCache, Worker, WorkerJob, job_knobs, make_stype, stype_payload

__all__ = [
    "multiprocessing_depthbounded_search",
    "multiprocessing_budget_search",
    "multiprocessing_stacksteal_search",
    "multiprocessing_ordered_search",
    "run_skeleton",
    "make_stype",
    "run_library_search",
    "fleet_sequential_search",
    "graceful_stop",
]

def run_library_search(
    instance: str,
    skeleton: str = "sequential",
    search_type: Optional[str] = None,
    stype_kwargs: Optional[dict] = None,
    params: Optional[dict] = None,
) -> SearchResult:
    """Run one skeleton over a named library instance.

    Driven entirely by plain data: the service's in-process backend
    runs a job from its :meth:`~repro.service.jobs.JobSpec.run_payload`,
    and everything is rebuilt from the instance registry.

    ``search_type`` and ``stype_kwargs`` are resolved by
    :func:`~repro.instances.library.resolve_job`.
    """
    from repro.core.skeletons import make_skeleton
    from repro.instances.library import library_spec_factory, resolve_job

    spec, stype = resolve_job(instance, search_type, stype_kwargs)
    skel_params = SkeletonParams(**params) if params else SkeletonParams()
    # The registry is deterministic, so the instance name doubles as a
    # picklable spec factory argument — used only when the params select
    # the processes backend.
    return make_skeleton(skeleton, stype.kind).search(
        spec,
        skel_params,
        stype=stype,
        spec_factory=library_spec_factory,
        factory_args=(instance,),
    )


def fleet_sequential_search(
    instance: str, search_type: Optional[str] = None, stype_kwargs: Optional[dict] = None,
    stop: Optional[Callable[[int], bool]] = None,
) -> SearchResult:
    """The Sequential skeleton over a named library instance as one
    lease on one fleet worker: Stack-Stealing on one worker never
    splits, so value, nodes, prunes and backtracks are
    :func:`run_library_search`'s.  Once ``stop`` answers True (see
    :meth:`~repro.runtime.fleet.ProcessFleet.job`) the worker abandons
    the lease, and the result holds nothing of it."""
    from repro.instances.library import library_spec_factory, resolve_job

    _spec, stype = resolve_job(instance, search_type, stype_kwargs)
    return _fleet_search(
        "stacksteal", library_spec_factory, (instance,), make_stype, stype_payload(stype), 1,
        stop=stop,
    )


def multiprocessing_depthbounded_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    d_cutoff: int = 2,
) -> SearchResult:
    """Depth-Bounded search over worker processes.

    The parent searches the tree above depth ``d_cutoff`` sequentially
    (:func:`~repro.core.ordered.ordered_frontier`) and leases runs of
    the subtrees it meets at that depth, in traversal order, named by
    path; a worker searches a run's subtrees to their end under the
    shared incumbent and reports it once.  ``metrics.spawns`` is the
    number of frontier subtrees.  A tree that ends above the cutoff,
    ``d_cutoff=0`` and a decision target met in the prefix all finish in
    the parent, and no process is started.

    ``spec_factory(*factory_args)`` must rebuild the SearchSpec (the
    parent and each worker call it for a job whose ``(spec_factory,
    factory_args)`` differs from their last); likewise
    ``stype_factory(*stype_args)`` for the search type.  The value
    matches the sequential run's, the witness is a finder's.

    Optimisation/decision objectives must be non-negative ints
    (ValueError otherwise): see :func:`_checked_incumbent_seed`.
    """
    return _fleet_search(
        "depthbounded", spec_factory, factory_args, stype_factory, stype_args,
        n_processes, d_cutoff=d_cutoff, share_poll=256,
    )


# -- what every backend shares -----------------------------------------------


def _checked_incumbent_seed(value: Any) -> int:
    """Validate an incumbent seed for the shared-integer bound channel.

    The shared incumbent is a signed 64-bit ``Value("q")`` whose idle
    value is 0 and whose merge operation is ``max``.  That protocol is
    only sound for non-negative integer objectives: a negative objective
    would make a stale-zero read *tighten* pruning (bound 0 > true
    incumbent), silently corrupting results rather than merely delaying
    them.  Raise loudly instead.
    """
    if not isinstance(value, int) or value < 0:
        raise ValueError(
            "multiprocessing backends share the incumbent as a signed 64-bit "
            "integer seeded at 0 and merged with max; they require objectives "
            f"that are non-negative ints, but the root objective is {value!r}. "
            "Shift the objective into the non-negative range or use the "
            "simulator backend."
        )
    if value >= 2**63:
        raise ValueError(
            f"objective {value!r} overflows the shared 64-bit incumbent"
        )
    return value


# -- the pipe transport --------------------------------------------------------


class PipeWorker(Worker):
    """The worker of one fleet process; ``run`` takes one job over the
    pipes and shared integers the fleet gives it.

    A sharing lease is a ``(nodes, depth)`` item on the task pipe —
    sibling subtree roots, one hand-over — and whoever reads a
    hand-over is the thief.  ``outstanding`` counts those items: up by
    one per hand-over, down when a lease ends.  It is also the steal
    request: while fewer items exist, queued or held, than there are
    workers, one of them has nothing and nothing is on its way to it,
    and a holder that sees that at its poll hands one item over, so a
    request is served exactly once (the spawn-stack rule, with the
    victim's poll standing in for the interrupt).  A hand-over that
    cannot be pickled raises in ``ship`` and fails the job.  The
    incumbent is the shared integer ``best``, read without the lock and
    locked only to publish an improvement.  The worker that brings
    ``outstanding`` to zero, or reaches a decision target, raises
    ``done``, so that one holding a lease abandons it at its next poll,
    and once it has sent its own report it posts a sentinel ``()`` per
    peer, so that one idling on the task pipe leaves at once.  What the
    leases found is folded into the job's totals, sent once, when the
    job is over.

    A run is ``(stretches, bound)``, reported straight down the
    result pipe: Ordered's as blocks, ``best`` then written by the
    parent alone; Depth-Bounded's once, ``(knowledge, metrics, goal,
    tasks)``.  A report whose witness cannot be pickled is sent again
    without it: the value still counts.
    """

    def run(self, wires: Wires, message: tuple) -> None:
        """One job over ``wires``: ``message`` is ``(spec_factory,
        factory_args, stype_factory, stype_args, workers, coordination,
        knobs)``, the knobs some of :data:`~repro.runtime.worker.JOB_KNOBS`."""
        self.wires = wires
        self._best = wires.best.get_obj()  # lock-free reads (aligned 8-byte load)
        self._best_lock = wires.best.get_lock()
        self._out = wires.outstanding.get_obj()
        self._out_lock = wires.outstanding.get_lock()
        spec_factory, factory_args, stype_factory, stype_args, *rest = message
        self.workers, coordination, knobs = rest
        spec = self.specs.get((spec_factory, factory_args), lambda: spec_factory(*factory_args))
        job = self.job = WorkerJob(0, spec, stype_factory(*stype_args), coordination, **knobs)
        self.knowledge, self.metrics = job.zero, SearchMetrics()
        self.goal = self.failed = self.ended = False
        self.serve()
        if not (job.runs or self.failed):
            self._send_report(self.knowledge, self.metrics, self.goal)
        if self.ended:  # after the report, which wakes a parent that must drain
            for _ in range(self.workers - 1):
                self.wires.tasks.put(())

    def _send(self, body: tuple, witnessless: Callable[[], tuple]) -> None:
        """``("ok", body)`` to the parent, or ``witnessless()`` if
        ``body`` cannot be pickled (the send pickles before it writes)."""
        try:
            self.wires.results.send(("ok", body))
        except OSError:
            raise
        except Exception:
            self.wires.results.send(("ok", witnessless()))

    def _send_report(self, knowledge: Any, *rest: Any) -> None:
        """A lease report; an incumbent degrades to its value alone."""
        job = self.job
        self._send((knowledge, *rest), lambda: (
            knowledge if job.enum else Incumbent(knowledge.value, None), *rest
        ))

    def next_work(self) -> Optional[tuple]:
        wires = self.wires
        while not (wires.done.value or self.failed):
            item = wires.tasks.get(POLL)
            if item:
                return self.job, item
            # None, for nothing; (), an end-of-job sentinel: ``done`` is up.
        return None

    def demand(self) -> bool:
        return self._out.value < self.workers

    def ship(self, nodes: list, depth: int) -> None:
        if nodes:  # "nothing to give" needs no message here
            with self._out_lock:
                self._out.value += 1
            self.wires.tasks.put((nodes, depth))
            self.metrics.steals += len(nodes)

    def bound(self) -> int:
        return self._best.value

    def publish(self, found: Incumbent) -> None:
        with self._best_lock:
            if found.value > self._best.value:
                self._best.value = found.value

    def aborted(self) -> bool:
        # A goal reached elsewhere, or the ordered parent has all it needs.
        return bool(self.wires.done.value)

    def report(self, outcome: LeaseOutcome, tasks: int) -> None:
        if tasks:
            self._send_report(outcome.knowledge, outcome.metrics, outcome.goal, tasks)
            return
        self.knowledge = self.job.stype.combine(self.knowledge, outcome.knowledge)
        self.metrics.merge(outcome.metrics)
        if outcome.goal:
            self.goal = True
        else:
            with self._out_lock:
                self._out.value -= 1
                if self._out.value:
                    return
        self.wires.done.value = 1  # the job is over
        self.ended = True

    def flush(self, blocks: list, done: bool) -> None:
        def witnessless() -> tuple:
            # Keep the value (it drives bound enforcement) even if the
            # witness cannot travel.
            for block in blocks:
                try:
                    pickle.dumps(block.get("node"))
                except Exception:
                    block["node"] = None
            return blocks, done

        self._send((blocks, done), witnessless)

    def fail(self, reason: str) -> None:
        self.failed = True
        self.wires.results.send(("error", reason))


# Every search of this process runs on these workers (started by the
# first one that needs any, see :mod:`repro.runtime.fleet`).
FLEET = ProcessFleet(PipeWorker)
_SPECS = SpecCache()  # the parent's, keyed as PipeWorker.specs are


# -- the parent's half of each coordination -----------------------------------


def multiprocessing_budget_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    budget: int = 1000,
    share_poll: int = 64,
) -> SearchResult:
    """Budget-style dynamic work-sharing search over worker processes.

    The whole tree starts as one task on the shared task pipe.  A worker
    searches the task it pulled with the search kernel; any subtree
    that runs past ``budget`` nodes splits the unexplored subtrees
    nearest its root into the worker's own order-preserving pool (the
    paper's Budget coordination, Listing 4, with nodes as the budget
    unit, spawning to the local workpool of §4.3), and the worker pops
    its pool — deepest level first, spawn order within a level, which
    is the order the sequential search would reach them in — before it
    looks at the pipe again.  A subtree is pickled onto the pipe only
    while another worker is starving: then half of the shallowest level
    of the pool goes, as one item that its taker runs as one
    lease, so what moves is near the root and load still balances at
    runtime instead of being fixed by a depth-``d`` frontier.
    ``metrics.spawns`` counts the subtrees split off (on an enumeration
    a function of the tree, ``budget`` and ``share_poll`` alone),
    ``metrics.steals`` the ones that crossed the pipe (a subtree handed
    on twice counts twice).

    ``spec_factory(*factory_args)`` / ``stype_factory(*stype_args)``
    must be top-level picklable callables, as for
    :func:`multiprocessing_depthbounded_search`; the same non-negative
    integer objective requirement applies (ValueError otherwise).

    ``share_poll`` sets the node cadence of the periodic duties (shared
    incumbent refresh, goal check, budget check), so the effective split
    granularity is ``max(budget, share_poll)`` nodes.  A worker process
    dying mid-search raises RuntimeError in the parent: its local
    accumulator is unrecoverable, so completing would silently undercount.
    """
    return _fleet_search(
        "budget", spec_factory, factory_args, stype_factory, stype_args,
        n_processes, budget=budget, share_poll=share_poll,
    )


def multiprocessing_stacksteal_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    chunked: bool = True,
    share_poll: int = 64,
) -> SearchResult:
    """Stack-Stealing search over worker processes (shared-memory steals).

    The whole tree starts as one task on the shared task pipe.  A worker
    with nothing to do is a *steal request* by being one: the shared
    count of leases, queued or held, is then below the number of
    workers.  Busy workers read that count on their ``share_poll``
    periodic duties and, seeing it short, expose the lowest-depth frame
    of their live generator stack — all remaining children there when
    ``chunked``, a single node otherwise — and push every other node of
    it to the pipe as one item for the thief, keeping the rest to run
    or give away next (:func:`~repro.runtime.sharing.execute_lease`
    with no budget).  This is the paper's Stack-Stealing coordination
    with the victim's poll standing in for an interrupt: work moves
    only when somebody is starving, unlike Budget's unconditional
    splitting cadence.

    Factories and objective constraints are as for
    :func:`multiprocessing_budget_search`; a worker death likewise
    raises RuntimeError.
    """
    return _fleet_search(
        "stacksteal", spec_factory, factory_args, stype_factory, stype_args,
        n_processes, chunked=chunked, share_poll=share_poll,
    )


def multiprocessing_ordered_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    d_cutoff: int = 2,
    share_poll: int = 64,
) -> SearchResult:
    """Replicable Ordered search over worker processes.

    The parent engages the workers and then expands the
    depth-``d_cutoff`` frontier sequentially
    (:func:`~repro.core.ordered.ordered_frontier`), numbering subtree
    tasks in discovery order: the job's one walk.  Its
    :class:`~repro.runtime.driver.JobDriver` leases runs of tasks in
    order, named by child-index path; each worker executes its run from
    the best bound it can know (speculation), and the
    :class:`~repro.core.ordered.OrderedLedger` finalises the reported
    blocks strictly in sequence order, re-issuing every task whose bound
    proves wrong.
    Two runs with the same instance return the identical value, witness
    *and* node counters at any ``n_processes`` — see
    :func:`~repro.core.ordered.ordered_reference_search` for the
    executable statement of that contract.  With ``d_cutoff <= 0``
    phase 1 is the whole search and no worker is engaged.

    Factories and the non-negative integer objective requirement are as
    for the other backends; a worker death raises RuntimeError (crash
    *tolerance* for Ordered lives in the cluster backend, which can
    re-lease atomic tasks), and so does a lease naming a child or a
    child count a worker's own tree lacks.
    """
    return _fleet_search(
        "ordered", spec_factory, factory_args, stype_factory, stype_args,
        n_processes, d_cutoff=d_cutoff, share_poll=share_poll,
    )


def _fleet_search(
    coordination: str,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple,
    n_processes: int,
    stop: Optional[Callable[[int], bool]] = None,
    **knobs: Any,
) -> SearchResult:
    """The parent's half of every process coordination: a
    :class:`~repro.runtime.driver.JobDriver` over one fleet job, told
    the coordination and its ``knobs`` (some of
    :data:`~repro.runtime.worker.JOB_KNOBS`); ``stop`` goes to
    :meth:`~repro.runtime.fleet.ProcessFleet.job`.

    The driver says what the job does; this is its transport.  The
    fleet is engaged when the driver says so (never, when phase 1 is
    the whole search), its task pipe is fed the first leases, and then
    Budget and Stack-Stealing wait for one report per worker — the
    workers share the incumbent and count outstanding leases in the
    shared integers themselves — while for runs the parent leases its
    frontier onto the pipe and finishes each report: Ordered's in the
    ledger, publishing each new finalised-prefix best in ``best``;
    Depth-Bounded's by a merge.  ``metrics.spawns`` is the number of
    subtrees split off, by the parent or off a worker's stack;
    ``metrics.steals`` the number a worker put on the pipe for a
    starving one.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    spec = _SPECS.get((spec_factory, factory_args), lambda: spec_factory(*factory_args))
    driver = JobDriver(WorkerJob(0, spec, stype_factory(*stype_args), coordination, **knobs))
    if not driver.job.enum:
        _checked_incumbent_seed(driver.best)
    message = (
        spec_factory, factory_args, stype_factory, stype_args,
        n_processes, coordination, knobs,
    )
    with ExitStack() as stack:
        engaged = []  # the fleet job, once the driver engages the workers
        tasks = driver.start(lambda: engaged.append(
            stack.enter_context(FLEET.job(coordination, n_processes, message, stop))
        ))
        if engaged:
            _serve(driver, n_processes, tasks, *engaged[0])
    return driver.result(n_processes)


def _serve(driver: JobDriver, n: int, tasks: list, wires: Wires, reports) -> None:
    """Feed ``driver``'s job to the ``n`` engaged workers until it is
    over.  Nobody reads the shared integers before a lease exists."""
    wires.outstanding.value = len(tasks)  # leases queued or held
    wires.best.value = driver.best or 0  # an enumeration has no best
    for task in tasks:
        wires.tasks.put(task)
    if not driver.job.runs:
        # One report per worker: what it found (a witness that could not
        # be pickled is None; the value still counts), its summed
        # counters, and whether it reached the goal.
        for report in reports:
            driver.merge(*report)
        return
    while not driver.finished:
        while (run := driver.lease(n)) is not None:
            wires.tasks.put((run.stretches, run.bound))
        report = next(reports)
        if driver.ledger is None:
            driver.merge(*report)  # Depth-Bounded: the workers publish ``best``
        elif driver.accept(*report):
            wires.best.value = driver.best
    # Runs still out are not needed: wake whoever waits for one, with
    # room made for the wake-ups.
    wires.done.value = 1
    wires.tasks.drain()
    for _ in range(n):
        wires.tasks.put(())


def run_skeleton(
    coordination: str,
    spec: Any,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    params: SkeletonParams,
) -> SearchResult:
    """The ``"processes"`` runner of :data:`repro.core.backends.BACKENDS`.

    The job carries every knob of ``params`` a wire job does, and each
    coordination reads its own; the search type travels as its ``(kind,
    kwargs)`` payload (standard types only — see
    :func:`~repro.runtime.worker.stype_payload`).
    """
    return _fleet_search(
        coordination, spec_factory, factory_args, make_stype, stype_payload(stype),
        params.n_processes, **job_knobs(params),
    )
