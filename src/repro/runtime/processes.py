"""Real multi-core execution with worker processes.

Where :mod:`repro.runtime.threads` is GIL-bound, these backends achieve
*actual* CPython parallel speedup by distributing subtree tasks over
``multiprocessing`` workers, each searching in its own interpreter.

Four coordinations have process implementations.  Every worker of
every one searches its subtrees with the one search kernel
(:func:`~repro.core.kernel.search_subtree`); a coordination is what the
kernel's poll hook does with the live generator stack.

- :func:`multiprocessing_depthbounded_search` — **static** splitting:
  the parent expands the depth-``d`` frontier sequentially and hands
  the frontier subtrees to a process pool (the OpenMP-style baseline of
  Table 1).  The poll hook only refreshes the pruning bound.
- :func:`multiprocessing_budget_search` — **dynamic** work sharing in
  the style of the paper's Budget coordination: whenever a subtree
  exceeds its node budget the poll hook splits the lowest unexplored
  subtrees off the generator stack
  (:func:`~repro.core.tasks.split_lowest_inlined`) into the worker's
  own order-preserving pool (:class:`~repro.runtime.workpool.Workpool`),
  which the worker drains itself; the shallowest level of the pool goes
  to the shared queue only while another worker is starving (§4.2-4.3:
  spawn locally, steal near the root).
- :func:`multiprocessing_stacksteal_search` — **demand-driven** work
  sharing (Stack-Stealing): the same worker, but the poll hook only
  splits the generator stack when a shared hungry counter says another
  worker is starving, so granularity adapts to the tree instead of a
  fixed budget cadence.
- :func:`multiprocessing_ordered_search` — **replicable** search
  (Ordered, after Archibald et al.): discovery-ordered atomic tasks,
  leased and reported in runs, finalised in sequence order by an
  :class:`~repro.core.ordered.OrderedLedger`, making value, witness and
  node counts identical run-to-run at any worker count.

Because ``SearchSpec`` objects contain closures (not picklable), both
backends take a *spec factory* — a top-level callable plus picklable
arguments — and rebuild the spec once per worker process.  Incumbent
knowledge is shared through a shared 64-bit integer holding the best
objective value: workers seed their pruning from it, read it lock-free
on a fixed node cadence, and take the lock only to publish improvements
— the multi-process analogue of the simulator's delayed bound broadcast
(stale reads only cost pruning, §4.3).  Sharing an objective through a
signed integer seeded at 0 requires objectives to be non-negative ints;
both backends validate that at launch (see
:func:`_checked_incumbent_seed`).

Remaining limitations, stated plainly: witness nodes travel back by
pickling, and per-task process overhead means small searches are faster
sequentially.  The simulator remains the instrument for studying
coordination at scale.
"""

from __future__ import annotations

import pickle
import signal
import time
from multiprocessing import Pipe, Pool, Process, Queue, Value
from queue import Empty
from typing import Any, Callable, Optional

from repro.core.ordered import (
    OrderedLedger,
    OrderedRunPolicy,
    execute_run,
    ordered_frontier,
)
from repro.core.kernel import search_subtree
from repro.core.params import SkeletonParams
from repro.core.results import SearchMetrics, SearchResult, result_from_dict
from repro.core.searchtypes import Incumbent, SearchType
from repro.core.tasks import (
    SearchTask,
    SpawnedTask,
    split_lowest_inlined,
    split_one_inlined,
)
from repro.runtime.workpool import Workpool

__all__ = [
    "multiprocessing_depthbounded_search",
    "multiprocessing_budget_search",
    "multiprocessing_stacksteal_search",
    "multiprocessing_ordered_search",
    "run_with_processes",
    "make_stype",
    "run_library_search",
    "run_job_in_subprocess",
    "graceful_stop",
]


def graceful_stop(proc, *, grace: float = 5.0) -> None:
    """Stop a child process: SIGTERM, wait up to ``grace``, then SIGKILL.

    The graduated escalation gives a cooperating child (one whose main
    thread handles SIGTERM — see :func:`_job_process_main` and the
    cluster worker) a window to flush its final message and close its
    pipes cleanly, while still guaranteeing death for a child that is
    wedged or blocking the signal.  Used by the job-subprocess
    cancellation path and by cluster worker fan-out shutdown.
    """
    if proc.is_alive():
        proc.terminate()  # SIGTERM on POSIX
        proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()  # SIGKILL: non-negotiable
        proc.join(timeout=grace)

# Per-worker globals, initialised once by _init_worker.
_worker_spec = None
_worker_stype = None
_worker_best = None


def _init_worker(spec_factory, factory_args, stype_factory, stype_args, best):
    """Pool initialiser: rebuild the spec/search type in this process."""
    global _worker_spec, _worker_stype, _worker_best
    _worker_spec = spec_factory(*factory_args)
    _worker_stype = stype_factory(*stype_args)
    _worker_best = best


def _run_task(payload: tuple[Any, int]) -> tuple[Any, int, int, int, int]:
    """Search one subtree; returns (knowledge, nodes, prunes, backtracks, goal)."""
    root, depth = payload
    spec, stype, best = _worker_spec, _worker_stype, _worker_best
    knowledge = stype.initial_knowledge(spec)
    if stype.kind == "enumeration":
        refresh = publish = None
    else:
        # Seed pruning from the shared best value; the witness node is
        # unknown here, but pruning only compares values.
        knowledge = Incumbent(max(best.value, knowledge.value), None)

        def refresh(stack: list) -> int:
            return best.value

        def publish(found: Incumbent) -> None:
            with best.get_lock():
                if found.value > best.value:
                    best.value = found.value

    knowledge, goal, m = search_subtree(
        spec, stype, root, depth, knowledge,
        poll=256, on_poll=refresh, on_improve=publish,
    )
    return knowledge, m.nodes, m.prunes, m.backtracks, int(goal)


def run_library_search(
    instance: str,
    skeleton: str = "sequential",
    search_type: Optional[str] = None,
    stype_kwargs: Optional[dict] = None,
    params: Optional[dict] = None,
) -> SearchResult:
    """Run one skeleton over a named library instance.

    Top-level and driven entirely by plain data, so it is picklable and
    can serve as a subprocess entry point: the service layer's process
    backend ships ``(instance, skeleton, ...)`` across and the worker
    rebuilds everything from the instance registry.

    ``search_type`` defaults to the instance's registered type (whose
    registered kwargs, e.g. a decision target, are merged under any
    caller-supplied ``stype_kwargs``).
    """
    from repro.core.searchtypes import make_search_type
    from repro.core.skeletons import make_skeleton
    from repro.instances.library import library_spec_factory, spec_for

    spec, default_type, default_kwargs = spec_for(instance)
    stype_name = search_type if search_type is not None else default_type
    kwargs = dict(default_kwargs) if stype_name == default_type else {}
    if stype_kwargs:
        kwargs.update(stype_kwargs)
    skel = make_skeleton(skeleton, stype_name)
    skel_params = SkeletonParams(**params) if params else SkeletonParams()
    stype = make_search_type(stype_name, **kwargs)
    # The registry is deterministic, so the instance name doubles as a
    # picklable spec factory argument — used only when the params select
    # the processes backend.
    return skel.search(
        spec,
        skel_params,
        stype=stype,
        spec_factory=library_spec_factory,
        factory_args=(instance,),
    )


def _job_process_main(conn, payload: dict) -> None:
    """Subprocess entry: run the search, report through the pipe.

    SIGTERM (the first rung of :func:`graceful_stop`) is converted into
    ``SystemExit`` so the ``finally`` below runs: the pipe is closed
    cleanly instead of the parent seeing a torn write, and a stopped
    notice is flushed so the parent can tell "asked to stop" from
    "died".  A child wedged in C code never reaches the handler — the
    caller's SIGKILL escalation covers that.
    """

    def _on_sigterm(signum, frame):
        raise SystemExit(143)  # 128 + SIGTERM, the conventional code

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        result = run_library_search(**payload)
        try:
            conn.send(("ok", result))
        except Exception:
            # Unpicklable witness: degrade to the JSON-safe dict form.
            conn.send(("ok_dict", result.to_dict()))
    except SystemExit:
        try:
            conn.send(("stopped", "terminated by SIGTERM"))
        except Exception:
            pass
        raise
    except BaseException as exc:  # report crashes instead of dying silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def run_job_in_subprocess(
    payload: dict,
    *,
    timeout: Optional[float] = None,
    cancel=None,
    poll_interval: float = 0.02,
    term_grace: float = 0.5,
) -> tuple[str, Any]:
    """Run :func:`run_library_search` in a dedicated, killable process.

    Unlike in-process execution this gives the caller real preemption:
    the child is stopped on timeout or when ``cancel`` (any object with
    ``is_set()``) fires — via :func:`graceful_stop`, so a cooperating
    child gets ``term_grace`` seconds to flush and close its pipe before
    SIGKILL.  Returns one of::

        ("ok", SearchResult)   completed
        ("timeout", None)      deadline hit, child terminated
        ("cancelled", None)    cancel event fired, child terminated
        ("crash", message)     child raised or died (exit code in message)
    """
    parent_conn, child_conn = Pipe(duplex=False)
    proc = Process(target=_job_process_main, args=(child_conn, payload), daemon=True)
    proc.start()
    child_conn.close()
    deadline = None if timeout is None else time.monotonic() + timeout
    status: str
    value: Any = None
    try:
        while True:
            if parent_conn.poll(poll_interval):
                try:
                    tag, body = parent_conn.recv()
                except EOFError:
                    status, value = "crash", "worker closed the pipe without a result"
                    break
                if tag == "ok":
                    status, value = "ok", body
                elif tag == "ok_dict":
                    status, value = "ok", result_from_dict(body)
                else:
                    status, value = "crash", body
                break
            if cancel is not None and cancel.is_set():
                graceful_stop(proc, grace=term_grace)
                status = "cancelled"
                break
            if deadline is not None and time.monotonic() >= deadline:
                graceful_stop(proc, grace=term_grace)
                status = "timeout"
                break
            # Re-check the pipe after seeing the child dead: the result
            # may have been sent in the gap before exit.
            if not proc.is_alive() and not parent_conn.poll():
                status, value = "crash", f"worker died with exit code {proc.exitcode}"
                break
    finally:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        parent_conn.close()
    return status, value


def multiprocessing_depthbounded_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    d_cutoff: int = 2,
) -> SearchResult:
    """Depth-Bounded search over a process pool.

    ``spec_factory(*factory_args)`` must rebuild the SearchSpec (it is
    called once in the parent and once per worker); likewise
    ``stype_factory(*stype_args)`` for the search type.  Returns a
    :class:`SearchResult` whose ``value`` matches the sequential run;
    for optimisation/decision the witness is the best node seen by any
    single task (exact because tasks run their subtrees completely).

    Optimisation/decision objectives must be non-negative ints (raises
    ValueError otherwise): the incumbent travels between workers as a
    signed shared integer whose idle value is 0, so a negative objective
    would let a stale-zero read *tighten* pruning and corrupt results.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    spec = spec_factory(*factory_args)
    stype = stype_factory(*stype_args)
    started = time.perf_counter()

    # Phase 1 (parent): expand the depth-d frontier sequentially.
    params = SkeletonParams(d_cutoff=d_cutoff)
    root_task = SearchTask(spec, stype, spec.root, policy="depth", params=params)
    knowledge = stype.initial_knowledge(spec)
    metrics = SearchMetrics()
    frontier: list[SpawnedTask] = []
    goal = False
    while not root_task.finished:
        knowledge, out = root_task.step(knowledge)
        metrics.nodes += int(out.processed)
        metrics.weighted_nodes += out.weight if out.processed else 0
        metrics.prunes += int(out.pruned)
        metrics.backtracks += int(out.backtracked)
        frontier.extend(out.spawned)
        metrics.spawns += len(out.spawned)
        if out.goal:
            goal = True
            break

    if stype.kind == "enumeration":
        best_seed = 0  # unused: enumeration accumulators stay local
    else:
        best_seed = _checked_incumbent_seed(knowledge.value)
    best = Value("q", best_seed)

    results: list[Any] = []
    if frontier and not goal:
        with Pool(
            processes=n_processes,
            initializer=_init_worker,
            initargs=(spec_factory, factory_args, stype_factory, stype_args, best),
        ) as pool:
            for task_knowledge, nodes, prunes, backtracks, task_goal in pool.map(
                _run_task, [(sp.root, sp.depth) for sp in frontier]
            ):
                results.append(task_knowledge)
                metrics.nodes += nodes
                metrics.prunes += prunes
                metrics.backtracks += backtracks
                goal = goal or bool(task_goal)

    for task_knowledge in results:
        if stype.kind == "enumeration":
            knowledge = stype.combine(knowledge, task_knowledge)
        elif task_knowledge.node is not None:
            knowledge = stype.combine(knowledge, task_knowledge)
    return SearchResult.from_knowledge(
        stype, knowledge, goal, metrics,
        time.perf_counter() - started, n_processes,
    )


# -- dynamic work-sharing (Budget) backend ----------------------------------


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


def _sendable_witness(node: Any) -> Any:
    """``node`` if it survives pickling, else None.

    ``Queue.put`` never raises on an unpicklable object: pickling
    happens later in the queue's feeder thread, which prints a
    traceback and drops the whole item.  A worker therefore has to
    probe its witness *before* the put and degrade to value-only
    itself, or its message silently never arrives.
    """
    try:
        pickle.dumps(node)
    except Exception:
        return None
    return node


def _drain(q) -> None:
    """Discard whatever is readable on a ``multiprocessing.Queue``."""
    while True:
        try:
            q.get_nowait()
        except (Empty, OSError, EOFError):
            return


def make_stype(kind: str, kwargs: dict) -> SearchType:
    """Top-level (picklable) search-type factory used by the backends."""
    from repro.core.searchtypes import make_search_type

    return make_search_type(kind, **kwargs)


def _stype_payload(stype: SearchType) -> tuple[str, dict]:
    """Reduce a standard search type to ``(kind, kwargs)`` for shipping
    to worker processes, where :func:`make_stype` rebuilds it.

    Only the three stock types survive this round trip; subclasses and
    Enumeration instances with custom monoids carry behaviour that
    cannot be reconstructed by name, so they are rejected with advice.
    """
    from repro.core.searchtypes import Decision, Enumeration, Optimisation

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


class _GoalElsewhere(Exception):
    """Raised out of the kernel's poll hook: another worker reached the
    decision target, so the subtree in hand is abandoned."""


def _sharing_worker_main(
    spec_factory,
    factory_args,
    stype_factory,
    stype_args,
    task_q,
    result_q,
    outstanding,
    best,
    goal_flag,
    done_flag,
    hungry,
    budget,
    chunked,
    share_poll,
    queue_poll,
):
    """Worker process of the Budget and Stack-Stealing coordinations.

    Pulls tasks and searches each with the search kernel
    (:func:`~repro.core.kernel.search_subtree`).  Every ``share_poll``
    nodes the kernel's poll hook checks the goal flag, decides whether
    to give work away, and hands back the shared incumbent, read without
    the lock; the lock is taken only to publish an improvement.

    *When the stack is split* is what tells the two coordinations apart.
    Budget (``budget`` is a node count) splits the lowest frame of the
    live stack every ``budget`` nodes of a subtree into this worker's
    own order-preserving :class:`~repro.runtime.workpool.Workpool`, and
    when the subtree in hand ends the worker pops the next one from
    that pool (deepest level first, the sequential order) and searches
    it with a fresh budget counter; nothing goes through the pipe unless
    ``hungry`` is raised, and then the shallowest level of the pool
    does.  A task taken from ``task_q`` is therefore a *lease* — that
    root and everything its holder ran from its pool — and
    ``outstanding`` counts leases: it goes up by what is shipped and
    down when a holder's pool runs dry.  Stack-Stealing (``budget`` is
    None) keeps no pool and splits only while ``hungry`` is raised,
    straight onto the queue.

    ``hungry`` counts currently-starving workers: an idle worker
    registers itself once and deregisters on its next successful
    dequeue, so the counter never goes negative and a serviced request
    cannot be double-claimed; the worst case is a harmless over-share
    inside one poll window.  This is the (spawn-stack) rule with the
    victim's poll standing in for the interrupt.
    """
    try:
        # Never block process exit on unflushed task-queue buffers: on
        # the normal path everything pushed has been consumed (the
        # outstanding counter cannot reach zero otherwise), and on the
        # goal path pending tasks are garbage anyway.
        task_q.cancel_join_thread()
        spec = spec_factory(*factory_args)
        stype = stype_factory(*stype_args)
        enum = stype.kind == "enumeration"
        best_raw = best.get_obj()  # lock-free reads (aligned 8-byte load)
        best_lock = best.get_lock()
        out_raw = outstanding.get_obj()
        out_lock = outstanding.get_lock()
        hungry_raw = hungry.get_obj()
        hungry_lock = hungry.get_lock()
        split = split_lowest_inlined if chunked else split_one_inlined

        # The accumulator (enumeration) or the best incumbent found in
        # this process, witness included.
        knowledge = stype.initial_knowledge(spec)
        metrics = SearchMetrics()
        pool = Workpool("depth")  # Budget's offcuts; stays empty otherwise
        splits = shipped = tasks_run = 0
        task_nodes = 0  # counted in share_poll quanta, drives Budget splits
        root_depth = 0
        goal_hit = False
        leased = False  # a task_q item (and the pool it grew) is in hand
        registered = False  # this worker's own entry in `hungry`

        def ship(nodes: list, depth: int) -> None:
            nonlocal shipped
            with out_lock:
                out_raw.value += len(nodes)
            for node in nodes:
                task_q.put((node, depth))
            shipped += len(nodes)

        def ship_pool_level() -> None:
            level = pool.pop_shallowest()
            ship([node for node, _ in level], level[0][1])

        def on_poll(stack: list) -> Optional[int]:
            nonlocal task_nodes, splits
            if goal_flag.value:
                raise _GoalElsewhere
            if budget is None:
                if hungry_raw.value > 0:
                    offcuts, frame_index = split(stack)
                    if offcuts:
                        ship(offcuts, root_depth + frame_index + 1)
                        splits += len(offcuts)
            else:
                task_nodes += share_poll
                if task_nodes >= budget:
                    task_nodes = 0
                    offcuts, frame_index = split(stack)
                    depth = root_depth + frame_index + 1
                    for off in offcuts:
                        pool.push((off, depth), depth)
                    splits += len(offcuts)
                if pool and hungry_raw.value > 0:
                    ship_pool_level()
            return None if enum else best_raw.value

        def on_improve(found: Incumbent) -> None:
            nonlocal knowledge
            knowledge = found
            with best_lock:
                if found.value > best_raw.value:
                    best_raw.value = found.value

        while not (done_flag.value or goal_flag.value):
            # Subtrees shorter than share_poll never reach the hook, so
            # a starving peer is also looked for between subtrees.
            if pool and hungry_raw.value > 0:
                ship_pool_level()
            task = pool.pop()
            if task is None:
                if leased:
                    # The lease's pool ran dry: the lease is over.
                    leased = False
                    with out_lock:
                        out_raw.value -= 1
                        if out_raw.value == 0:
                            done_flag.value = 1
                    continue
                try:
                    task = task_q.get(timeout=queue_poll)
                except Empty:
                    if not registered:
                        with hungry_lock:
                            hungry_raw.value += 1
                        registered = True
                    continue
                if registered:
                    with hungry_lock:
                        hungry_raw.value -= 1
                    registered = False
                leased = True
            root, root_depth = task
            tasks_run += 1
            task_nodes = 0
            if enum:
                start = knowledge
            else:
                # Prune from the shared best (another worker may have
                # published since); its witness lives with its finder.
                seen = best_raw.value
                start = knowledge if knowledge.value >= seen else Incumbent(seen, None)
            try:
                after, goal_hit, m = search_subtree(
                    spec, stype, root, root_depth, start,
                    poll=share_poll, on_poll=on_poll, on_improve=on_improve,
                )
            except _GoalElsewhere:
                break
            metrics.merge(m)
            if enum:
                knowledge = after
            if goal_hit:
                goal_flag.value = 1
                break

        result_q.put(("ok", {
            # An unpicklable witness degrades to the value alone.
            "knowledge": knowledge if enum else (
                knowledge.value, _sendable_witness(knowledge.node)
            ),
            "nodes": metrics.nodes,
            "prunes": metrics.prunes,
            "backtracks": metrics.backtracks,
            "max_depth": metrics.max_depth,
            "goal": goal_hit,
            "splits": splits,
            "shipped": shipped,
            "tasks": tasks_run,
        }))
    except BaseException as exc:  # report crashes instead of dying silently
        try:
            result_q.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def multiprocessing_budget_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    budget: int = 1000,
    share_poll: int = 64,
    queue_poll: float = 0.02,
) -> SearchResult:
    """Budget-style dynamic work-sharing search over worker processes.

    The whole tree starts as one task on a shared queue.  A worker
    searches the task it pulled with the search kernel; any subtree
    that runs past ``budget`` nodes splits the unexplored subtrees
    nearest its root into the worker's own order-preserving pool (the
    paper's Budget coordination, Listing 4, with nodes as the budget
    unit, spawning to the local workpool of §4.3), and the worker pops
    its pool — deepest level first, spawn order within a level, which
    is the order the sequential search would reach them in — before it
    looks at the queue again.  A subtree is pickled onto the queue only
    while another worker is starving: then the shallowest level of the
    pool goes, so what moves is near the root and load still balances
    at runtime instead of being fixed by a depth-``d`` frontier.
    ``metrics.spawns`` counts the subtrees split off (on an enumeration
    a function of the tree, ``budget`` and ``share_poll`` alone),
    ``metrics.steals`` the ones that crossed the queue.

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
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if share_poll < 1:
        raise ValueError("share_poll must be >= 1")
    return _sharing_search(
        (budget, True, share_poll, queue_poll),
        spec_factory, factory_args, stype_factory, stype_args,
        n_processes=n_processes, label="budget",
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
    queue_poll: float = 0.02,
) -> SearchResult:
    """Stack-Stealing search over worker processes (shared-memory steals).

    The whole tree starts as one task on the shared queue.  An idle
    worker raises a *steal request* — a shared hungry counter it
    increments once and decrements when it next obtains work.  Busy
    workers poll that counter on their ``share_poll`` periodic duties
    and, seeing it raised, expose the lowest-depth frame of their live
    generator stack: all remaining children there when ``chunked``
    (:func:`~repro.core.tasks.split_lowest_inlined`), a single node
    otherwise (:func:`~repro.core.tasks.split_one_inlined`), pushed to
    the queue for the thief.  This is the paper's Stack-Stealing
    coordination with the victim's poll standing in for an interrupt:
    work moves only when somebody is starving, unlike Budget's
    unconditional splitting cadence.

    Factories and objective constraints are as for
    :func:`multiprocessing_budget_search`; a worker death likewise
    raises RuntimeError.
    """
    if share_poll < 1:
        raise ValueError("share_poll must be >= 1")
    return _sharing_search(
        (None, bool(chunked), share_poll, queue_poll),
        spec_factory, factory_args, stype_factory, stype_args,
        n_processes=n_processes, label="stacksteal",
    )


def _sharing_search(
    sharing_args: tuple,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    label: str = "budget",
) -> SearchResult:
    """Shared parent driver for the queue-based sharing coordinations.

    Budget and Stack-Stealing differ only in *when a worker gives work
    away*; everything around that — the shared incumbent, the
    outstanding-task termination counter, crash detection, draining and
    the result merge — is this function.  ``sharing_args`` is the
    ``(budget, chunked, share_poll, queue_poll)`` tail of
    :func:`_sharing_worker_main`'s arguments, ``budget`` None selecting
    Stack-Stealing.  ``metrics.spawns`` is the number of subtrees split
    off a stack, ``metrics.steals`` the number that crossed to another
    worker through the queue: every one of them under Stack-Stealing,
    only what a starving worker was shipped under Budget.
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    spec = spec_factory(*factory_args)
    stype = stype_factory(*stype_args)
    started = time.perf_counter()

    knowledge = stype.initial_knowledge(spec)
    if stype.kind == "enumeration":
        best_seed = 0  # unused: enumeration accumulators stay local
    else:
        best_seed = _checked_incumbent_seed(knowledge.value)
    best = Value("q", best_seed)
    goal_flag = Value("b", 0, lock=False)
    done_flag = Value("b", 0, lock=False)
    outstanding = Value("q", 1)  # tasks queued or being searched
    hungry = Value("q", 0)  # workers waiting on an empty queue
    task_q: Queue = Queue()
    result_q: Queue = Queue()
    task_q.put((spec.root, 0))

    procs = [
        Process(
            target=_sharing_worker_main,
            args=(
                spec_factory, factory_args, stype_factory, stype_args,
                task_q, result_q, outstanding, best, goal_flag, done_flag,
                hungry, *sharing_args,
            ),
            daemon=True,
        )
        for _ in range(n_processes)
    ]
    for p in procs:
        p.start()

    payloads: list[dict] = []
    error: Optional[str] = None
    while len(payloads) < n_processes:
        try:
            tag, body = result_q.get(timeout=0.1)
        except Empty:
            crashed = [
                p.exitcode for p in procs if p.exitcode not in (None, 0)
            ]
            if crashed:
                error = (
                    f"worker died with exit code {crashed[0]} before "
                    "reporting results"
                )
                break
            if all(p.exitcode is not None for p in procs) and result_q.empty():
                error = "all workers exited without reporting results"
                break
            continue
        if tag == "error":
            error = body
            break
        payloads.append(body)

    if error is not None:
        done_flag.value = 1  # ask survivors to wind down
        for p in procs:
            p.terminate()
    # Drain leftover tasks (goal/error paths) so worker feeder threads
    # never block, then reap the processes.
    _drain(task_q)
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():
            p.kill()
            p.join(timeout=5.0)
    # The drain races the feeder thread: items still in its internal
    # buffer can flush into the (now reader-less) pipe after the drain,
    # and interpreter exit would join that blocked feeder forever.
    # Leftover tasks are garbage at this point, so drop them.
    task_q.cancel_join_thread()
    task_q.close()
    result_q.close()
    if error is not None:
        raise RuntimeError(f"{label} backend worker failed: {error}")

    metrics = SearchMetrics()
    goal = False
    for body in payloads:
        metrics.nodes += body["nodes"]
        metrics.prunes += body["prunes"]
        metrics.backtracks += body["backtracks"]
        metrics.spawns += body["splits"]
        metrics.steals += body["shipped"]
        metrics.max_depth = max(metrics.max_depth, body["max_depth"])
        goal = goal or body["goal"]
        if stype.kind == "enumeration":
            knowledge = stype.combine(knowledge, body["knowledge"])
        else:
            # The witness is None when it could not be pickled; the
            # value still counts.
            knowledge = stype.combine(knowledge, Incumbent(*body["knowledge"]))
    metrics.weighted_nodes = metrics.nodes
    return SearchResult.from_knowledge(
        stype, knowledge, goal, metrics,
        time.perf_counter() - started, n_processes,
    )


# -- replicable Ordered backend ---------------------------------------------


def _ordered_worker_main(
    spec_factory,
    factory_args,
    stype_factory,
    stype_args,
    task_q,
    result_q,
    best,
    done_flag,
    share_poll,
    queue_poll,
):
    """Worker process for the Ordered coordination: runs of atomic tasks.

    Pulls ``(first_seq, [(root, depth), ...], bound)`` leases and hands
    each to :func:`~repro.core.ordered.execute_run`, which threads the
    bound through the run and reports per-task records.  The shared
    ``best`` is the finalised-prefix best, written only by the parent
    and read lock-free here; nothing this worker finds is ever merged
    or published on this side — ordering and merging belong to the
    parent's ledger alone, which re-issues whatever ran from a bound
    that turns out wrong.
    """
    try:
        task_q.cancel_join_thread()
        spec = spec_factory(*factory_args)
        stype = stype_factory(*stype_args)
        best_raw = best.get_obj()  # lock-free read (parent is sole writer)

        def published() -> int:
            return best_raw.value

        def aborted() -> bool:
            return bool(done_flag.value)

        def flush(records: list, done: bool) -> None:
            for record in records:
                # Keep the value (it drives bound enforcement) even if
                # the witness cannot travel.
                if record.get("node") is not None:
                    record["node"] = _sendable_witness(record["node"])
            result_q.put(("ok", records, done))

        while not done_flag.value:
            try:
                lease = task_q.get(timeout=queue_poll)
            except Empty:
                continue
            if done_flag.value:
                break  # woken by the parent's end-of-job sentinel
            first, roots, bound = lease
            finished = execute_run(
                spec, stype,
                [(first + i, root, depth) for i, (root, depth) in enumerate(roots)],
                bound, flush,
                published=published, should_abort=aborted, poll=share_poll,
            )
            if not finished:
                break  # asked to wind down mid-run
    except BaseException as exc:  # report crashes instead of dying silently
        result_q.put(("error", f"{type(exc).__name__}: {exc}", True))


def multiprocessing_ordered_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype_factory: Callable[..., SearchType],
    stype_args: tuple = (),
    *,
    n_processes: int = 2,
    d_cutoff: int = 2,
    share_poll: int = 64,
    queue_poll: float = 0.02,
) -> SearchResult:
    """Replicable Ordered search over worker processes.

    The parent expands the depth-``d_cutoff`` frontier sequentially
    (:func:`~repro.core.ordered.ordered_frontier`), numbering subtree
    tasks in discovery order, then drives an
    :class:`~repro.core.ordered.OrderedRunPolicy` over an
    :class:`~repro.core.ordered.OrderedLedger`: runs of consecutive
    tasks are leased in sequence order, each worker executes its run
    from the best bound it can know (speculation), and the ledger
    finalises the per-task records strictly in sequence order,
    re-issuing every task whose bound proves wrong.
    Two runs with the same instance return the identical value, witness
    *and* node counters at any ``n_processes`` — see
    :func:`~repro.core.ordered.ordered_reference_search` for the
    executable statement of that contract.

    Factories and the non-negative integer objective requirement are as
    for the other backends; a worker death raises RuntimeError (crash
    *tolerance* for Ordered lives in the cluster backend, which can
    re-lease atomic tasks).
    """
    if n_processes < 1:
        raise ValueError("need at least one process")
    if share_poll < 1:
        raise ValueError("share_poll must be >= 1")
    spec = spec_factory(*factory_args)
    stype = stype_factory(*stype_args)
    started = time.perf_counter()

    frontier = ordered_frontier(spec, stype, d_cutoff=d_cutoff)
    ledger = OrderedLedger(stype, frontier)
    enum = stype.kind == "enumeration"
    if not enum:
        _checked_incumbent_seed(frontier.knowledge.value)

    error: Optional[str] = None
    if not ledger.finished:
        policy = OrderedRunPolicy(ledger)
        tasks = frontier.tasks
        best = Value("q", 0 if enum else frontier.knowledge.value)
        done_flag = Value("b", 0, lock=False)
        task_q: Queue = Queue()
        result_q: Queue = Queue()

        procs = [
            Process(
                target=_ordered_worker_main,
                args=(
                    spec_factory, factory_args, stype_factory, stype_args,
                    task_q, result_q, best, done_flag, share_poll, queue_poll,
                ),
                daemon=True,
            )
            for _ in range(n_processes)
        ]
        for p in procs:
            p.start()

        while not ledger.finished:
            while (run := policy.lease(n_processes)) is not None:
                task_q.put((
                    run.first,
                    [(t.node, t.depth)
                     for t in tasks[run.first:run.first + run.count]],
                    run.bound,
                ))
            try:
                tag, body, run_done = result_q.get(timeout=0.1)
            except Empty:
                crashed = [
                    p.exitcode for p in procs if p.exitcode not in (None, 0)
                ]
                if crashed:
                    error = (
                        f"worker died with exit code {crashed[0]} before "
                        "reporting results"
                    )
                    break
                if all(p.exitcode is not None for p in procs) and result_q.empty():
                    error = "all workers exited without reporting results"
                    break
                continue
            if tag == "error":
                error = body
                break
            if policy.accept(body, run_done):
                # The finalised-prefix best moved: publish it for the
                # workers' speculation (this parent is the only writer).
                best.value = ledger.required_bound()

        done_flag.value = 1  # normal completion and error paths alike
        if error is not None:
            for p in procs:
                p.terminate()
        for _ in procs:
            task_q.put(None)  # wake workers idling in get() at once
        deadline = time.monotonic() + 5.0
        for p in procs:
            # A worker cannot exit while records it has already sent sit
            # unread in a full pipe (goal/error paths), so keep reading
            # while it winds down.
            while p.is_alive() and time.monotonic() < deadline:
                _drain(result_q)
                p.join(timeout=0.02)
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        # Likewise leftover leases, for this side's feeder thread.
        _drain(task_q)
        # Drop anything the feeder thread flushes after the drain (the
        # drain races it); joining a feeder blocked on the reader-less
        # pipe would hang interpreter exit.
        task_q.cancel_join_thread()
        task_q.close()
        result_q.close()
    if error is not None:
        raise RuntimeError(f"ordered backend worker failed: {error}")

    knowledge = ledger.knowledge
    metrics = ledger.metrics
    metrics.weighted_nodes = metrics.nodes
    return SearchResult.from_knowledge(
        stype, knowledge, ledger.goal, metrics,
        time.perf_counter() - started, n_processes,
    )


def run_with_processes(
    coordination: str,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    params: SkeletonParams,
) -> SearchResult:
    """Dispatch a skeleton run onto the real-process backends.

    Entry point for ``SkeletonParams(backend="processes")``: maps the
    coordination name onto the matching ``multiprocessing_*`` function,
    shipping the search type by ``(kind, kwargs)`` payload (standard
    types only — see :func:`_stype_payload`).
    """
    kind, kwargs = _stype_payload(stype)
    if coordination == "depthbounded":
        return multiprocessing_depthbounded_search(
            spec_factory, factory_args, make_stype, (kind, kwargs),
            n_processes=params.n_processes, d_cutoff=params.d_cutoff,
        )
    if coordination == "budget":
        return multiprocessing_budget_search(
            spec_factory, factory_args, make_stype, (kind, kwargs),
            n_processes=params.n_processes, budget=params.budget,
            share_poll=params.share_poll,
        )
    if coordination == "stacksteal":
        return multiprocessing_stacksteal_search(
            spec_factory, factory_args, make_stype, (kind, kwargs),
            n_processes=params.n_processes, chunked=params.chunked,
            share_poll=params.share_poll,
        )
    if coordination == "ordered":
        return multiprocessing_ordered_search(
            spec_factory, factory_args, make_stype, (kind, kwargs),
            n_processes=params.n_processes, d_cutoff=params.d_cutoff,
            share_poll=params.share_poll,
        )
    raise ValueError(
        f"the processes backend implements the 'depthbounded', 'budget', "
        f"'stacksteal' and 'ordered' coordinations, not {coordination!r}; "
        "use backend='sim' for the rest"
    )
