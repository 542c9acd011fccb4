"""Replicable Ordered coordination: shared machinery (Archibald et al.).

The Ordered skeleton promises something the other coordinations do not:
two runs with the same seed and *any* worker count return the identical
objective, the identical witness, and the identical node count.  The
scheme here is the repro's rendering of the Replicable Parallel Branch
and Bound discipline (PAPERS.md, "Replicable parallel branch and bound
search"):

1. **Deterministic spawn order.**  A sequential depth-bounded expansion
   (:func:`ordered_frontier`) walks the tree above ``d_cutoff`` exactly
   as the Depth-Bounded coordination would and numbers the frontier
   subtrees in discovery (traversal) order — the sequence number is the
   task's priority, lexicographic on its sibling-index path key.

2. **Atomic tasks, pinned bounds.**  Each frontier subtree is searched
   to completion by :func:`run_task_fixed_bound` starting from an
   explicit incumbent *bound*.  The runner is a pure function of
   ``(root, bound)``: it never reads shared knowledge mid-flight, so
   re-running a task — on another worker, after a crash, at a different
   worker count — reproduces its node/prune/backtrack counters bit for
   bit.  Local strengthening inside the task is allowed (it is derived
   from the same two inputs).

3. **In-order finalisation with a bound journal.**  The
   :class:`OrderedLedger` parks results as they arrive and *finalises*
   them strictly in sequence order.  Task ``i`` may only finalise a run
   whose starting bound equals the **required bound** ``B*_i`` — the
   best objective over the phase-1 prefix and every finalised task
   ``j < i``.  A result computed from any other bound is discarded and
   the task re-issued; every accepted ``(seq, bound, nodes)`` triple is
   appended to the :attr:`~OrderedLedger.journal`.  Only finalised runs
   contribute to the returned metrics, which is what makes the node
   count a deterministic function of the instance — enforced, not
   hoped for.

4. **Priority tie-break.**  The incumbent merge at finalisation is
   strict (``>`` replaces): when several tasks attain the optimum the
   witness is the one from the lowest sequence number — priority wins
   over arrival time, matching the sequential discovery order.

5. **Leased, executed and reported in runs.**  The unit that crosses a
   queue or a wire is a *run* of sequence-consecutive tasks plus one
   bound, not a task.  :class:`OrderedRunPolicy` is the driver half
   (which seqs to lease next, what a batch of records does to the
   ledger) and :func:`execute_run` the worker half (thread the bound
   from task to task, restart a task the published best has overtaken,
   report per-task records); both are transport-free and shared by the
   multiprocessing parent/workers and the cluster coordinator/workers.
   None of it changes what the ledger verifies.

:func:`ordered_reference_search` executes the same contract on a single
thread with no queues and no shared state; it is the oracle the
repetition harness compares every parallel Ordered run against.  It
deliberately merges inline rather than through the ledger so the
``ordered-tiebreak`` verification mutation (see :class:`OrderedLedger`)
corrupts the backends but never the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.kernel import search_subtree
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Incumbent, SearchType, _active_mutation
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec

__all__ = [
    "OrderedTask",
    "OrderedFrontier",
    "ordered_frontier",
    "run_task_fixed_bound",
    "execute_run",
    "OrderedLedger",
    "OrderedRun",
    "OrderedRunPolicy",
    "ordered_reference_search",
]


class _Aborted(Exception):
    """Raised out of the kernel's poll hook when ``should_abort()``
    answers True; :func:`run_task_fixed_bound` turns it into None."""


@dataclass(frozen=True)
class OrderedTask:
    """One frontier subtree with its discovery-order priority.

    ``seq`` is the position in the sequential depth-bounded traversal —
    lower runs (and finalises) first.  ``depth`` is the root's global
    depth; ``key`` the sibling-index path from the search root (kept for
    diagnostics: sorting by key *is* sorting by seq).
    """

    seq: int
    node: Any
    depth: int
    key: tuple = ()


@dataclass
class OrderedFrontier:
    """Phase-1 output: numbered tasks plus the prefix searched to make them.

    ``knowledge`` / ``metrics`` cover exactly the nodes the expansion
    visited (the region above ``d_cutoff``); ``goal`` is True when a
    decision search short-circuited during expansion, in which case
    ``tasks`` is empty and the search is already complete.
    """

    tasks: list[OrderedTask] = field(default_factory=list)
    knowledge: Any = None
    goal: bool = False
    metrics: SearchMetrics = field(default_factory=SearchMetrics)


def ordered_frontier(
    spec: SearchSpec,
    stype: SearchType,
    *,
    d_cutoff: int = 2,
) -> OrderedFrontier:
    """Sequentially expand the depth-``d_cutoff`` frontier in traversal order.

    Subtree roots at depth >= ``d_cutoff`` become :class:`OrderedTask`s
    numbered in discovery order; everything above is processed here,
    threading one knowledge value through the walk exactly as the
    sequential search would.  Deterministic by construction — no clocks,
    no randomness, no worker interleaving.
    """
    if d_cutoff <= 0:
        # No spawn rule fires at cutoff 0: phase 1 *is* the whole
        # search, and the task list comes back empty.
        done = sequential_search(spec, stype)
        knowledge = (
            done.value
            if stype.kind == "enumeration"
            else Incumbent(done.value, done.node)
        )
        return OrderedFrontier(
            knowledge=knowledge, goal=bool(done.found), metrics=done.metrics
        )
    process = stype.process
    should_prune = stype.should_prune
    is_goal = stype.is_goal
    generator = spec.generator
    space = spec.space
    node_size = spec.node_size
    knowledge = stype.initial_knowledge(spec)
    metrics = SearchMetrics()
    tasks: list[OrderedTask] = []
    goal = False
    # Depth-first worklist of (node, depth, path key).  A node's
    # children are drawn in one go and pushed in reverse, so the pop
    # order is lexicographic on path keys — the sequential traversal
    # order — and frontier tasks are met already sorted.
    pending: list[tuple] = [(spec.root, 0, ())]
    while pending:
        node, depth, key = pending.pop()
        if depth >= d_cutoff:
            tasks.append(OrderedTask(len(tasks), node, depth, key))
            continue
        knowledge, _ = process(spec, node, knowledge)
        metrics.nodes += 1
        metrics.weighted_nodes += node_size(node) if node_size is not None else 1
        if is_goal(knowledge):
            goal = True
            tasks = []
            break
        if should_prune(spec, node, knowledge):
            metrics.prunes += 1
            continue
        gen = generator(space, node)
        children = []
        while gen.has_next():
            children.append(gen.next())
        metrics.backtracks += 1
        if depth + 1 > metrics.max_depth:
            metrics.max_depth = depth + 1
        for index in range(len(children) - 1, -1, -1):
            pending.append((children[index], depth + 1, key + (index,)))
    metrics.spawns = len(tasks)
    return OrderedFrontier(
        tasks=tasks, knowledge=knowledge, goal=goal, metrics=metrics
    )


def run_task_fixed_bound(
    spec: SearchSpec,
    stype: SearchType,
    root: Any,
    root_depth: int,
    bound: Optional[int] = None,
    *,
    poll: int = 1024,
    should_abort: Optional[Callable[[], bool]] = None,
) -> Optional[dict]:
    """Search the subtree under ``root`` atomically from a pinned bound.

    The replicable unit of work: a pure function of ``(root, bound)``.
    Pruning starts from ``Incumbent(bound, None)`` and is strengthened
    only by nodes found *inside* this subtree — the shared incumbent is
    never consulted, so the visit sequence (and every counter) is
    reproducible on any worker at any time.  ``bound`` is ignored for
    enumeration, which accumulates from the monoid zero.

    Returns a payload dict (``nodes``/``prunes``/``backtracks``/
    ``max_depth``/``goal`` plus ``value``+``node`` for incumbent types or
    ``knowledge`` for enumeration; ``value`` is None when nothing beat
    the bound) — or None if ``should_abort()`` answered True at a
    ``poll``-node check, in which case nothing was published anywhere.
    """
    enum = stype.kind == "enumeration"
    if enum:
        know = stype.initial_knowledge(spec)
    else:
        know = Incumbent(bound if bound is not None else 0, None)

    def check(stack: list) -> None:
        if should_abort():
            raise _Aborted

    try:
        know, goal, m = search_subtree(
            spec, stype, root, root_depth, know,
            poll=poll, on_poll=check if should_abort is not None else None,
        )
    except _Aborted:
        return None
    payload: dict = {
        "nodes": m.nodes,
        "prunes": m.prunes,
        "backtracks": m.backtracks,
        "max_depth": m.max_depth,
        "goal": goal,
    }
    if enum:
        payload["knowledge"] = know
    else:
        payload["value"] = know.value if know.node is not None else None
        payload["node"] = know.node
    return payload


def execute_run(
    spec: SearchSpec,
    stype: SearchType,
    tasks: Sequence[tuple[int, Any, int]],
    bound: Optional[int],
    flush: Callable[[list, bool], None],
    *,
    published: Optional[Callable[[], int]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    poll: int = 1024,
) -> bool:
    """Execute one leased run of ``(seq, root, depth)`` tasks in order.

    The worker half of the Ordered coordination, shared by both real
    runtimes.  ``bound`` is the finalised-prefix best the lease was cut
    under (None for enumeration); ``published()`` is that same best as
    this worker last heard it.  Each task starts from the largest bound
    known to hold before it: the lease's, the published one, and the
    value its predecessors in this run reached — every one of them a
    floor under the bound the ledger will require, and exactly that
    bound whenever the predecessors themselves ran from the right one.
    A task whose starting bound the published best overtakes mid-flight
    can no longer finalise, so it is restarted from the new bound at its
    next ``poll``-node check instead of being run to a result the ledger
    must reject.

    ``flush(records, done)`` ships per-task records — the
    :func:`run_task_fixed_bound` payload plus ``seq`` and the ``bound``
    it ran from — with ``done`` marking the run's last message.  A run
    flushes early whenever a task improves the bound, so the ledger can
    finalise and publish it while the rest of the run is still
    executing.  Returns False, having flushed nothing further, when
    ``should_abort()`` cut it short.
    """
    enum = stype.kind == "enumeration"

    def overtaken_or_aborted() -> bool:
        # Reads ``bound`` as it stands while the current task runs.
        if should_abort is not None and should_abort():
            return True
        return not enum and published() > bound

    records: list[dict] = []
    for position, (seq, root, depth) in enumerate(tasks):
        payload = None
        while payload is None:
            # Checked per task too: a run of tasks shorter than ``poll``
            # nodes never reaches the in-task check.
            if should_abort is not None and should_abort():
                return False
            if not enum:
                bound = max(bound, published())
            payload = run_task_fixed_bound(
                spec, stype, root, depth, bound,
                poll=poll, should_abort=overtaken_or_aborted,
            )
        payload["seq"] = seq
        records.append(payload)
        if enum:
            continue
        payload["bound"] = bound
        if payload["value"] is not None:
            bound = payload["value"]
            if position + 1 < len(tasks):
                flush(records, False)
                records = []
    flush(records, True)
    return True


class OrderedLedger:
    """Finalises ordered task results in sequence order, enforcing bounds.

    Both parallel Ordered drivers feed arriving per-task records to
    :meth:`record` and then call :meth:`advance`, which finalises the
    longest ready prefix and answers with every re-run it demands (an
    :class:`OrderedRunPolicy` does both and turns the answer into
    leases).  A parked result whose ``payload["bound"]`` differs from
    the required bound ``B*_seq`` is discarded and its task handed back
    for re-issue.  Speculative execution (running a task from whatever
    bound is known) is therefore always *safe* — at worst the task is
    run again.

    The ``ordered-tiebreak`` entry of the ``REPRO_VERIFY_MUTATION``
    switch (docs/verify.md) corrupts exactly the determinism guarantee
    this class provides: the witness is merged at *arrival* time with a
    ``>=`` comparison (arrival-order wins ties) instead of at
    finalisation with ``>`` (priority wins).  Required bounds are
    tracked separately from the witness, so the mutation perturbs only
    witness identity — the signature the repetition oracle pins against
    :func:`ordered_reference_search`, which does not route through this
    class and stays sound.
    """

    def __init__(self, stype: SearchType, frontier: OrderedFrontier) -> None:
        self._stype = stype
        self._enum = stype.kind == "enumeration"
        self._n = len(frontier.tasks)
        self._next = 0
        self._parked: dict[int, dict] = {}
        self.knowledge = frontier.knowledge
        self.goal = frontier.goal
        self.metrics = SearchMetrics(**frontier.metrics.to_dict())
        self.journal: list[tuple[int, Optional[int], int]] = []
        # Finalised-prefix best, the source of required bounds.  Kept
        # apart from the witness incumbent so the tie-break mutation
        # below cannot leak into bound enforcement (and node counts).
        self._best: Optional[int] = (
            None if self._enum else frontier.knowledge.value
        )
        self._mutated = _active_mutation() == "ordered-tiebreak"

    # -- queries ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Every task finalised, or a decision goal short-circuited."""
        return self.goal or self._next >= self._n

    @property
    def next_seq(self) -> int:
        """The sequence number finalisation is waiting on."""
        return self._next

    @property
    def task_count(self) -> int:
        return self._n

    def required_bound(self) -> Optional[int]:
        """The finalised-prefix best: the bound task ``next_seq`` must
        have run from to finalise, and a floor under the bound of every
        later task.  None for enumeration, which has no bound.
        """
        return self._best

    # -- the driver protocol ------------------------------------------------

    def record(self, seq: int, payload: dict) -> None:
        """Park one arrived result (later arrivals for a seq replace)."""
        if seq < self._next or seq >= self._n or self.finished:
            return  # finalised already, or arrived after a goal: stale
        self._parked[seq] = payload
        if (
            self._mutated
            and not self._enum
            and payload.get("node") is not None
            and payload["value"] >= self.knowledge.value
        ):
            # Deliberate bug (mutation test): merge the witness on
            # arrival, >= — whichever tied optimum lands last wins,
            # which is exactly the anomaly Ordered exists to forbid.
            self.knowledge = Incumbent(payload["value"], payload["node"])

    def advance(self) -> list[int]:
        """Finalise the ready prefix; return every task to run again.

        The answer, in sequence order: the head task ``next_seq`` if its
        parked result ran from any bound but the required one (nothing
        after it can finalise until it is re-run from exactly
        :meth:`required_bound`, which cannot move before then), followed
        by every parked result whose bound is *below* the finalised
        best — required bounds only grow, so those can never finalise
        either and there is no point waiting for their turn to say so.
        A parked result from a bound above the best is left for
        finalisation to judge.  The discarded results are dropped here;
        the caller must execute each returned task again.
        """
        reissue: list[int] = []
        while not self.finished and self._next in self._parked:
            payload = self._parked.pop(self._next)
            if not self._enum and payload.get("bound") != self._best:
                reissue.append(self._next)
                break
            self._finalise(payload)
            self._next += 1
        if self.finished:
            self._parked.clear()
            return []
        if not self._enum:
            best = self._best
            stale = sorted(
                seq for seq, parked in self._parked.items()
                if parked["bound"] < best
            )
            for seq in stale:
                del self._parked[seq]
            reissue += stale
        self.metrics.reassigned += len(reissue)
        return reissue

    def _finalise(self, payload: dict) -> None:
        self.journal.append(
            (self._next, payload.get("bound"), payload["nodes"])
        )
        m = self.metrics
        m.nodes += payload["nodes"]
        m.prunes += payload["prunes"]
        m.backtracks += payload["backtracks"]
        if payload["max_depth"] > m.max_depth:
            m.max_depth = payload["max_depth"]
        if self._enum:
            self.knowledge = self._stype.combine(
                self.knowledge, payload["knowledge"]
            )
            return
        value = payload.get("value")
        if value is not None and value > self._best:
            self._best = value
            if not self._mutated:
                # Priority tie-break: strict improvement replaces, ties
                # keep the earlier (lower-seq) witness.
                self.knowledge = Incumbent(value, payload["node"])
        if payload["goal"] or self._stype.is_goal(self.knowledge):
            self.goal = True


@dataclass(frozen=True)
class OrderedRun:
    """One lease: tasks ``first .. first + count - 1`` and the
    finalised-prefix best they were cut under (None for enumeration)."""

    first: int
    count: int
    bound: Optional[int] = None


class OrderedRunPolicy:
    """Which seqs to lease next, and what a batch of records does.

    The transport-free driver half of the Ordered coordination: the
    multiprocessing parent and the cluster coordinator both call
    :meth:`lease` whenever a worker could take work and :meth:`accept`
    whenever records arrive; queues, sockets, epochs and slots stay
    theirs.

    Leases go out in sequence order — always the lowest-numbered work
    not yet handed out, so a task the ledger wants run again comes
    before anything fresh — and never more than two runs per worker are
    in flight, which bounds both how far speculation runs ahead of
    finalisation and how long a re-run can wait.  Run length needs no
    knob: it starts at 1, doubles with every lease, is capped at a
    quarter of an even share of what is left to hand out (so the tail
    of the job is cut fine enough to balance), and drops back to 1 when
    the finalised best moves, so the burst of re-runs that follows is
    spread over every worker.
    """

    def __init__(self, ledger: OrderedLedger) -> None:
        self.ledger = ledger
        self._reruns: list[int] = []  # ascending; all below _fresh
        self._fresh = 0  # the lowest seq never leased
        self._size = 1
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        """Runs leased and not yet reported done or requeued."""
        return self._in_flight

    @property
    def backlog(self) -> int:
        """Tasks waiting for a lease."""
        return len(self._reruns) + self.ledger.task_count - self._fresh

    def lease(self, workers: int) -> Optional[OrderedRun]:
        """Cut the next run, or None while the window of ``workers``
        workers is full or there is nothing left to hand out."""
        ledger = self.ledger
        if ledger.finished or self._in_flight >= 2 * workers:
            return None
        reruns = self._reruns
        # A requeued seq may have finalised meanwhile (a duplicate
        # record from the lease presumed lost): nothing left to run.
        while reruns and reruns[0] < ledger.next_seq:
            del reruns[0]
        size = min(self._size, max(1, self.backlog // (4 * workers)))
        if reruns:
            count = 1
            while (
                count < size
                and count < len(reruns)
                and reruns[count] == reruns[0] + count
            ):
                count += 1
            first = reruns[0]
            del reruns[:count]
        elif self._fresh < ledger.task_count:
            first = self._fresh
            count = min(size, ledger.task_count - first)
            self._fresh += count
        else:
            return None
        self._size = size * 2
        self._in_flight += 1
        return OrderedRun(first, count, ledger.required_bound())

    def accept(self, records: Sequence[dict], done: bool) -> bool:
        """Feed one message's records to the ledger; ``done`` says the
        run that sent it is complete.  Returns True when the finalised
        best moved — the transport's cue to publish it to the workers.
        """
        ledger = self.ledger
        before = ledger.required_bound()
        for record in records:
            ledger.record(record["seq"], record)
        self._queue_again(ledger.advance())
        if done:
            self._in_flight -= 1
        moved = ledger.required_bound() != before
        if moved:
            self._size = 1
        return moved

    def requeue(self, run: OrderedRun) -> int:
        """A lease was lost (its worker died or handed it back): queue
        what it still owes again.  Returns the number of tasks queued.
        """
        self._in_flight -= 1
        owed = range(max(run.first, self.ledger.next_seq), run.first + run.count)
        self._queue_again(owed)
        return len(owed)

    def _queue_again(self, seqs: Sequence[int]) -> None:
        if seqs:
            self._reruns = sorted(set(self._reruns).union(seqs))


def ordered_reference_search(
    spec: SearchSpec,
    stype: SearchType,
    *,
    d_cutoff: int = 2,
) -> SearchResult:
    """The single-threaded executable contract for Ordered runs.

    Expands the frontier, runs every task in sequence order with the
    exact finalised-prefix bound, and merges inline (strict ``>``, so
    priority wins ties).  Every conforming parallel Ordered run — any
    backend, any worker count, crashes or not — must reproduce this
    result bit for bit: value, witness, found flag, and the ``nodes`` /
    ``prunes`` / ``backtracks`` / ``max_depth`` counters.

    Deliberately does *not* drive :class:`OrderedLedger`, so the
    verification mutations that corrupt the parallel merge paths leave
    this oracle sound.
    """
    started = time.perf_counter()
    frontier = ordered_frontier(spec, stype, d_cutoff=d_cutoff)
    knowledge = frontier.knowledge
    metrics = frontier.metrics
    goal = frontier.goal
    enum = stype.kind == "enumeration"
    best = None if enum else knowledge.value
    for task in frontier.tasks:
        if goal:
            break
        payload = run_task_fixed_bound(
            spec, stype, task.node, task.depth, best
        )
        metrics.nodes += payload["nodes"]
        metrics.prunes += payload["prunes"]
        metrics.backtracks += payload["backtracks"]
        if payload["max_depth"] > metrics.max_depth:
            metrics.max_depth = payload["max_depth"]
        if enum:
            knowledge = stype.combine(knowledge, payload["knowledge"])
            continue
        value = payload["value"]
        if value is not None and value > best:
            best = value
            knowledge = Incumbent(value, payload["node"])
        if payload["goal"] or stype.is_goal(knowledge):
            goal = True
    # Parallel ordered backends do not track per-node weights; pin the
    # reference to the same convention so fingerprints are comparable.
    metrics.weighted_nodes = metrics.nodes
    return SearchResult.from_knowledge(
        stype, knowledge, goal, metrics, time.perf_counter() - started, 1
    )
