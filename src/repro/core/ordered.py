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
   the task re-issued, with one exception that changes nothing it
   records: a task that was *pruned at its root* from a bound
   ``b < B*_i`` (one node, one prune, no improvement) is final as it
   stands, because ``upper_bound(root) <= b`` implies
   ``upper_bound(root) <= B*_i`` — run again from ``B*_i`` it would
   report the same four counters and the same nothing.  That rule and
   the predicate that condemns a task before it runs
   (:meth:`FrontierTasks.pruned_at_root`, from
   :func:`root_prune_floors`) are one fact, read off a record or off
   the task's column row: from the least bound that prunes a root at
   its root, every higher bound does, and the record is
   :data:`ROOT_PRUNED`.  A task condemned before it runs is a bit apart
   from the results that ran: pruned at its root from a required bound,
   it is final under every later one, never stale, and finalises with
   one node and one prune, past a merge and goal test it cannot move.
   Every accepted
   task is appended to the :attr:`~OrderedLedger.journal` as ``(seq,
   B*_i, nodes)``.  Only finalised runs contribute to the returned
   metrics, which is what makes the node count a deterministic function
   of the instance — enforced, not hoped for.

4. **Priority tie-break.**  The incumbent merge at finalisation is
   strict (``>`` replaces): when several tasks attain the optimum the
   witness is the one from the lowest sequence number — priority wins
   over arrival time, matching the sequential discovery order.

5. **Numbers cross the wire, nodes never do.**  The frontier is a
   function of ``(spec, search type, d_cutoff)`` alone (point 1), so
   every worker walks it for itself when the job starts
   (:func:`worker_tasks`, while the driver is walking its own) and a
   task travels as its sequence number.  A *lease* is ``(seqs, bound,
   frontier size)``: ``seqs`` a ``range`` of fresh work or an ascending
   list of tasks to run again, ``bound`` the finalised-prefix best it
   was cut under, and the size what the worker's own walk must have
   numbered — a worker that counted otherwise fails the job instead of
   searching the wrong subtrees.  A *report* is a list of *blocks*: a
   stretch of the run executed from one bound, as parallel integer
   columns ``nodes`` / ``prunes`` / ``backtracks`` / ``max_depth`` (and
   ``knowledge`` for enumeration), with ``value`` / ``node`` / ``goal``
   once, for the block's last task — a block ends at the task that
   improves the bound.  :func:`execute_run` is the worker half (thread
   the bound from task to task, restart a task the published best has
   overtaken, cut the blocks), shared by the process fleet's and the
   cluster's workers; the driver half (walk the frontier into a ledger,
   which seqs to lease next, what a report does to the ledger) is the
   one job driver of both runtimes,
   :class:`repro.runtime.driver.JobDriver`, which the fleet's parent and
   the cluster coordinator each run.  The frontier is a table of column
   rows (:class:`FrontierTasks`), and a task is built only to run it:
   no walk builds a task root, the driver parks a task the finalised
   best condemns (:meth:`OrderedLedger.condemn`) and never leases it,
   and a worker reports a task its starting bound condemns without
   building it or entering the kernel.  None of it changes what the
   ledger verifies: required bounds only grow, so a task condemned under
   a floor of ``B*_i`` holds the record a run from ``B*_i`` would.

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
from itertools import repeat
from math import inf
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.core.kernel import search_subtree
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Decision, Incumbent, Optimisation, SearchType, _active_mutation
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec

__all__ = [
    "OrderedTask",
    "FrontierTasks",
    "OrderedFrontier",
    "ordered_frontier",
    "worker_tasks",
    "run_task_fixed_bound",
    "execute_run",
    "ROOT_PRUNED",
    "root_prune_floors",
    "OrderedLedger",
    "ordered_reference_search",
]


class _Aborted(Exception):
    """Raised out of the kernel's poll hook when ``should_abort()``
    answers True; :func:`run_task_fixed_bound` turns it into None."""


class OrderedTask(NamedTuple):
    """One frontier subtree with its discovery-order priority, built.

    ``seq`` is the position in the sequential depth-bounded traversal —
    lower runs (and finalises) first.  ``depth`` is the root's global
    depth; ``key`` the sibling-index path from the search root (kept for
    diagnostics: sorting by key *is* sorting by seq).  It is what
    :class:`FrontierTasks` answers for one of its rows.
    """

    seq: int
    node: Any
    depth: int
    key: tuple = ()


class FrontierTasks:
    """The numbered frontier as a table: task ``seq`` is child ``i`` of
    one parent one level above the cutoff.

    A spec with ``columns`` keeps each parent's column frame, so a task
    is the row ``(values[i], bounds[i])`` of that frame and its node is
    built only when :meth:`node` asks — ``frame.build(i)``, or ``build``
    on a fresh frame of the parent for a row the frame has passed (a
    re-run, an out-of-order lease).  Other specs keep the parent's
    drained children.  It lives where it was walked: the driver and
    every worker hold their own, and only ``seq`` travels.
    ``tasks[seq]`` is the :class:`OrderedTask`, built.
    """

    def __init__(self, spec: SearchSpec, stype: SearchType, depth: int) -> None:
        self.depth = depth  # every task's root depth
        self._spec = spec
        self._stype = stype
        self._parents: list = []  # per parent: its node, frame, path key
        self._frames: list = []
        self._keys: list[tuple] = []
        self._owner: list[int] = []  # per task: its parent's position
        self._index: list[int] = []  # per task: its child index there
        # Per task, the least bound that prunes it at its root
        # (:func:`root_prune_floors`); None when no bound prunes a task.
        self._floors = (
            root_prune_floors(spec, stype, (), ()) if spec.columns is not None else None
        )
        self._ceiling = stype.target if type(stype) is Decision else inf

    def add(self, parent: Any, key: tuple) -> None:
        """Number the children of ``parent`` (path ``key``) next."""
        spec = self._spec
        if spec.columns is None:
            frame = spec.generator(spec.space, parent).drain()
            n = len(frame)
        else:
            frame = spec.columns(spec.space, parent)
            n = len(frame.values)
            if self._floors is not None:
                self._floors += root_prune_floors(spec, self._stype, frame.values, frame.bounds)
        if n:
            self._owner += repeat(len(self._frames), n)
            self._index += range(n)
            self._parents.append(parent)
            self._frames.append(frame)
            self._keys.append(key)

    def __len__(self) -> int:
        return len(self._owner)

    def __getitem__(self, seq: int) -> OrderedTask:
        return OrderedTask(
            seq, self.node(seq), self.depth, self._keys[self._owner[seq]] + (self._index[seq],)
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def node(self, seq: int) -> Any:
        """Task ``seq``'s root, built now."""
        at, i = self._owner[seq], self._index[seq]
        frame = self._frames[at]
        if type(frame) is list:
            return frame[i]
        if i < frame.pos:
            spec = self._spec
            frame = self._frames[at] = spec.columns(spec.space, self._parents[at])
        return frame.build(i)

    def pruned_at_root(self, seq: int, bound: Any) -> bool:
        """Would task ``seq`` run from ``bound`` stop at its root, pruned,
        improving nothing?  Then its row is :data:`ROOT_PRUNED`."""
        return self._floors is not None and self._floors[seq] <= bound < self._ceiling

    def split(self, seqs: Sequence[int], bound: Any) -> tuple[list[int], list[int]]:
        """``seqs`` as ``(survivors, pruned at their root from bound)``."""
        floors = self._floors
        if floors is None or not bound < self._ceiling:
            return list(seqs), []
        return (
            [seq for seq in seqs if floors[seq] > bound],
            [seq for seq in seqs if floors[seq] <= bound],
        )

    def pop(self) -> OrderedTask:
        """Take the last task off the table, built."""
        task = self[len(self) - 1]
        del self._owner[-1], self._index[-1]
        if self._floors is not None:
            del self._floors[-1]
        return task


@dataclass
class OrderedFrontier:
    """Phase-1 output: numbered tasks plus the prefix searched to make them.

    ``knowledge`` / ``metrics`` cover exactly the nodes the expansion
    visited (the region above ``d_cutoff``); ``goal`` is True when a
    decision search short-circuited during expansion, in which case
    ``tasks`` is empty and the search is already complete.  ``tasks``
    is a :class:`FrontierTasks` table when there was a frontier to walk.
    """

    tasks: Sequence[OrderedTask] = field(default_factory=list)
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

    Subtree roots at depth ``d_cutoff`` become the rows of a
    :class:`FrontierTasks` table, numbered in discovery order;
    everything above is processed here, threading one knowledge value
    through the walk exactly as the sequential search would.
    Deterministic by construction — no clocks, no randomness, no worker
    interleaving — which is what lets every worker repeat it and be
    handed positions in the result.  Above the last level a node's
    children are taken in one go, by its lazy generator's ``drain()``;
    no task root is built here.
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
    tasks = FrontierTasks(spec, stype, d_cutoff)
    goal = False
    # Depth-first worklist of (node, depth, path key) above the cutoff.
    # A node's children are pushed in reverse, so the pop order is
    # lexicographic on path keys — the sequential traversal order — and
    # the children of a node one level above the cutoff, which nothing
    # can come between, are numbered as they are met.
    pending: list[tuple] = [(spec.root, 0, ())]
    while pending:
        node, depth, key = pending.pop()
        knowledge, _ = process(spec, node, knowledge)
        metrics.nodes += 1
        metrics.weighted_nodes += node_size(node) if node_size is not None else 1
        if is_goal(knowledge):
            goal = True
            tasks = FrontierTasks(spec, stype, d_cutoff)
            break
        if should_prune(spec, node, knowledge):
            metrics.prunes += 1
            continue
        metrics.backtracks += 1
        depth += 1
        if depth > metrics.max_depth:
            metrics.max_depth = depth
        if depth >= d_cutoff:
            tasks.add(node, key)
        else:
            kids = generator(space, node).drain()
            for index in range(len(kids) - 1, -1, -1):
                pending.append((kids[index], depth, key + (index,)))
    metrics.spawns = len(tasks)
    return OrderedFrontier(
        tasks=tasks, knowledge=knowledge, goal=goal, metrics=metrics
    )


def worker_tasks(spec: SearchSpec, stype: SearchType, d_cutoff: int) -> FrontierTasks:
    """A worker's own copy of the task table, walked when its job starts.

    With ``d_cutoff <= 0`` phase 1 is the whole search: the driver
    finishes alone, and a worker asked to walk would search the tree a
    second time for an empty list — refused.
    """
    if d_cutoff <= 0:
        raise ValueError(
            f"an ordered job with d_cutoff={d_cutoff} has no frontier to walk: "
            "its driver finishes it in phase 1"
        )
    return ordered_frontier(spec, stype, d_cutoff=d_cutoff).tasks


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


_COLUMNS = ("nodes", "prunes", "backtracks", "max_depth")


def execute_run(
    spec: SearchSpec,
    stype: SearchType,
    tasks: FrontierTasks,
    seqs: Sequence[int],
    bound: Optional[int],
    of: int,
    flush: Callable[[list, bool], None],
    *,
    published: Optional[Callable[[], int]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    poll: int = 1024,
) -> bool:
    """Execute one lease — tasks ``seqs`` of this worker's own ``tasks``
    — in order.

    The worker half of the Ordered coordination, shared by both real
    runtimes.  ``of`` is the size of the frontier the lease was cut
    from: a worker whose own walk numbered another count would search
    other subtrees under the same numbers, so that is a ValueError
    naming both counts, raised before anything runs.  ``bound`` is the
    finalised-prefix best the lease was cut under (None for
    enumeration); ``published()`` is that same best as this worker last
    heard it.  Each task starts from the largest bound known to hold
    before it: the lease's, the published one, and the value its
    predecessors in this run reached — every one of them a floor under
    the bound the ledger will require, and exactly that bound whenever
    the predecessors themselves ran from the right one.  A task whose
    starting bound the published best overtakes mid-flight can no longer
    finalise, so it is restarted from the new bound at its next
    ``poll``-node check instead of being run to a result the ledger must
    reject.  A task its starting bound prunes at its root
    (:meth:`FrontierTasks.pruned_at_root`) reports :data:`ROOT_PRUNED`
    as it is: its node is never built, the kernel never entered.

    ``flush(blocks, done)`` ships what has run since the last flush,
    ``done`` marking the run's last message.  A block is a dict: the
    ``seqs`` it covers (a slice of the lease's), the ``bound`` every one
    of them ran from, one list per counter in ``nodes`` / ``prunes`` /
    ``backtracks`` / ``max_depth`` (and ``knowledge`` for enumeration),
    and — only when its last task improved the bound — that task's
    ``value``, ``node`` and ``goal``.  A block is closed by such a task,
    or by a newly published bound, and a run flushes as soon as a task
    improves the bound, so the ledger can finalise and publish it while
    the rest of the run is still executing.  Returns
    False, having flushed nothing further, when ``should_abort()`` cut
    it short.
    """
    if of != len(tasks):
        raise ValueError(
            f"this worker's frontier walk numbered {len(tasks)} tasks, "
            f"its lease is cut from a frontier of {of}"
        )
    enum = stype.kind == "enumeration"
    names = _COLUMNS + ("knowledge",) if enum else _COLUMNS

    def overtaken_or_aborted() -> bool:
        # Reads ``bound`` as it stands while the current task runs.
        if should_abort is not None and should_abort():
            return True
        return not enum and published() > bound

    def ship(done: bool) -> None:
        for cut in blocks:
            at = cut["seqs"]
            cut["seqs"] = seqs[at:at + len(cut["nodes"])]
        flush(blocks, done)

    blocks: list[dict] = []
    columns: Optional[tuple] = None  # the open block's, the last of ``blocks``
    for position, seq in enumerate(seqs):
        payload = None
        while payload is None:
            # Checked per task too: a run of tasks shorter than ``poll``
            # nodes never reaches the in-task check.
            if should_abort is not None and should_abort():
                return False
            if not enum and (heard := published()) > bound:
                bound, columns = heard, None
            if tasks.pruned_at_root(seq, bound):
                payload = ROOT_PRUNED
            else:
                payload = run_task_fixed_bound(
                    spec, stype, tasks.node(seq), tasks.depth, bound,
                    poll=poll, should_abort=overtaken_or_aborted,
                )
        if columns is None:
            # ``seqs`` holds the block's first position until it ships.
            block = {"seqs": position, "bound": bound}
            columns = tuple(block.setdefault(name, []) for name in names)
            blocks.append(block)
        for name, column in zip(names, columns):
            column.append(payload[name])
        if enum or payload["value"] is None:
            continue
        bound = block["value"] = payload["value"]
        block["node"] = payload["node"]
        block["goal"] = payload["goal"]
        columns = None
        if position + 1 < len(seqs):
            ship(False)
            blocks = []
    ship(True)
    return True


# -- pruned at its root -------------------------------------------------------

# What :func:`run_task_fixed_bound` returns for a task that stops at its
# root, pruned, improving nothing: one node, one prune, nothing found.
ROOT_PRUNED = {
    "nodes": 1, "prunes": 1, "backtracks": 0, "max_depth": 0,
    "goal": False, "value": None, "node": None,
}


def root_prune_floors(
    spec: SearchSpec, stype: SearchType, values: Sequence[int], limits: Sequence[Any]
) -> Optional[list]:
    """For each child of a column frame, the least bound from which it
    is pruned at its root: the kernel's root check — process, goal
    test, prune — read off its row, objective ``values[i]`` and
    admissible bound ``limits[i]``.  None when no bound prunes any
    child: enumeration, a spec without ``upper_bound``, a search type
    the kernel's column loops do not take.

    Optimisation prunes a root from ``max(value, limit)`` up: nothing
    strengthens and the bound check fires.  Decision, whose bound check
    also fires on a limit below the target whatever the bound, prunes it
    from ``value`` up when value and limit are both below the target,
    from no bound otherwise — and from no bound at or above the target,
    whose goal test comes first (:meth:`FrontierTasks.pruned_at_root`).
    Pruned from ``b``, a root is pruned from every higher bound below
    that ceiling: the fact :func:`_root_pruned` applies to a record.
    """
    if not spec.can_prune:
        return None
    if type(stype) is Optimisation:
        return list(map(max, values, limits))
    if type(stype) is Decision:
        target = stype.target
        return [
            value if value < target and limit < target else inf
            for value, limit in zip(values, limits)
        ]
    return None


def _root_pruned(row: tuple) -> bool:
    """Did this parked task stop at its root, pruned, improving nothing
    (:data:`ROOT_PRUNED`)?  Then it is the same record from any higher
    bound."""
    return row[1] == ROOT_PRUNED["nodes"] and row[2] == ROOT_PRUNED["prunes"] and row[5] is None


class OrderedLedger:
    """Finalises ordered task results in sequence order, enforcing bounds.

    The job driver (:class:`repro.runtime.driver.JobDriver`) feeds
    arriving blocks to :meth:`record` and then calls :meth:`advance`,
    which finalises the longest ready prefix and answers with every
    re-run it demands; the driver turns the answer into leases.  A
    parked task that ran from another bound than the required
    ``B*_seq`` is discarded and handed back for re-issue —
    unless it ran from a *lower* one and was pruned at its root, which
    it would be again (module docstring, point 3).  Speculative
    execution (running a task from whatever bound is known) is therefore
    always *safe* — at worst the task is run again.

    Condemned tasks (:meth:`condemn`) are a bitmap beside the parked
    results, and a seq is in at most one of the two.  Required bounds
    only grow, so a condemned record is never stale and no later report
    replaces it; the stale rescan reads only the results that ran — a
    few runs per worker, not the frontier.

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
        # seq -> (bound, nodes, prunes, backtracks, max_depth, found):
        # ``found`` the task's accumulator (enumeration), else None or
        # the ``(value, node, goal)`` of a task that improved its bound.
        self._parked: dict[int, tuple] = {}
        # Per task, 1 once condemned; the spare 0 past the end stops a stretch.
        self._condemned = bytearray(self._n + 1)
        self._rescan = False  # something parked may be stale already
        self._prefix_nodes = frontier.metrics.nodes
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

    def nodes_per_task(self) -> float:
        """Mean size of the tasks finalised so far (0.0 before the first)."""
        if not self._next:
            return 0.0
        return (self.metrics.nodes - self._prefix_nodes) / self._next

    # -- the driver protocol ------------------------------------------------

    def record(self, block: dict) -> None:
        """Park one arrived block, task by task (a later arrival for a
        seq replaces an earlier one, but never a condemned task's
        record).  Well-formedness — columns as long as ``seqs`` — is the
        transport's to check."""
        if self.finished:
            return  # arrived after a goal: stale
        seqs, bound = block["seqs"], block.get("bound")
        if self._enum:
            founds = block["knowledge"]
        else:
            founds = [None] * len(seqs)
            if block.get("value") is not None:
                founds[-1] = (block["value"], block.get("node"), bool(block.get("goal")))
        if not self._enum and bound < self._best:
            self._rescan = True  # arrived from a bound already too low
        parked, condemned, first, n = self._parked, self._condemned, self._next, self._n
        for seq, row in zip(seqs, zip(
            repeat(bound), block["nodes"], block["prunes"],
            block["backtracks"], block["max_depth"], founds,
        )):
            if first <= seq < n and not condemned[seq]:  # else final, or no such task
                parked[seq] = row
        if (
            self._mutated
            and not self._enum
            and block.get("node") is not None
            and first <= seqs[-1] < n
            and block["value"] >= self.knowledge.value
        ):
            # Deliberate bug (mutation test): merge the witness on
            # arrival, >= — whichever tied optimum lands last wins,
            # which is exactly the anomaly Ordered exists to forbid.
            self.knowledge = Incumbent(block["value"], block["node"])

    def condemn(self, seqs: Sequence[int]) -> None:
        """Park tasks ``seqs``, each pruned at its root from the required
        bound (:meth:`FrontierTasks.pruned_at_root`), as the
        :data:`ROOT_PRUNED` record each would report run from it."""
        condemned, parked, first, n = self._condemned, self._parked, self._next, self._n
        for seq in seqs:
            if first <= seq < n:  # the spare 0 at n stays
                condemned[seq] = 1
        for seq in [seq for seq in parked if condemned[seq]]:
            del parked[seq]  # a seq is parked or condemned, never both

    def advance(self) -> list[int]:
        """Finalise the ready prefix; return every task to run again.

        The answer, in sequence order: the head task ``next_seq`` if its
        parked result cannot stand under the required bound (nothing
        after it can finalise until it is re-run from exactly
        :meth:`required_bound`, which cannot move before then), and
        every arrived result from a bound *below* the finalised best
        that was not pruned at its root — required bounds only grow, so
        those can never finalise either and there is no point waiting
        for their turn to say so.  A parked result from a bound above
        the best is left for finalisation to judge.  The discarded
        results are dropped here; the caller must execute each returned
        task again.  A condemned task is final: neither question is asked.
        """
        parked, condemned = self._parked, self._condemned
        reissue: list[int] = []
        before = self._best
        while not self.finished:
            seq = self._next
            if condemned[seq]:
                # A stretch of ROOT_PRUNED: one node, one prune, no merge.
                end = condemned.find(0, seq)
                self.journal += zip(range(seq, end), repeat(self._best), repeat(1))
                self.metrics.nodes += end - seq
                self.metrics.prunes += end - seq
                self._next = end
            elif seq in parked:
                row = parked.pop(seq)
                if not self._enum and row[0] != self._best and not (
                    row[0] < self._best and _root_pruned(row)
                ):
                    reissue.append(seq)
                    break
                self._finalise(row)
                self._next = seq + 1
            else:
                break
        if self.finished:
            parked.clear()
            return []
        best = self._best
        if best != before or self._rescan:
            # What ran from a bound below the best cannot stand.
            stale = sorted(
                seq for seq, row in parked.items()
                if row[0] < best and not _root_pruned(row)
            )
            for seq in stale:
                del parked[seq]
            reissue += stale
        self._rescan = False
        self.metrics.reassigned += len(reissue)
        return reissue

    def _finalise(self, row: tuple) -> None:
        _, nodes, prunes, backtracks, max_depth, found = row
        self.journal.append((self._next, self._best, nodes))
        m = self.metrics
        m.nodes += nodes
        m.prunes += prunes
        m.backtracks += backtracks
        if max_depth > m.max_depth:
            m.max_depth = max_depth
        if self._enum:
            self.knowledge = self._stype.combine(self.knowledge, found)
            return
        value, node, goal = found or (None, None, False)
        if value is not None and value > self._best:
            self._best = value
            if not self._mutated:
                # Priority tie-break: strict improvement replaces, ties
                # keep the earlier (lower-seq) witness.
                self.knowledge = Incumbent(value, node)
        if goal or self._stype.is_goal(self.knowledge):
            self.goal = True


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
