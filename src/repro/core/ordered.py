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
   the task re-issued, with one exception: a task *pruned at its root*
   from a bound ``b < B*_i`` (one node, one prune, no improvement) is
   final as it stands, because ``upper_bound(root) <= b <= B*_i``.  The
   same fact, read off a task's column row
   (:meth:`FrontierTasks.pruned_at_root`, from
   :func:`root_prune_floors`), condemns a task before it runs: pruned
   at its root from a required bound, it is final under every later
   one, never stale, and finalises as :data:`ROOT_PRUNED`.  Every
   accepted task is appended to the :attr:`~OrderedLedger.journal` as
   ``(seq, B*_i, nodes)``.  Only finalised runs contribute to the
   returned metrics, which is what makes the node count a deterministic
   function of the instance — enforced, not hoped for.

4. **Priority tie-break.**  The incumbent merge at finalisation is
   strict (``>`` replaces): when several tasks attain the optimum the
   witness is the one from the lowest sequence number — priority wins
   over arrival time, matching the sequential discovery order.

5. **Paths cross the wire, nodes never do.**  The driver's walk is the
   job's only one, and a task travels as its parent's child-index path
   and its child index there (the indexed-search-tree encoding of
   Abu-Khzam et al., PAPERS.md): a *lease* is a run of such stretches
   (:meth:`FrontierTasks.stretches`) and the finalised-prefix best it
   was cut under.  A worker replays each parent down its path the first
   time a lease names it (:meth:`FrontierTasks.rows`), and a *report*
   is *blocks*, stretches of the run executed from one bound as integer
   columns.  :func:`execute_run` is the worker half, shared by both
   real runtimes; the driver half is
   :class:`repro.runtime.driver.JobDriver`.  A task is built only to
   run it: the driver parks a task the finalised best condemns
   (:meth:`OrderedLedger.condemn`) and never leases it, and a worker
   reports a task its starting bound condemns without building it.
   Required bounds only grow, so a task condemned under a floor of
   ``B*_i`` holds the record a run from ``B*_i`` would.

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
from typing import Any, Callable, Optional, Sequence, Sized

from repro.core.kernel import search_subtree
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Decision, Incumbent, Optimisation, SearchType, _active_mutation
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec

__all__ = [
    "FrontierTasks",
    "OrderedFrontier",
    "ordered_frontier",
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


class FrontierTasks:
    """The numbered frontier as a table: row ``r`` is child ``i`` of one
    parent one level above the cutoff, the node at child-index path
    ``key`` from the root.

    A spec with ``columns`` keeps each parent's column frame, so a task
    is the row ``(values[i], bounds[i])`` of that frame and its node is
    built only when :meth:`node` asks — ``frame.build(i)``, or ``build``
    on a fresh frame of the parent for a row the frame has passed (a
    re-run, an out-of-order lease).  Other specs keep the parent's
    drained children.  The driver's table is walked
    (:func:`ordered_frontier`) and its rows are the seqs, lower run (and
    finalised) first.  A worker's starts empty and holds the parents its
    leases name (:meth:`rows`).
    """

    def __init__(self, spec: SearchSpec, stype: SearchType, depth: int) -> None:
        self.depth = depth  # every task's root depth
        self._spec = spec
        self._stype = stype
        # Per parent: its path key, first row and number of children.
        self._keys: list[tuple] = []
        self._starts: list[int] = []
        self._widths: list[int] = []
        self._at: dict[tuple, int] = {}  # path key -> parent position
        self._owner: list[int] = []  # per row: its parent's position
        # Each parent, and each node a replay built, by path: [node, frame].
        self._nodes: dict[tuple, list] = {(): [spec.root, None]}
        # Per row, the least bound that prunes it at its root
        # (:func:`root_prune_floors`); None when no bound prunes a task.
        self._floors = (
            root_prune_floors(spec, stype, (), ()) if spec.columns is not None else None
        )
        self._ceiling = stype.target if type(stype) is Decision else inf

    def add(self, parent: Any, key: tuple) -> None:
        """Number the children of ``parent`` (path ``key``) next."""
        entry = self._nodes[key] = [parent, None]
        frame = self._frame(entry, 0)
        n = len(frame) if type(frame) is list else len(frame.values)
        if self._floors is not None:
            self._floors += root_prune_floors(self._spec, self._stype, frame.values, frame.bounds)
        if n:
            self._at[key] = len(self._keys)
            self._keys.append(key)
            self._starts.append(len(self._owner))
            self._widths.append(n)
            self._owner += repeat(len(self._keys) - 1, n)

    def __len__(self) -> int:
        return len(self._owner)

    def node(self, row: int) -> Any:
        """Row ``row``'s task root, built now."""
        at = self._owner[row]
        return self._child(self._nodes[self._keys[at]], row - self._starts[at])

    def pruned_at_root(self, row: int, bound: Any) -> bool:
        """Would row ``row``'s task run from ``bound`` stop at its root,
        pruned, improving nothing?  Then its record is :data:`ROOT_PRUNED`."""
        return self._floors is not None and self._floors[row] <= bound < self._ceiling

    def split(self, seqs: Sequence[int], bound: Any) -> tuple[list[int], list[int]]:
        """``seqs`` as ``(survivors, pruned at their root from bound)``."""
        floors = self._floors
        if floors is None or not bound < self._ceiling:
            return list(seqs), []
        return (
            [seq for seq in seqs if floors[seq] > bound],
            [seq for seq in seqs if floors[seq] <= bound],
        )

    def stretches(self, seqs: Sequence[int]) -> list[list]:
        """Ascending ``seqs`` as a lease carries them: ``[seq, path,
        children, index, count]`` per stretch of consecutive tasks under
        one parent — ``count`` tasks from ``seq`` on, children ``index``
        onwards of the parent at ``path``, which has ``children``."""
        owner, out = self._owner, []
        for seq in seqs:
            last = out[-1] if out else None
            if last is not None and last[0] + last[4] == seq and owner[last[0]] == owner[seq]:
                last[4] += 1
            else:
                at = owner[seq]
                out.append([seq, self._keys[at], self._widths[at], seq - self._starts[at], 1])
        return out

    def rows(self, stretches: Sequence[Sequence]) -> tuple[list[int], list[int]]:
        """A lease's :meth:`stretches` as its seqs and their rows here,
        each parent they name added the first time — built by replaying
        ``build(i)`` down its path, keeping the frames on the way.  A
        ValueError, before any task is built, when a path index names no
        child here or a parent has another child count than the driver
        numbered: a worker whose spec differs fails the job instead of
        searching other subtrees."""
        seqs, rows = [], []
        for seq, path, children, index, count in stretches:
            if path not in self._at:
                for depth in range(len(path)):
                    if path[:depth + 1] not in self._nodes:
                        child = self._child(self._nodes[path[:depth]], path[depth], path)
                        self._nodes[path[:depth + 1]] = [child, None]
                self.add(self._nodes[path][0], path)
            width = self._widths[self._at[path]] if path in self._at else 0
            if not width == children >= index + count:
                raise ValueError(
                    f"the parent at path {list(path)} has {width} children here; its "
                    f"lease says {children} and names child {index + count - 1}"
                )
            row = self._starts[self._at[path]] + index
            seqs += range(seq, seq + count)
            rows += range(row, row + count)
        return seqs, rows

    def _frame(self, entry: list, i: int) -> Any:
        """The children's frame of ``entry``'s node, built anew unless
        it is at or before child ``i``."""
        frame, spec = entry[1], self._spec
        if frame is None or (type(frame) is not list and i < frame.pos):
            frame = entry[1] = (
                spec.columns(spec.space, entry[0]) if spec.columns is not None
                else spec.generator(spec.space, entry[0]).drain()
            )
        return frame

    def _child(self, entry: list, i: int, path: tuple = ()) -> Any:
        frame = self._frame(entry, i)
        width = len(frame) if type(frame) is list else len(frame.values)
        if not 0 <= i < width:
            raise ValueError(f"path {list(path)} names child {i} of a node with {width} here")
        return frame[i] if type(frame) is list else frame.build(i)


@dataclass
class OrderedFrontier:
    """Phase-1 output: numbered tasks plus the prefix searched to make them.

    ``knowledge`` / ``metrics`` cover exactly the nodes the expansion
    visited (the region above ``d_cutoff``); ``goal`` is True when a
    decision search short-circuited during expansion, in which case
    ``tasks`` is empty and the search is already complete.  ``tasks``
    is a :class:`FrontierTasks` table when there was a frontier to walk.
    """

    tasks: Sized = ()
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
    interleaving — so a task's seq is a function of the instance and a
    job needs one walk, its driver's.  Above the last level a node's
    children are taken in one go, by its lazy generator's ``drain()``;
    no task root is built here.
    """
    if d_cutoff <= 0:
        # No spawn rule fires at cutoff 0: phase 1 *is* the whole
        # search, and the task list comes back empty.
        done = sequential_search(spec, stype)
        knowledge = done.value if stype.kind == "enumeration" else Incumbent(done.value, done.node)
        return OrderedFrontier(knowledge=knowledge, goal=bool(done.found), metrics=done.metrics)
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
    return OrderedFrontier(tasks=tasks, knowledge=knowledge, goal=goal, metrics=metrics)


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
    stretches: Sequence[Sequence],
    bound: Optional[int],
    flush: Callable[[list, bool], None],
    *,
    published: Optional[Callable[[], int]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    poll: int = 1024,
) -> bool:
    """Execute one lease — the tasks ``stretches`` name
    (:meth:`FrontierTasks.stretches`) — in order.

    The worker half of the Ordered coordination, shared by both real
    runtimes.  ``tasks`` is this worker's table of the job's parents
    (:meth:`FrontierTasks.rows`: a lease naming what this worker's tree
    lacks is a ValueError before anything runs).  ``bound`` is the
    finalised-prefix best the lease was cut under (None for
    enumeration); ``published()`` is that same best as this worker last
    heard it.  Each task starts from the largest bound known to hold
    before it: the lease's, the published one, and the value its
    predecessors in this run reached — every one of them a floor under
    the bound the ledger will require, and exactly that bound whenever
    the predecessors themselves ran from the right one.  A task whose
    starting bound the published best overtakes mid-flight is restarted
    from the new bound at its next ``poll``-node check.  A task its
    starting bound prunes at its root reports :data:`ROOT_PRUNED`
    without being built.

    ``flush(blocks, done)`` ships what has run since the last flush,
    ``done`` marking the run's last message.  A block is a dict: the
    ``seqs`` it covers (a slice of the lease's), the ``bound`` every one
    of them ran from, one list per counter in ``nodes`` / ``prunes`` /
    ``backtracks`` / ``max_depth`` (and ``knowledge`` for enumeration),
    and — only when its last task improved the bound — that task's
    ``value``, ``node`` and ``goal``.  A block is closed by such a task,
    or by a newly published bound, and a run flushes as soon as a task
    improves the bound.  Returns False, having flushed nothing further,
    when ``should_abort()`` cut it short.
    """
    seqs, rows = tasks.rows(stretches)
    if seqs and seqs[-1] - seqs[0] == len(seqs) - 1:
        seqs = range(seqs[0], seqs[-1] + 1)
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
    for position, row in enumerate(rows):
        payload = None
        while payload is None:
            # Checked per task too: a run of tasks shorter than ``poll``
            # nodes never reaches the in-task check.
            if should_abort is not None and should_abort():
                return False
            if not enum and (heard := published()) > bound:
                bound, columns = heard, None
            if tasks.pruned_at_root(row, bound):
                payload = ROOT_PRUNED
            else:
                payload = run_task_fixed_bound(
                    spec, stype, tasks.node(row), tasks.depth, bound,
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
    tasks = frontier.tasks
    for row in range(len(tasks)):
        if goal:
            break
        payload = run_task_fixed_bound(spec, stype, tasks.node(row), tasks.depth, best)
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
