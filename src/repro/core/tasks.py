"""Resumable search tasks: the coordination state machines.

A :class:`SearchTask` is one unit of work from the semantics — a subtree
rooted at ``root`` — together with the traversal state needed to search
it: the generator stack and the backtrack counter.  The task advances
one reduction at a time via :meth:`step`, which makes the *same* state
machine drivable in two ways:

- a tight ``while not finished: step()`` loop (the stepped sequential
  driver and the real-thread backend), and
- one step per simulated time quantum (the discrete-event cluster),

so the simulated parallel search expands exactly the tree a real worker
would, given the same knowledge-arrival timing.

The coordination (``seq`` / ``depth`` / ``budget`` / ``stack`` /
``ordered``) is a parameter: it only changes *when subtrees are given
away*, never how the tree is traversed — mirroring how Figure 2 factors
spawn rules apart from traversal rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.genstack import GeneratorStack
from repro.core.nodegen import ListNodeGenerator
from repro.core.params import SkeletonParams
from repro.core.searchtypes import SearchType
from repro.core.space import SearchSpec

__all__ = [
    "StepOutcome",
    "SearchTask",
    "SpawnedTask",
    "split_lowest_inlined",
    "split_one_inlined",
    "SEQ",
    "DEPTH",
    "BUDGET",
    "STACK",
    "ORDERED",
]

SEQ = "seq"
DEPTH = "depth"
BUDGET = "budget"
STACK = "stack"
# Ordered: Depth-Bounded task generation, but tasks carry their
# heuristic-order path key and execute from a single rank-ordered pool —
# the replicable branch-and-bound discipline of Archibald et al. [4]
# (cited in the paper's §2.1 as the anomaly-controlling skeleton).
ORDERED = "ordered"
_POLICIES = (SEQ, DEPTH, BUDGET, STACK, ORDERED)


@dataclass(frozen=True)
class SpawnedTask:
    """A child subtree handed to the workpool.

    ``key`` is the root's sibling-index path from the global root —
    lexicographic order on keys is the sequential traversal (heuristic)
    order, which the Ordered coordination's workpool ranks by.
    """

    root: Any
    depth: int
    key: tuple = ()


_NO_SPAWNS: tuple = ()


class StepOutcome:
    """What one :meth:`SearchTask.step` did (for metrics and cost model).

    A plain mutable record.  Each task *reuses* one outcome object
    across steps (one is read per simulated event, so allocation here
    is simulator hot path); callers must consume the fields before the
    task's next step.
    """

    __slots__ = (
        "processed",
        "pruned",
        "backtracked",
        "improved",
        "goal",
        "finished",
        "spawned",
        "weight",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear all flags for the next step."""
        self.processed = False  # a node was visited and processed
        self.pruned = False  # a processed node's subtree was discarded
        self.backtracked = False  # an exhausted generator was popped
        self.improved = False  # the incumbent was strengthened
        self.goal = False  # decision target reached -> stop everything
        self.finished = False  # this task is complete
        self.spawned: Any = _NO_SPAWNS  # fresh list only when spawning
        self.weight = 1  # cost weight of the processed node (spec.node_size)


def split_lowest_inlined(gens: list) -> tuple[list, int]:
    """(spawn-budget) for the search kernel's stack.

    The kernel (:func:`~repro.core.kernel.search_subtree`) keeps a plain
    list of node generators rather than a
    :class:`~repro.core.genstack.GeneratorStack` and hands it to its
    caller's ``on_poll`` hook; this helper applies the same bottom-up
    splitting rule (Listing 4, lines 8-14) to that representation, in
    place: take *all* remaining children of the first
    non-exhausted generator nearest the root — the heuristically largest
    unexplored subtrees — in one pass, by the frame's own ``drain()``
    (a column frame builds exactly the children it has not yet
    processed, including the uncounted rest of a ``leaves`` frame).

    Returns ``(nodes, frame_index)`` where ``frame_index`` is the
    position of the drained generator in ``gens`` (the spawned nodes
    live at task-relative depth ``frame_index + 1``), or ``([], -1)``
    when every generator is exhausted.  Splitting only consumes
    generator output, so it cannot change which nodes the search visits
    — only *where* they are visited (Theorem 3.1's interleaving
    argument).

    Degenerate splits are refused: when the only splittable work is a
    *single* remaining child and no deeper generator has anything left,
    draining it would hand the entire remaining subtree to a new task
    and leave the donor empty.  On chain-like trees that ping-pongs the
    whole search through the work queue every budget trip (task count ~
    nodes/budget) with zero balancing benefit — and on the cluster
    backend every bounce is a full OFFCUT/TASK round trip.  Generators
    cannot be rewound, so the already-drawn child is restored by
    swapping the exhausted donor for a one-element
    :class:`~repro.core.nodegen.ListNodeGenerator`, and ``([], -1)`` is
    returned: keep the subtree local.
    """
    for index, gen in enumerate(gens):
        if gen.has_next():
            nodes = gen.drain()
            if len(nodes) == 1 and not any(
                deeper.has_next() for deeper in gens[index + 1 :]
            ):
                gens[index] = ListNodeGenerator(nodes)
                return [], -1
            return nodes, index
    return [], -1


def split_one_inlined(gens: list) -> tuple[list, int]:
    """(spawn-stack), un-chunked, for the search kernel's stack.

    The single-node variant of :func:`split_lowest_inlined`: take *one*
    child from the first non-exhausted generator nearest the root (the
    stolen node of the (spawn-stack) rule) and leave the rest in place.
    Generators cannot be partially drained and restored one element at a
    time, so the frame is drained as in the chunked split and the
    remainder re-installed as a :class:`ListNodeGenerator` at the same
    position — the traversal continues from it unchanged (the kernel's
    column loops give it columns again).

    Returns ``(nodes, frame_index)`` with at most one node; the same
    degenerate-split refusal applies (a lone child with no deeper work
    stays local, returning ``([], -1)``).
    """
    nodes, index = split_lowest_inlined(gens)
    if not nodes:
        return [], -1
    if len(nodes) > 1:
        gens[index] = ListNodeGenerator(nodes[1:])
    return [nodes[0]], index


class SearchTask:
    """Searches the subtree under ``root`` depth-first, lazily.

    ``root_depth`` is the root's depth in the *global* search tree; the
    Depth-Bounded cutoff is defined against global depth, so tasks must
    carry it.
    """

    __slots__ = (
        "spec",
        "stype",
        "policy",
        "params",
        "root",
        "root_depth",
        "stack",
        "backtracks",
        "_started",
        "_finished",
        "key",
        "_out",
    )

    def __init__(
        self,
        spec: SearchSpec,
        stype: SearchType,
        root: Any,
        *,
        policy: str = SEQ,
        params: Optional[SkeletonParams] = None,
        root_depth: int = 0,
        key: tuple = (),
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown coordination policy {policy!r}")
        self.spec = spec
        self.stype = stype
        self.policy = policy
        self.params = params if params is not None else SkeletonParams()
        self.root = root
        self.root_depth = root_depth
        self.key = key
        self.stack = GeneratorStack()
        self.backtracks = 0
        self._started = False
        self._finished = False
        self._out = StepOutcome()  # reused across steps (see StepOutcome)

    # -- public protocol ----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def current_depth(self) -> int:
        """Global depth of the node currently being explored (the top
        frame's node; frame depths are task-relative)."""
        if not self.stack:
            return self.root_depth
        return self.root_depth + self.stack.top().depth

    def step(self, knowledge: Any) -> tuple[Any, StepOutcome]:
        """Perform one reduction; returns updated knowledge and outcome.

        Exactly one of the semantics' step shapes happens per call:
        schedule-and-process the root, spawn (budget exhaustion or
        depth-bounded child), expand-and-process a child, or backtrack.
        """
        out = self._out
        out.reset()
        if self._finished:
            out.finished = True
            return knowledge, out

        if not self._started:
            return self._start(knowledge, out)

        # (spawn-budget): Listing 4 line 7 — check the budget before the
        # next traversal step, spawn the lowest unexplored subtrees and
        # reset the counter.
        if self.policy == BUDGET and self.backtracks >= self.params.budget:
            nodes, depth, keys = self.stack.split_lowest()
            self.backtracks = 0
            if nodes:
                gdepth = self.root_depth + depth
                out.spawned = [
                    SpawnedTask(n, gdepth, self.key + k)
                    for n, k in zip(nodes, keys)
                ]
                return knowledge, out

        if not self.stack:
            self._finished = True
            out.finished = True
            return knowledge, out

        frame = self.stack.top()
        if frame.gen.has_next():
            child, child_index = self.stack.next_from_top()
            child_depth = self.root_depth + frame.depth + 1
            # (spawn-depth): while the *parent* is above the cutoff,
            # children become tasks instead of being searched in place.
            # The child is left unprocessed; it is processed when its
            # task is scheduled, as in the semantics.  Ordered uses the
            # same rule; only its workpool discipline differs.
            if (
                self.policy in (DEPTH, ORDERED)
                and (self.root_depth + frame.depth) < self.params.d_cutoff
            ):
                key = self.key + self.stack.current_key() + (child_index,)
                out.spawned = [SpawnedTask(child, child_depth, key)]
                return knowledge, out
            return self._process_and_push(child, child_index, knowledge, out)

        # (backtrack)
        self.stack.pop()
        self.backtracks += 1
        out.backtracked = True
        if not self.stack:
            self._finished = True
            out.finished = True
        return knowledge, out

    def try_split(self, *, chunked: bool) -> list[SpawnedTask]:
        """(spawn-stack): give away unexplored subtrees nearest the root.

        Called by the scheduler when a steal request reaches this task's
        worker.  Returns one stolen node, or all nodes at the victim's
        lowest unexplored depth when ``chunked``; empty list if there is
        nothing to give.
        """
        if self._finished or not self._started:
            return []
        if chunked:
            nodes, depth, keys = self.stack.split_lowest()
            if not nodes:
                return []
            gdepth = self.root_depth + depth
            return [
                SpawnedTask(n, gdepth, self.key + k) for n, k in zip(nodes, keys)
            ]
        split = self.stack.split_one()
        if split is None:
            return []
        node, depth, key = split
        return [SpawnedTask(node, self.root_depth + depth, self.key + key)]

    # -- internals ------------------------------------------------------------

    def _start(self, knowledge: Any, out: StepOutcome) -> tuple[Any, StepOutcome]:
        """(schedule) + node-processing of the task root."""
        self._started = True
        knowledge, out.improved = self.stype.process(self.spec, self.root, knowledge)
        out.processed = True
        if self.spec.node_size is not None:
            out.weight = self.spec.node_size(self.root)
        if self.stype.is_goal(knowledge):
            out.goal = True
            self._finished = True
            out.finished = True
            return knowledge, out
        if self.stype.should_prune(self.spec, self.root, knowledge):
            # The whole task was invalidated (e.g. by a bound that
            # arrived since it was spawned): it dies without expansion.
            out.pruned = True
            self._finished = True
            out.finished = True
            return knowledge, out
        self.stack.push(self.root, self.spec.children_of(self.root))
        return knowledge, out

    def _process_and_push(
        self, child: Any, child_index: int, knowledge: Any, out: StepOutcome
    ) -> tuple[Any, StepOutcome]:
        """(expand) + node-processing, with the (prune) check."""
        knowledge, out.improved = self.stype.process(self.spec, child, knowledge)
        out.processed = True
        if self.spec.node_size is not None:
            out.weight = self.spec.node_size(child)
        if self.stype.is_goal(knowledge):
            out.goal = True
            self._finished = True
            out.finished = True
            return knowledge, out
        if self.stype.should_prune(self.spec, child, knowledge):
            out.pruned = True  # subtree under child abandoned before creation
            return knowledge, out
        self.stack.push(child, self.spec.children_of(child), index=child_index)
        return knowledge, out
