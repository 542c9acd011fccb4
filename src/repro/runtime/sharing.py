"""The Budget and Stack-Stealing coordinations, written once.

A sharing worker of either real runtime holds a *lease*: the sibling
subtrees it was handed in one go, and every subtree it splits off and
searches itself before it asks for more.  :func:`execute_lease` is
everything between "a hand-over arrives" and "the lease is over", the
counterpart for these two
coordinations of :func:`repro.core.ordered.execute_run`, and like it
transport-free: the one worker of both runtimes
(:class:`repro.runtime.worker.Worker`) calls it, and its two
transports differ only in the callbacks — a shared integer and a queue
on one side, INCUMBENT, STEAL, STOLEN and OFFCUT frames on the other.

*When the live stack is split* is what tells the coordinations apart;
the traversal is the search kernel's
(:func:`~repro.core.kernel.search_subtree`) for all of them, and so is
what happens to the offcuts: they go into the holder's own
order-preserving pool (:class:`~repro.runtime.workpool.Workpool`, the
per-locality pool of §4.3), where the roots a lease arrived with
beyond its first already are.  When the subtree in hand ends the next
one is popped — deepest level first, spawn order within it, the order
the sequential search would reach them in.  A subtree leaves only when
somebody wants it: a starving peer gets *half* of the level of the pool
nearest the root (§4.2: steal near the root; every other node from the
first, so both sides keep big and small subtrees, and a lone node goes
whole) in one ``ship``, which the transports carry to it as one lease;
a holder told to flush hands over every level.

- **Budget** (``budget`` is a node count, Listing 4 with nodes as the
  unit): every ``budget`` nodes of a subtree the lowest frame of the
  stack is split into the pool, and every subtree starts with a fresh
  budget counter.
- **Stack-Stealing** (``budget`` is None): no cadence.  The stack is
  split only while a peer is starving and the pool has nothing for it —
  its lowest frame when ``chunked``, one node otherwise.  A stack with
  nothing to give ships the empty list: that is the answer "nothing to
  give".

A Depth-Bounded run, whose driver did all the splitting, is one lease
of the run's roots that nobody asks to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.kernel import search_subtree
from repro.core.results import SearchMetrics
from repro.core.searchtypes import Incumbent, SearchType
from repro.core.space import SearchSpec
from repro.core.tasks import split_lowest_inlined, split_one_inlined
from repro.runtime.workpool import Workpool

__all__ = ["FLUSH", "LeaseOutcome", "execute_lease"]

# What ``demand()`` may answer beyond a plain truth value: hand over
# every pooled subtree, not just the level a starving peer would get.
FLUSH = 2


class _Abandoned(Exception):
    """Raised out of the kernel's poll hook when ``should_abort()``
    answers True; :func:`execute_lease` turns it into an outcome."""


@dataclass
class LeaseOutcome:
    """What one lease amounted to.

    ``knowledge`` is the accumulator after the last subtree finished
    (enumeration), or the best incumbent the caller's ``knowledge`` and
    this lease hold between them, witness included.  ``metrics`` sums
    the subtrees that ran to their end, with ``spawns`` the subtrees
    split off a live stack here (each counted once, wherever it is then
    searched).  An ``abandoned`` lease stopped at ``should_abort()``:
    the subtree in hand at that moment is counted nowhere, everything
    before it is.
    """

    knowledge: Any
    goal: bool = False
    abandoned: bool = False
    metrics: SearchMetrics = field(default_factory=SearchMetrics)


def execute_lease(
    spec: SearchSpec,
    stype: SearchType,
    roots: list,
    root_depth: int,
    knowledge: Any,
    pool: Workpool,
    *,
    budget: Optional[int],
    chunked: bool = True,
    poll: int = 64,
    demand: Callable[[], int],
    ship: Callable[[list, int], None],
    bound: Callable[[], int],
    publish: Callable[[Incumbent], None],
    should_abort: Callable[[], bool],
    on_subtree: Optional[Callable[[], None]] = None,
) -> LeaseOutcome:
    """Search the subtrees under ``roots`` — siblings, all at
    ``root_depth``, in the heuristic's order; one of them is the usual
    case — and everything pooled from them.

    The first root is searched at once and the others wait in ``pool``,
    the holder's ``Workpool("depth")``: empty on entry and — unless the
    lease is abandoned — on return; it is the caller's so that the
    caller can report its length while the lease runs.  The runtime is
    reached only through the callbacks, its transport's methods:

    - ``demand()`` — is anybody waiting for work?  Falsy: no.  Truthy: a
      peer is starving, give it one hand-over.  :data:`FLUSH`: the
      holder is leaving, hand over the whole pool.  Asked every ``poll``
      nodes and between subtrees (a subtree shorter than ``poll`` nodes
      never reaches the hook), and for Budget only while the pool holds
      something.
    - ``ship(nodes, depth)`` — these subtree roots, all at ``depth``,
      now belong to somebody else: one hand-over.  One call per level
      of a flushed pool.
    - ``bound()`` — the best objective any worker has published, as last
      heard; every subtree is seeded from it and the kernel refreshes
      it every ``poll`` nodes.  Never called for an enumeration.
    - ``publish(incumbent)`` — a strict improvement found here.
    - ``should_abort()`` — True to abandon the lease now: asked every
      ``poll`` nodes and before each pooled subtree.
    - ``on_subtree()`` — optional; runs before each subtree popped from
      the pool is started.
    """
    enum = stype.kind == "enumeration"
    pooled = budget is not None
    split = split_lowest_inlined if pooled or chunked else split_one_inlined
    out = LeaseOutcome(knowledge)
    total = out.metrics
    best = knowledge  # incumbent types: never replaced by a bare bound
    since_trip = 0  # counted in poll quanta, drives the budget trips
    root = roots[0]
    for node in roots[1:]:
        pool.push((node, root_depth), root_depth)

    def offer() -> None:
        wanted = demand()
        while wanted and pool:
            level = pool.pop_shallowest()
            depth = level[0][1]
            if wanted != FLUSH:
                # Steal half, rounded up: the holder has the subtree in
                # hand besides, and the thief can start the first now.
                for task in level[1::2]:
                    pool.push(task, depth)
                level = level[::2]
            ship([node for node, _ in level], depth)
            if wanted != FLUSH:
                return

    def spill(stack: list) -> int:
        """Split the live stack into the pool; how many subtrees."""
        offcuts, frame_index = split(stack)
        depth = root_depth + frame_index + 1
        for node in offcuts:
            pool.push((node, depth), depth)
        total.spawns += len(offcuts)
        return len(offcuts)

    def on_poll(stack: list) -> Optional[int]:
        nonlocal since_trip
        if should_abort():
            raise _Abandoned
        if pooled:
            since_trip += poll
            if since_trip >= budget:
                since_trip = 0
                spill(stack)
        elif not pool and demand() and not spill(stack):
            ship([], root_depth)
        if pool:
            offer()
        return None if enum else bound()

    def on_improve(found: Incumbent) -> None:
        nonlocal best
        best = found
        publish(found)

    try:
        while True:
            if enum:
                start = out.knowledge
            else:
                # Prune from the best anyone has published; its witness
                # lives with its finder, and pruning only compares values.
                heard = bound()
                start = best if best.value >= heard else Incumbent(heard, None)
            after, out.goal, m = search_subtree(
                spec, stype, root, root_depth, start,
                poll=poll, on_poll=on_poll, on_improve=on_improve,
            )
            total.merge(m)
            if enum:
                out.knowledge = after
            if out.goal:
                break
            if pool:
                offer()
            task = pool.pop()
            if task is None:
                break
            if should_abort():
                raise _Abandoned
            if on_subtree is not None:
                on_subtree()
            root, root_depth = task
            since_trip = 0
    except _Abandoned:
        out.abandoned = True
    if not enum:
        out.knowledge = best
    return out
