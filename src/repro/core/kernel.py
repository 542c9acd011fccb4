"""The search kernel: the one expand/process/prune/backtrack loop.

:func:`search_subtree` is Listing 2 over a plain list of node
generators — with children priced from per-frame columns before they
are built when the spec declares those, and a frame's last one or two
levels counted from its ``leaves`` or ``sizes`` promise without a
child built — and every runtime that searches a subtree for real
calls it:
the Sequential skeleton, the Ordered task runner, the process workers of
all four coordinations, the cluster worker and the in-process service
backend.  A coordination never changes how the tree is traversed, only
*when subtrees are given away* (Figure 2 keeps the spawn rules apart
from the traversal rules), so everything a runtime adds lives in two
callbacks:

- ``on_poll(stack)`` runs every ``poll`` nodes with the live generator
  stack.  It may split the stack in place
  (:func:`~repro.core.tasks.split_lowest_inlined`) and ship the offcuts
  wherever its runtime keeps work, and it returns the pruning bound as
  last heard from the other workers, or None.
- ``on_improve(knowledge)`` runs on every strengthening of the
  incumbent, before the goal check, so a witness is published before
  the search that found it stops.

A caller that wants out — a goal found elsewhere, JOB_DONE, a cancelled
job, a deadline, an overtaken bound — raises from a callback.  The
exception passes through untouched, so the kernel has no abort protocol,
and the counters of a subtree abandoned that way are reported nowhere.

The resumable :class:`~repro.core.tasks.SearchTask` machine walks the
same tree one reduction per call and shares no code with this module;
the simulator runs on it, and the conformance harness uses it as the
oracle this loop is judged against.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Optional

from repro.core.nodegen import ColumnListGenerator
from repro.core.results import SearchMetrics
from repro.core.searchtypes import Decision, Enumeration, Incumbent, Optimisation, SearchType
from repro.core.space import SearchSpec

__all__ = ["search_subtree"]


def search_subtree(
    spec: SearchSpec,
    stype: SearchType,
    root: Any,
    root_depth: int,
    knowledge: Any,
    *,
    poll: int = 0,
    on_poll: Optional[Callable[[list], Optional[int]]] = None,
    on_improve: Optional[Callable[[Any], None]] = None,
) -> tuple[Any, bool, SearchMetrics]:
    """Search the subtree under ``root`` depth-first from ``knowledge``.

    ``root_depth`` is the root's depth in the whole tree (``max_depth``
    is reported against it).  Returns ``(knowledge, goal, metrics)``:
    the knowledge after the last node processed, whether a decision
    target was reached, and the ``nodes`` / ``weighted_nodes`` /
    ``prunes`` / ``backtracks`` / ``max_depth`` of this subtree alone.

    The goal is tested on the knowledge once the root has been
    processed, improved or not — a task handed a knowledge that already
    meets the target stops after one node — and from then on after every
    improvement.  A bound from ``on_poll`` above the current value
    replaces the knowledge with a witness-less ``Incumbent(bound, None)``:
    stale or fresh, it can only remove nodes.  A returned incumbent
    whose ``node`` is None therefore means nothing in this subtree beat
    what the caller or its peers already had.

    The loop is chosen once per call from what the spec declares and
    the exact type of ``stype``; there is nothing to configure.  A spec
    with ``columns`` and no ``node_size`` takes a column loop, one per
    search kind, which reads each child's objective from the frame's
    ``values`` and never calls ``spec.objective`` on a child:
    default-monoid Enumeration folds ``values[i]``, builds a child only
    to expand it, counts the rest of a ``leaves`` frame in one step and
    a ``sizes`` frame's children whole, each with its leaves;
    Optimisation and Decision compare ``values[i]`` and ``bounds[i]``
    with the incumbent and build a child only to crown or expand it.
    Any other spec, any other search type (custom monoids, subclasses)
    and ``node_size`` get Listing 2 as written over ``spec.generator``.
    Every loop visits the same nodes in the same order, hands
    ``on_poll`` a stack of has_next/next frames at the same node counts
    and reports the same counters.
    """
    process = stype.process
    is_goal = stype.is_goal
    prunes_at_all = type(stype).should_prune is not SearchType.should_prune
    should_prune = stype.should_prune if prunes_at_all and spec.can_prune else None
    generator = spec.generator
    space = spec.space
    node_size = spec.node_size
    metrics = SearchMetrics(nodes=1, weighted_nodes=1)

    knowledge, improved = process(spec, root, knowledge)
    if node_size is not None:
        metrics.weighted_nodes = node_size(root)
    if improved and on_improve is not None:
        on_improve(knowledge)
    if is_goal(knowledge):
        return knowledge, True, metrics
    if should_prune is not None and should_prune(spec, root, knowledge):
        metrics.prunes = 1
        return knowledge, False, metrics

    nodes = 1
    weighted = metrics.weighted_nodes
    prunes = backtracks = 0
    deepest = 1
    goal = False
    # ``nodes`` counts the root, so the first poll falls after ``poll``
    # children; 0 is a count ``nodes`` never returns to.
    next_poll = poll + 1 if on_poll is not None and poll > 0 else 0

    kind = type(stype)
    columns = spec.columns if node_size is None else None
    enumerating = kind is Enumeration and stype.is_default
    if columns is None or not (enumerating or kind is Optimisation or kind is Decision):
        # Listing 2: one has_next/next pair and one process call per child.
        stack = [generator(space, root)]
        while stack:
            gen = stack[-1]
            if gen.has_next():
                child = gen.next()
                knowledge, improved = process(spec, child, knowledge)
                nodes += 1
                if node_size is not None:
                    weighted += node_size(child)
                if improved:
                    if on_improve is not None:
                        on_improve(knowledge)
                    if is_goal(knowledge):
                        goal = True
                        break
                if should_prune is not None and should_prune(spec, child, knowledge):
                    prunes += 1
                else:
                    stack.append(generator(space, child))
                    if len(stack) > deepest:
                        deepest = len(stack)
                if nodes == next_poll:
                    next_poll += poll
                    bound = on_poll(stack)
                    if bound is not None and bound > knowledge.value:
                        knowledge = Incumbent(bound, None)
            else:
                stack.pop()
                backtracks += 1
    elif enumerating:
        # Default-monoid Enumeration: nothing improves, is a goal or is
        # pruned, so a child is built only to be expanded, and a
        # ``leaves`` frame's children are counted from ``values`` in one
        # step that stops at the next poll node — inline, without a push,
        # unless that node comes before the last of them.  A ``sizes``
        # frame is counted the same way two levels deep, inline unless
        # the poll node falls in it, and then child by child up to the
        # child whose subtree holds it, which is built.  Both column
        # loops count a childless child as the frame it would have been
        # (one backtrack, one level of depth), and load the top frame's
        # columns and position at the head of the outer loop: after a
        # pop, and after ``on_poll`` (told the position first), which
        # may drain or replace any frame; ``build`` keeps ``pos`` right.
        stack = [columns(space, root)]
        while stack:
            frame = stack[-1]
            try:
                values = frame.values
            except AttributeError:  # a split helper left a plain frame
                frame = stack[-1] = _with_columns(spec, frame)
                values = frame.values
            i, n = frame.pos, len(values)
            if i == n:
                stack.pop()
                backtracks += 1
            elif frame.leaves:
                j = n
                if next_poll and next_poll - nodes < n - i:
                    j = i + next_poll - nodes
                knowledge += sum(values[i:j])
                nodes += j - i
                backtracks += j - i
                if len(stack) >= deepest:
                    deepest = len(stack) + 1
                frame.pos = j
                if nodes == next_poll:
                    next_poll += poll
                    on_poll(stack)
            else:
                sizes = frame.sizes
                if sizes is not None:
                    # Child k and its sizes[k] leaves are counted whole,
                    # up to the child whose subtree holds the next poll
                    # node before its last node: the loop below builds
                    # that one and pushes its ``leaves`` frame.
                    j = n
                    if next_poll:
                        left = next_poll - nodes
                        j = i
                        while j < n and sizes[j] < left:
                            left -= sizes[j] + 1
                            j += 1
                    if j > i:
                        below = sum(sizes[i:j])
                        knowledge += sum(values[i:j]) + sum(frame.sums[i:j])
                        nodes += j - i + below
                        backtracks += j - i + below
                        if len(stack) + (2 if below else 1) > deepest:
                            deepest = len(stack) + (2 if below else 1)
                        frame.pos = i = j
                        if nodes == next_poll:
                            next_poll += poll
                            on_poll(stack)
                            continue
                while i < n:
                    knowledge += values[i]
                    nodes += 1
                    child = frame.build(i)
                    i += 1
                    grand = columns(space, child)
                    m = len(grand.values)
                    if not m:
                        backtracks += 1
                        if len(stack) >= deepest:
                            deepest = len(stack) + 1
                    elif grand.leaves and (not next_poll or nodes + m <= next_poll):
                        knowledge += sum(grand.values)
                        nodes += m
                        backtracks += m + 1
                        if len(stack) + 2 > deepest:
                            deepest = len(stack) + 2
                    elif grand.sizes is not None and (
                        not next_poll or nodes + m + sum(grand.sizes) < next_poll
                    ):
                        below = sum(grand.sizes)
                        knowledge += sum(grand.values) + sum(grand.sums)
                        nodes += m + below
                        backtracks += m + below + 1
                        if len(stack) + (3 if below else 2) > deepest:
                            deepest = len(stack) + (3 if below else 2)
                    else:
                        stack.append(grand)
                        if len(stack) > deepest:
                            deepest = len(stack)
                        # A ``leaves`` or ``sizes`` frame comes here only
                        # with a poll inside it: n = 0 leaves the count
                        # to the outer loop, which stops at the poll.
                        frame, values, i = grand, grand.values, 0
                        n = 0 if grand.leaves or grand.sizes is not None else m
                    if nodes == next_poll:
                        next_poll += poll
                        frame.pos = i
                        on_poll(stack)
                        break
    else:
        # Optimisation, and Decision with its bounded order {0..target}.
        # A child is counted, crowned and pruned from the frame's two
        # columns, and built only for ``on_improve`` or to be expanded.
        target = stype.target if kind is Decision else None
        best = knowledge.value
        stack = [columns(space, root)]
        while stack:
            frame = stack[-1]
            try:
                values = frame.values
            except AttributeError:  # a split helper left a plain frame
                frame = stack[-1] = _with_columns(spec, frame)
                values = frame.values
            bounds, i, n = frame.bounds, frame.pos, len(values)
            while i < n:
                value = values[i]
                nodes += 1
                child = None
                if value > best:
                    if target is not None and value > target:
                        value = target
                    if value > best:
                        best = value
                        child = frame.build(i)
                        knowledge = Incumbent(value, child)
                        if on_improve is not None:
                            on_improve(knowledge)
                        if target is not None and value >= target:
                            goal = True
                            break
                limit = bounds[i]
                if limit <= best or (target is not None and limit < target):
                    prunes += 1
                    i += 1
                else:
                    if child is None:
                        child = frame.build(i)
                    i += 1
                    grand = columns(space, child)
                    if grand.values:
                        stack.append(grand)
                        frame = grand
                        values, bounds, i, n = grand.values, grand.bounds, 0, len(grand.values)
                        if len(stack) > deepest:
                            deepest = len(stack)
                    else:
                        backtracks += 1
                        if len(stack) >= deepest:
                            deepest = len(stack) + 1
                if nodes == next_poll:
                    next_poll += poll
                    frame.pos = i
                    bound = on_poll(stack)
                    if bound is not None and bound > best:
                        best = bound
                        knowledge = Incumbent(bound, None)
                    break
            else:
                stack.pop()
                backtracks += 1
                continue
            if goal:
                break

    metrics.nodes = nodes
    metrics.weighted_nodes = weighted if node_size is not None else nodes
    metrics.prunes = prunes
    metrics.backtracks = backtracks
    metrics.max_depth = root_depth + deepest
    return knowledge, goal, metrics


def _with_columns(spec: SearchSpec, frame: Any) -> ColumnListGenerator:
    """The rest of a plain frame ``on_poll`` left in the stack (a split
    helper's lone-child refusal or remainder), with the columns the
    kernel's loops read filled from the spec."""
    kids = frame.drain()
    bound = spec.upper_bound or (lambda space, kid: inf)
    return ColumnListGenerator(
        kids, [spec.objective(kid) for kid in kids], [bound(spec.space, kid) for kid in kids]
    )
