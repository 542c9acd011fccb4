"""Sequential search coordination (Listing 2).

A single worker performs the depth-first traversal from the root node
with no spawn rules — the reference against which every parallel
skeleton's speedup is measured.

Two drivers are provided:

- :func:`sequential_search` — the production path: one call of the
  search kernel (:func:`repro.core.kernel.search_subtree`) on the root,
  with no callbacks.  This is what the Sequential skeleton runs, and
  what Table 1 times against the hand-specialised solver.
- :func:`sequential_search_stepped` — the same search driven through
  the resumable :class:`SearchTask` state machine the simulator uses.
  Slower, and structurally independent of the kernel: it is the oracle
  of the conformance harness (docs/verify.md), and the equivalence tests
  (`tests/core/test_kernel.py`) pin both drivers to identical results
  and metrics, which is what licenses the simulator's claim to explore
  the real tree.
"""

from __future__ import annotations

import time

from repro.core.kernel import search_subtree
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import SearchType
from repro.core.space import SearchSpec
from repro.core.tasks import SEQ, SearchTask

__all__ = ["sequential_search", "sequential_search_stepped"]


def sequential_search(spec: SearchSpec, stype: SearchType) -> SearchResult:
    """Run a complete sequential search of ``spec`` under ``stype``."""
    started = time.perf_counter()
    knowledge, goal, metrics = search_subtree(
        spec, stype, spec.root, 0, stype.initial_knowledge(spec)
    )
    return SearchResult.from_knowledge(
        stype, knowledge, goal, metrics, time.perf_counter() - started, 1
    )


def sequential_search_stepped(spec: SearchSpec, stype: SearchType) -> SearchResult:
    """The same search, driven through the SearchTask state machine."""
    task = SearchTask(spec, stype, spec.root, policy=SEQ)
    knowledge = stype.initial_knowledge(spec)
    metrics = SearchMetrics()
    started = time.perf_counter()
    goal = False
    while not task.finished:
        knowledge, out = task.step(knowledge)
        if out.processed:
            metrics.nodes += 1
            metrics.weighted_nodes += out.weight
        if out.pruned:
            metrics.prunes += 1
        if out.backtracked:
            metrics.backtracks += 1
        if len(task.stack) > metrics.max_depth:
            metrics.max_depth = len(task.stack)
        if out.goal:
            goal = True
            break
    return SearchResult.from_knowledge(
        stype, knowledge, goal, metrics, time.perf_counter() - started, 1
    )
