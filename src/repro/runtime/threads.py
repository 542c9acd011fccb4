"""Real shared-memory execution with Python threads.

The simulator (:mod:`repro.runtime.executor`) is the primary engine for
*studying* coordination behaviour; this module is the pragmatic engine
for *using* the skeletons on a real machine: a Depth-Bounded run over a
``concurrent.futures`` thread pool with a lock-protected shared
incumbent.

GIL caveat (and why this backend is Depth-Bounded only): CPython runs
one thread's bytecode at a time, so pure-Python node processing gains
no wall-clock speedup from threads — fine-grained coordinations like
Stack-Stealing would only add locking overhead (this is the repro
band's "GIL cripples fine-grained parallel tree search").  Coarse
Depth-Bounded tasks still benefit when node evaluation releases the GIL
(numpy/scipy bound functions, C extensions), and the backend is the
honest way to demonstrate the skeleton API on real threads.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.params import SkeletonParams
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import SearchType
from repro.core.space import SearchSpec
from repro.core.tasks import SEQ, SearchTask, SpawnedTask

__all__ = ["threaded_depthbounded_search"]


class _SharedKnowledge:
    """Lock-protected incumbent (or per-task accumulators for enumeration)."""

    def __init__(self, stype: SearchType, spec: SearchSpec) -> None:
        self.stype = stype
        self.lock = threading.Lock()
        self.value = stype.initial_knowledge(spec)  # guarded-by: lock
        self.goal = threading.Event()

    def read(self):
        with self.lock:
            return self.value

    def merge(self, knowledge) -> None:
        with self.lock:
            self.value = self.stype.combine(self.value, knowledge)
            if self.stype.is_goal(self.value):
                self.goal.set()


def _expand_roots(
    spec: SearchSpec, stype: SearchType, d_cutoff: int
) -> tuple[list[SpawnedTask], SearchMetrics, object]:
    """Sequentially split off every subtree at the cutoff depth.

    Runs the same Depth-Bounded task the simulator runs, but drains it
    in-line; the returned spawned list is the parallel workload.
    """
    params = SkeletonParams(d_cutoff=d_cutoff)
    task = SearchTask(spec, stype, spec.root, policy="depth", params=params)
    knowledge = stype.initial_knowledge(spec)
    spawned: list[SpawnedTask] = []
    metrics = SearchMetrics()
    while not task.finished:
        knowledge, out = task.step(knowledge)
        metrics.nodes += int(out.processed)
        metrics.weighted_nodes += out.weight if out.processed else 0
        metrics.prunes += int(out.pruned)
        metrics.backtracks += int(out.backtracked)
        spawned.extend(out.spawned)
        metrics.spawns += len(out.spawned)
        if out.goal:
            break
    return spawned, metrics, knowledge


def _run_subtree(
    spec: SearchSpec,
    stype: SearchType,
    spawn: SpawnedTask,
    shared: _SharedKnowledge,
) -> SearchMetrics:
    """One worker task: search a subtree sequentially, syncing knowledge.

    The shared incumbent is re-read every ``sync_every`` steps — the
    thread-pool analogue of the simulator's delayed bound broadcast.
    """
    task = SearchTask(
        spec, stype, spawn.root, policy=SEQ, root_depth=spawn.depth
    )
    metrics = SearchMetrics()
    # Enumeration folds a fresh local accumulator (merged at the end);
    # optimisation/decision start from the current shared incumbent.
    if stype.kind == "enumeration":
        knowledge = stype.initial_knowledge(spec)
    else:
        knowledge = shared.read()
    steps = 0
    while not task.finished and not shared.goal.is_set():
        knowledge, out = task.step(knowledge)
        metrics.nodes += int(out.processed)
        metrics.weighted_nodes += out.weight if out.processed else 0
        metrics.prunes += int(out.pruned)
        metrics.backtracks += int(out.backtracked)
        if out.improved or out.goal:
            shared.merge(knowledge)
        steps += 1
        if steps % 64 == 0 and stype.kind != "enumeration":
            knowledge = stype.combine(knowledge, shared.read())
    if stype.kind == "enumeration":
        shared.merge(knowledge)
    return metrics


def threaded_depthbounded_search(
    spec: SearchSpec,
    stype: SearchType,
    *,
    n_threads: int = 4,
    d_cutoff: int = 2,
) -> SearchResult:
    """Depth-Bounded search over a real thread pool.

    Semantically identical to the simulated Depth-Bounded skeleton;
    see the module docstring for when it actually helps wall time.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    started = time.perf_counter()
    shared = _SharedKnowledge(stype, spec)
    spawned, metrics, root_knowledge = _expand_roots(spec, stype, d_cutoff)
    shared.merge(root_knowledge)

    if spawned and not shared.goal.is_set():
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for worker_metrics in pool.map(
                lambda sp: _run_subtree(spec, stype, sp, shared), spawned
            ):
                metrics.merge(worker_metrics)
    return SearchResult.from_knowledge(
        stype, shared.read(), shared.goal.is_set(), metrics,
        time.perf_counter() - started, n_threads,
    )
