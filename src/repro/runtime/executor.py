"""The simulated cluster: workers, schedulers, and the run loop.

:class:`SimulatedCluster` executes one search (a :class:`SearchSpec` +
:class:`SearchType` + coordination policy) over a simulated topology and
returns a :class:`SearchResult` whose ``virtual_time`` is the simulated
makespan.  The scheduling behaviour follows §4.3:

- **Depth-Bounded / Budget** use per-locality order-preserving workpools;
  idle workers pop locally, then steal from a random remote locality's
  pool (charged the remote round trip).
- **Stack-Stealing** has no pools for victim work: idle workers send
  steal requests directly to a random *active* worker — local victims
  preferred, remote only when no local worker is active — and the victim
  answers at its next expansion step boundary (Listing 3 checks the
  steal channel once per step).  Chunked steals deliver every node at
  the victim's lowest unexplored depth; the thief runs the first and
  pools the rest.
- Incumbent updates flow through :class:`KnowledgeManager` with
  per-locality broadcast delay, so remote workers prune on stale bounds
  for a while — pruning timing (and hence anomalies) is part of the
  model.

Simplifications relative to a real cluster, none of which affect the
coordination behaviour being studied: remote pool steals resolve at
initiation time (no request/response race on pools), and worker wake-ups
are modelled as poll arrivals after the appropriate latency.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Optional

from repro.core.params import SkeletonParams
from repro.core.results import SearchMetrics, SearchResult
from repro.core.searchtypes import Incumbent, SearchType
from repro.core.sequential import sequential_search
from repro.core.skeletons import COORDINATIONS
from repro.core.space import SearchSpec
from repro.core.tasks import BUDGET, DEPTH, ORDERED, STACK, SearchTask, SpawnedTask
from repro.runtime.costmodel import CostModel
from repro.runtime.knowledge import KnowledgeManager
from repro.runtime.sim import Simulator
from repro.runtime.trace import Trace
from repro.runtime.topology import Topology
from repro.runtime.workpool import Workpool
from repro.util.rng import SplitMix64

__all__ = ["SimulatedCluster", "run_skeleton", "virtual_sequential_time"]

_PARALLEL_POLICIES = (DEPTH, BUDGET, STACK, ORDERED)


def run_skeleton(
    coordination: str,
    spec: SearchSpec,
    spec_factory: Any,
    factory_args: tuple,
    stype: SearchType,
    params: SkeletonParams,
) -> SearchResult:
    """The ``"sim"`` runner of :data:`repro.core.backends.BACKENDS`: a
    simulated cluster sized from ``params``, default cost model."""
    cluster = SimulatedCluster(
        Topology(params.localities, params.workers_per_locality)
    )
    return cluster.run(spec, stype, COORDINATIONS[coordination], params)


def virtual_sequential_time(
    spec: SearchSpec,
    stype: SearchType,
    cost: Optional[CostModel] = None,
    *,
    specialised: bool = False,
) -> tuple[float, SearchResult]:
    """Simulated-time cost of a sequential run (the speedup baseline).

    Runs the real sequential driver (so the tree explored is the true
    sequential tree) and prices its metrics under ``cost``.  With
    ``specialised`` the per-node framework overhead is dropped,
    modelling the hand-written baseline of Table 1.
    """
    cost = cost if cost is not None else CostModel()
    if specialised:
        cost = cost.specialised()
    result = sequential_search(spec, stype)
    m = result.metrics
    time = m.weighted_nodes * cost.per_node() + m.backtracks * cost.backtrack_cost
    return time, result


class _Worker:
    """Simulated worker state."""

    __slots__ = (
        "wid",
        "locality",
        "task",
        "acc",
        "metrics",
        "busy",
        "steal_requests",
        "retry_delay",
        "sleeping",
        "task_start",
        "task_nodes",
        "step_cb",
        "seek_cb",
    )

    def __init__(self, wid: int, locality: int, acc: Any) -> None:
        self.wid = wid
        self.locality = locality
        self.task: Optional[SearchTask] = None
        self.acc = acc  # enumeration accumulator (worker-local knowledge)
        self.metrics = SearchMetrics()
        self.busy = 0.0
        self.steal_requests: deque[int] = deque()
        self.retry_delay = 0.0
        self.sleeping = False
        self.task_start = 0.0  # trace bookkeeping
        self.task_nodes = 0
        # Per-worker event callbacks, bound once by the run (the event
        # loop fires one per step: allocating closures per step would
        # dominate the simulator's own overhead).
        self.step_cb = None
        self.seek_cb = None


class SimulatedCluster:
    """Executes searches over a simulated multi-locality cluster."""

    def __init__(
        self,
        topology: Topology,
        cost: Optional[CostModel] = None,
        *,
        pool_discipline: str = "order",
        max_events: int = 200_000_000,
        trace: bool = False,
    ) -> None:
        self.topology = topology
        self.cost = cost if cost is not None else CostModel()
        self.pool_discipline = pool_discipline
        self.max_events = max_events
        self.trace = trace

    # -- public entry -------------------------------------------------------

    def run(
        self,
        spec: SearchSpec,
        stype: SearchType,
        policy: str,
        params: Optional[SkeletonParams] = None,
    ) -> SearchResult:
        """Execute one search under ``policy`` and return its result."""
        if policy not in _PARALLEL_POLICIES:
            raise ValueError(
                f"policy {policy!r} does not run on the cluster; "
                "use sequential_search for the sequential skeleton"
            )
        run = _ClusterRun(self, spec, stype, policy, params or SkeletonParams())
        return run.execute()


class _ClusterRun:
    """State of a single simulated execution (fresh per run)."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        spec: SearchSpec,
        stype: SearchType,
        policy: str,
        params: SkeletonParams,
    ) -> None:
        self.cluster = cluster
        self.topology = cluster.topology
        self.cost = cluster.cost
        self.spec = spec
        self.stype = stype
        self.policy = policy
        self.params = params
        self.sim = Simulator()
        self.rng = SplitMix64(params.seed)
        self.enumeration = stype.kind == "enumeration"
        initial = stype.initial_knowledge(spec)
        zero = initial if self.enumeration else None
        self.workers = [
            _Worker(w, self.topology.locality_of(w), zero)
            for w in range(self.topology.total_workers)
        ]
        self.pools = [
            Workpool(cluster.pool_discipline) for _ in range(self.topology.localities)
        ]
        self.km = (
            None
            if self.enumeration
            else KnowledgeManager(
                stype, initial, self.topology, self.cost, self.sim, self._on_goal
            )
        )
        for w in self.workers:
            w.step_cb = partial(self._step, w)
            w.seek_cb = partial(self._seek, w)
        self.live_tasks = 0
        self.makespan: Optional[float] = None
        self.goal_reached = False
        self.trace = (
            Trace(workers=self.topology.total_workers) if cluster.trace else None
        )

    # -- lifecycle -----------------------------------------------------------

    def execute(self) -> SearchResult:
        root_task = self._make_task(self.spec.root, 0, ())
        self.live_tasks = 1
        if self.policy == STACK:
            # Work pushing bootstraps Stack-Stealing: the root goes
            # straight onto worker 0 (§4.2).
            self.workers[0].task = root_task
            self.workers[0].task_start = 0.0
            self.sim.at(0.0, self.workers[0].step_cb)
            for w in self.workers[1:]:
                self.sim.at(0.0, self._make_seek(w))
        else:
            self.pools[0].push(root_task, 0)
            for w in self.workers:
                self.sim.at(0.0, self._make_seek(w))
        self.sim.run(max_events=self.cluster.max_events)
        return self._result()

    def _result(self) -> SearchResult:
        metrics = SearchMetrics()
        busy = []
        for w in self.workers:
            metrics.merge(w.metrics)
            busy.append(w.busy)
        makespan = self.makespan if self.makespan is not None else self.sim.now
        if self.trace is not None:
            self.trace.makespan = makespan
        if self.enumeration:
            knowledge: Any = self.workers[0].acc
            for w in self.workers[1:]:
                knowledge = self.stype.combine(knowledge, w.acc)
        else:
            knowledge = self.km.global_best
            metrics.broadcasts = self.km.broadcasts
        return SearchResult.from_knowledge(
            self.stype, knowledge, self.goal_reached, metrics,
            None, len(self.workers),
            virtual_time=makespan, per_worker_busy=busy, trace=self.trace,
        )

    def _on_goal(self, knowledge: Incumbent) -> None:
        """(shortcircuit): a decision target was reached — stop everything."""
        if not self.goal_reached:
            self.goal_reached = True
            self.makespan = self.sim.now
            self.sim.stop()

    def _make_task(self, root: Any, depth: int, key: tuple = ()) -> SearchTask:
        return SearchTask(
            self.spec,
            self.stype,
            root,
            policy=self.policy,
            params=self.params,
            root_depth=depth,
            key=key,
        )

    # -- worker step ----------------------------------------------------------

    def _make_step(self, w: _Worker):
        """The worker's cached step callback (see _Worker.step_cb)."""
        return w.step_cb

    def _make_seek(self, w: _Worker):
        """The worker's cached seek callback (see _Worker.seek_cb)."""
        return w.seek_cb

    def _step(self, w: _Worker) -> None:
        if self.sim.stopped:
            return
        task = w.task
        if task is None:
            self._seek(w)
            return
        cost = 0.0
        # Listing 3 line 6: victims answer one steal request per
        # expansion step.
        if self.policy == STACK and w.steal_requests:
            cost += self._answer_steal(w)

        knowledge = w.acc if self.enumeration else self.km.view(w.locality)
        knowledge, out = task.step(knowledge)
        if self.enumeration:
            w.acc = knowledge
        elif out.improved:
            self.km.publish(w.locality, knowledge)
            if self.trace is not None:
                self.trace.record_improvement(self.sim.now, knowledge.value)

        if out.processed:
            w.metrics.nodes += 1
            w.metrics.weighted_nodes += out.weight
            w.task_nodes += 1
            cost += self.cost.per_node(out.weight)
        if out.backtracked:
            w.metrics.backtracks += 1
            cost += self.cost.backtrack_cost
        if out.pruned:
            w.metrics.prunes += 1
        if len(task.stack) > w.metrics.max_depth:
            w.metrics.max_depth = len(task.stack)
        if out.spawned:
            cost += self._spawn_all(w, out.spawned)
        w.busy += cost

        if out.goal:
            # Decision short-circuit observed at the worker (the publish
            # above also triggers _on_goal; both paths are idempotent).
            self._on_goal(knowledge)
            return
        if out.finished:
            # The finishing step itself takes `cost` time: the task is
            # complete at now + cost, and the makespan must cover it.
            end = self.sim.now + cost
            if self.trace is not None:
                self.trace.record_interval(w.wid, w.task_start, end, w.task_nodes)
            w.task = None
            self._drain_steal_requests(w)
            self._task_done(end)
            if not self.sim.stopped:
                self.sim.at(cost, self._make_seek(w))
            return
        self.sim.at(cost, self._make_step(w))

    def _pool_home(self, locality: int) -> int:
        """Which pool a worker on ``locality`` spawns to / pops from.

        Ordered keeps a single global rank-ordered pool (on locality 0);
        everything else uses per-locality pools.
        """
        return 0 if self.policy == ORDERED else locality

    def _push_task(self, sp: SpawnedTask, locality: int) -> None:
        home = self._pool_home(locality)
        task = self._make_task(sp.root, sp.depth, sp.key)
        rank = sp.key if self.policy == ORDERED else None
        self.pools[home].push(task, sp.depth, rank=rank)
        self.live_tasks += 1
        self._wake_for_pool(home)

    def _spawn_all(self, w: _Worker, spawned: list[SpawnedTask]) -> float:
        """Push spawned subtrees to the spawner's pool; wake sleepers."""
        cost = 0.0
        for sp in spawned:
            self._push_task(sp, w.locality)
            w.metrics.spawns += 1
            cost += self.cost.spawn_cost
        return cost

    def _task_done(self, end_time: float) -> None:
        self.live_tasks -= 1
        if self.live_tasks == 0:
            self.makespan = end_time
            self.sim.stop()

    # -- stack stealing ---------------------------------------------------------

    def _answer_steal(self, w: _Worker) -> float:
        """Victim side of (spawn-stack): split and reply to one thief."""
        thief = self.workers[w.steal_requests.popleft()]
        stolen = w.task.try_split(chunked=self.params.chunked) if w.task else []
        self.live_tasks += len(stolen)
        w.metrics.spawns += len(stolen)
        latency = self.cost.steal_latency(w.locality == thief.locality)
        self.sim.at(latency, self._make_delivery(thief, stolen))
        return self.cost.spawn_cost * max(1, len(stolen)) * 0.5

    def _drain_steal_requests(self, w: _Worker) -> None:
        """A victim whose task ended answers every waiting thief 'nothing'."""
        while w.steal_requests:
            thief = self.workers[w.steal_requests.popleft()]
            latency = self.cost.steal_latency(w.locality == thief.locality)
            self.sim.at(latency, self._make_delivery(thief, []))

    def _make_delivery(self, thief: _Worker, stolen: list[SpawnedTask]):
        return lambda: self._receive_steal(thief, stolen)

    def _receive_steal(self, thief: _Worker, stolen: list[SpawnedTask]) -> None:
        if self.sim.stopped:
            return
        if not stolen:
            thief.metrics.failed_steals += 1
            self._retry_seek(thief)
            return
        thief.metrics.steals += 1
        thief.retry_delay = 0.0
        first, rest = stolen[0], stolen[1:]
        for sp in rest:
            self.live_tasks -= 1  # _push_task re-counts it
            self._push_task(sp, thief.locality)
        if thief.task is None:
            thief.task = self._make_task(first.root, first.depth, first.key)
            thief.task_start = self.sim.now + self.cost.schedule_cost
            thief.task_nodes = 0
            thief.busy += self.cost.schedule_cost
            self.sim.at(self.cost.schedule_cost, self._make_step(thief))
            self._notify_task_started()
        else:
            # The thief found other work while the response was in
            # flight; bank the stolen subtree in its pool instead.
            self.live_tasks -= 1
            self._push_task(first, thief.locality)

    def _retry_seek(self, w: _Worker) -> None:
        """Exponential backoff between failed steal attempts."""
        if w.retry_delay <= 0:
            w.retry_delay = self.cost.steal_retry_backoff
        else:
            w.retry_delay = min(w.retry_delay * 2, self.cost.steal_retry_cap)
        self.sim.at(w.retry_delay, self._make_seek(w))

    # -- seeking work -------------------------------------------------------------

    def _seek(self, w: _Worker) -> None:
        if self.sim.stopped or w.task is not None:
            return
        w.sleeping = False
        home = self._pool_home(w.locality)
        task = self.pools[home].pop()
        if task is not None:
            delay = self.cost.schedule_cost
            if home != w.locality:
                # The global ordered pool lives on locality 0: remote
                # workers pay the round trip to claim a task.
                delay += 2 * self.cost.steal_latency_remote
            self._install(w, task, delay)
            return
        if self.policy == STACK:
            self._seek_victim(w)
        elif self.policy == ORDERED:
            self._sleep(w)  # single pool: nothing else to try
        else:
            self._seek_remote_pool(w)

    def _install(self, w: _Worker, task: SearchTask, delay: float) -> None:
        w.task = task
        w.task_start = self.sim.now + delay
        w.task_nodes = 0
        w.busy += self.cost.schedule_cost
        self.sim.at(delay, self._make_step(w))
        self._notify_task_started()

    def _seek_remote_pool(self, w: _Worker) -> None:
        """Distributed workpool steal: random remote locality with work."""
        candidates = [
            loc
            for loc in range(self.topology.localities)
            if loc != w.locality and self.pools[loc]
        ]
        if not candidates:
            self._sleep(w)
            return
        victim = candidates[self.rng.randrange(len(candidates))]
        task = self.pools[victim].pop()
        w.metrics.steals += 1
        # Round trip to the remote pool, then install.
        self._install(w, task, 2 * self.cost.steal_latency_remote + self.cost.schedule_cost)

    def _seek_victim(self, w: _Worker) -> None:
        """Stack-Stealing victim selection: random, local-first (§4.2)."""
        local = [
            v
            for v in self.workers
            if v.task is not None and v.locality == w.locality and v.wid != w.wid
        ]
        pool_victims = local
        if not pool_victims:
            pool_victims = [
                v for v in self.workers if v.task is not None and v.wid != w.wid
            ]
        if not pool_victims:
            self._sleep(w)
            return
        victim = pool_victims[self.rng.randrange(len(pool_victims))]
        latency = self.cost.steal_latency(victim.locality == w.locality)
        self.sim.at(latency, self._make_request(victim, w))

    def _make_request(self, victim: _Worker, thief: _Worker):
        def deliver() -> None:
            if self.sim.stopped:
                return
            if victim.task is None:
                # Victim already finished: immediate failure response.
                lat = self.cost.steal_latency(victim.locality == thief.locality)
                self.sim.at(lat, self._make_delivery(thief, []))
            else:
                victim.steal_requests.append(thief.wid)

        return deliver

    # -- sleeping / waking ------------------------------------------------------------

    def _sleep(self, w: _Worker) -> None:
        w.sleeping = True

    def _wake_for_pool(self, locality: int) -> None:
        """A task was pushed: wake one sleeper to claim it.

        Prefers a sleeper on the pushing locality (cheap poll), falling
        back to a remote sleeper whose poll arrives after the remote
        latency.
        """
        local = next(
            (
                v
                for v in self.workers
                if v.sleeping and v.locality == locality
            ),
            None,
        )
        if local is not None:
            local.sleeping = False
            self.sim.at(self.cost.steal_latency_local, self._make_seek(local))
            return
        remote = next((v for v in self.workers if v.sleeping), None)
        if remote is not None:
            remote.sleeping = False
            self.sim.at(self.cost.steal_latency_remote, self._make_seek(remote))

    def _notify_task_started(self) -> None:
        """Stack-Stealing: a new victim exists — wake sleeping thieves."""
        if self.policy != STACK:
            return
        for v in self.workers:
            if v.sleeping:
                v.sleeping = False
                self.sim.at(self.cost.steal_latency_local, self._make_seek(v))
