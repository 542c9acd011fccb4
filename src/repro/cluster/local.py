"""Self-contained localhost clusters: one call, N worker processes.

``cluster_search`` is the cluster counterpart of the
``multiprocessing_*_search`` family in
:mod:`repro.runtime.processes`: same arguments, same result contract,
but the work movement (pooled budget offcuts and stack-steal splits
handed to a starving peer, or ordered fixed-bound leases) happens over
real TCP sockets through an embedded
coordinator instead of through the process fleet's pipes.  It exists
so the ``backend="cluster"`` skeleton route (:func:`run_skeleton`, the
``"cluster"`` row of :data:`repro.core.backends.BACKENDS`), the tests
and the verify harness can exercise the genuine wire path without
shell choreography.

The topology it builds is a
:class:`~repro.deploy.deployment.ClusterDeployment`, the one owner of
a coordinator and its local worker processes::

    this process ── ClusterHandle (coordinator on a loop thread)
         │                 ▲ TCP (127.0.0.1, ephemeral port)
         └─ fork ──► worker process local-0..N-1 (ClusterWorker each)

Workers are sent away with RETIRE first and the SIGTERM -> SIGKILL
escalation as the backstop.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cluster import protocol as P
from repro.cluster.faults import CoordinatorFaults
from repro.core.backends import backend_for
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.searchtypes import SearchType
from repro.runtime.worker import JOB_KNOBS, job_knobs, stype_payload

__all__ = [
    "JOB_KNOBS",
    "job_knobs",
    "job_payload",
    "cluster_search",
    "run_skeleton",
]


def job_payload(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    *,
    coordination: str = "budget",
    budget: int = 1000,
    share_poll: int = 64,
    d_cutoff: int = 2,
    chunked: bool = True,
) -> dict:
    """Build the wire job definition for a search.

    The spec travels as an importable factory path plus plain arguments
    (pickling-free; every node rebuilds the spec locally), the search
    type as its ``(kind, kwargs)`` reduction — so the same stock-type
    restriction as the multiprocessing backend applies, with the same
    loud ValueError for custom types.  ``coordination`` picks the work
    movement: ``"depthbounded"`` (the coordinator's depth cut, never
    split again), ``"budget"`` (split on a cadence into the worker's own
    pool, shared on STEAL), ``"stacksteal"`` (split only on STEAL), or
    ``"ordered"`` (replicable fixed-bound tasks finalised by the
    coordinator's ledger); anything else is a ValueError naming the
    backends that do implement it.
    """
    backend_for("cluster", coordination)
    kind, kwargs = stype_payload(stype)
    return {
        "factory": P.factory_path(spec_factory),
        "factory_args": P.encode_node(list(factory_args)),
        "stype_kind": kind,
        "stype_kwargs": kwargs,
        "coordination": coordination,
        "budget": int(budget),
        "share_poll": int(share_poll),
        "d_cutoff": int(d_cutoff),
        "chunked": bool(chunked),
    }


def cluster_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    *,
    coordination: str = "budget",
    n_workers: int = 2,
    timeout: Optional[float] = None,
    heartbeat_interval: float = 0.5,
    heartbeat_timeout: float = 5.0,
    worker_join_timeout: float = 20.0,
    wire_codec: str = "binary",
    fault_plan: Optional[dict] = None,
    **knobs: Any,
) -> SearchResult:
    """One search over an embedded coordinator + N local workers.

    Spins the topology up, runs one job, drains it down.  ``knobs``
    (``budget``, ``share_poll``, ``d_cutoff``, ``chunked``) go to
    :func:`job_payload`.  Raises the coordinator's
    :class:`~repro.cluster.coordinator.ClusterError` family on
    timeout/failure; returns the same :class:`SearchResult` shape as
    every other backend (``metrics.reassigned`` > 0 means the run
    survived a worker failure — or, for ordered jobs, counted
    bound-mismatch re-runs).

    ``fault_plan`` is an optional chaos schedule — a dict with an
    ``events`` list (see :mod:`repro.cluster.faults`): partition events
    arm the coordinator, the rest ride into the matching worker process
    (workers are named ``local-0 .. local-{N-1}``).  Chaos runs should
    also tighten ``heartbeat_interval``/``heartbeat_timeout`` so
    re-leases happen within test budgets.
    """
    from repro.deploy import ClusterDeployment, WorkerSpec

    if n_workers < 1:
        raise ValueError("need at least one cluster worker")
    payload = job_payload(
        spec_factory, factory_args, stype, coordination=coordination, **knobs
    )
    events = tuple((fault_plan or {}).get("events", ()))
    with ClusterDeployment(
        WorkerSpec(
            name_prefix="local", give_up_after=15.0, wire_codec=wire_codec,
            chaos_events=events or None,
        ),
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        wire_codec=wire_codec,
        coordinator_faults=CoordinatorFaults(events) if events else None,
    ) as cluster:
        cluster.fork(n_workers)
        cluster.wait_for_workers(n_workers, timeout=worker_join_timeout)
        return cluster.run_job(payload, timeout=timeout)


def run_skeleton(
    coordination: str,
    spec: Any,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    params: SkeletonParams,
) -> SearchResult:
    """The ``"cluster"`` runner of :data:`repro.core.backends.BACKENDS`:
    one :func:`cluster_search` over ``params.cluster_workers`` workers."""
    return cluster_search(
        spec_factory,
        factory_args,
        stype,
        coordination=coordination,
        n_workers=params.cluster_workers,
        wire_codec=params.wire_codec,
        **job_knobs(params),
    )
