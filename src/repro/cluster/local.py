"""Self-contained localhost clusters: one call, N worker processes.

``cluster_search`` is the cluster counterpart of the
``multiprocessing_*_search`` family in
:mod:`repro.runtime.processes`: same arguments, same result contract,
but the work movement (pooled budget offcuts and stack-steal splits
handed to a starving peer, or ordered fixed-bound leases) happens over
real TCP sockets through an embedded
coordinator instead of through ``multiprocessing`` queues.  It exists
so the ``backend="cluster"`` skeleton route, the tests and the scaling
benchmark can exercise the genuine wire path without shell
choreography.

The topology it builds::

    this process ── ClusterHandle (coordinator on a loop thread)
         │                 ▲ TCP (127.0.0.1, ephemeral port)
         └─ fork ──► worker process 1..N (ClusterWorker each)

Workers are stopped with a SHUTDOWN drain first and the
SIGTERM -> SIGKILL escalation as the backstop.
"""

from __future__ import annotations

from multiprocessing import Process
from typing import Any, Callable, Optional

from repro.cluster import protocol as P
from repro.cluster.coordinator import ClusterHandle
from repro.cluster.faults import CoordinatorFaults
from repro.cluster.worker import _worker_process_main
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.searchtypes import SearchType
from repro.runtime.processes import _stype_payload, graceful_stop

__all__ = [
    "job_payload",
    "cluster_search",
    "cluster_budget_search",
    "run_with_cluster",
]

CLUSTER_COORDINATIONS = ("budget", "stacksteal", "ordered")


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
    movement: ``"budget"`` (split on a cadence into the worker's own
    pool, shared on STEAL), ``"stacksteal"`` (split only on STEAL), or
    ``"ordered"`` (replicable fixed-bound tasks finalised by the
    coordinator's ledger).
    """
    if coordination not in CLUSTER_COORDINATIONS:
        raise ValueError(
            f"the cluster backend implements {CLUSTER_COORDINATIONS}, "
            f"not {coordination!r}"
        )
    kind, kwargs = _stype_payload(stype)
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
    budget: int = 1000,
    share_poll: int = 64,
    d_cutoff: int = 2,
    chunked: bool = True,
    timeout: Optional[float] = None,
    heartbeat_interval: float = 0.5,
    heartbeat_timeout: float = 5.0,
    worker_join_timeout: float = 20.0,
    wire_codec: str = "binary",
    fault_plan: Optional[dict] = None,
) -> SearchResult:
    """One search over an embedded coordinator + N local workers.

    Spins the topology up, runs one job, drains it down.  Raises the
    coordinator's :class:`~repro.cluster.coordinator.ClusterError`
    family on timeout/failure; returns the same :class:`SearchResult`
    shape as every other backend (``metrics.reassigned`` > 0 means the
    run survived a worker failure — or, for ordered jobs, counted
    bound-mismatch re-runs).

    ``fault_plan`` is an optional chaos schedule — a dict with an
    ``events`` list (see :mod:`repro.cluster.faults`): partition events
    arm the coordinator, the rest ride into the matching worker process
    (workers are named ``local-0 .. local-{N-1}``).  Chaos runs should
    also tighten ``heartbeat_interval``/``heartbeat_timeout`` so
    re-leases happen within test budgets.
    """
    if n_workers < 1:
        raise ValueError("need at least one cluster worker")
    payload = job_payload(
        spec_factory, factory_args, stype,
        coordination=coordination, budget=budget, share_poll=share_poll,
        d_cutoff=d_cutoff, chunked=chunked,
    )
    events = list((fault_plan or {}).get("events", []))
    handle = ClusterHandle(
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        wire_codec=wire_codec,
        faults=CoordinatorFaults(events) if events else None,
    )
    procs: list[Process] = []
    try:
        host, port = handle.start()
        procs = [
            Process(
                target=_worker_process_main,
                # give_up_after bounds orphan spin if this process dies
                # before the drain: workers stop retrying on their own.
                args=(host, port, f"local-{i}", 15.0, events or None, 2,
                      wire_codec),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for p in procs:
            p.start()
        handle.wait_for_workers(n_workers, timeout=worker_join_timeout)
        return handle.run_job(payload, timeout=timeout)
    finally:
        handle.shutdown(drain_workers=True)
        for p in procs:
            p.join(timeout=3.0)
            graceful_stop(p, grace=1.0)


def cluster_budget_search(
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    **kwargs: Any,
) -> SearchResult:
    """Budget search over an embedded cluster (compatibility wrapper
    around :func:`cluster_search` with ``coordination="budget"``)."""
    return cluster_search(
        spec_factory, factory_args, stype, coordination="budget", **kwargs
    )


def run_with_cluster(
    coordination: str,
    spec_factory: Callable[..., Any],
    factory_args: tuple,
    stype: SearchType,
    params: SkeletonParams,
) -> SearchResult:
    """Dispatch a skeleton run onto a localhost cluster.

    Entry point for ``SkeletonParams(backend="cluster")``: the budget,
    stacksteal and ordered coordinations move (or pin) work dynamically
    enough to be worth a wire; everything else is rejected with advice
    (mirroring :func:`repro.runtime.processes.run_with_processes`).
    """
    if coordination not in CLUSTER_COORDINATIONS:
        raise ValueError(
            f"the cluster backend implements the {CLUSTER_COORDINATIONS} "
            f"coordinations, not {coordination!r}; use backend='processes' "
            "or backend='sim'"
        )
    return cluster_search(
        spec_factory,
        factory_args,
        stype,
        coordination=coordination,
        n_workers=params.cluster_workers,
        budget=params.budget,
        share_poll=params.share_poll,
        d_cutoff=params.d_cutoff,
        chunked=params.chunked,
        wire_codec=params.wire_codec,
    )
