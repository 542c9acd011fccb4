"""Real distributed search over TCP (coordinator/worker runtime).

The paper's headline evaluation is distributed-memory scaling — k-clique
refutations across 17 localities (Fig. 4) on HPX.  This package is the
repository's real-network counterpart to that substrate: a socket-based
multi-node runtime executing the Depth-Bounded, Budget, Stack-Stealing
and Ordered coordinations, where work and knowledge move over a wire
instead of a simulated network or shared memory.

- :mod:`repro.cluster.protocol` — the length-prefixed wire protocol
  (HELLO/TASK/OFFCUT/INCUMBENT/RESULT/HEARTBEAT/RETIRE …) and the
  node/spec transport codecs; frame bodies are JSON or the compact
  binary format of :mod:`repro.cluster.codec`, negotiated per
  connection in HELLO/WELCOME.
- :mod:`repro.cluster.coordinator` — the coordinator: an asyncio accept
  loop, heartbeat-timeout fault tolerance, and the incumbent broadcast
  of strict improvements, driving the job's driver and lease table.
- :mod:`repro.cluster.leases` — the lease table: each record queued or
  held under an epoch (a stale one is refused), the grant round, steal
  mediation, and termination when nothing is queued or held.
- :mod:`repro.cluster.worker` — worker nodes: the search kernel
  wrapped in a TCP client with reconnect-with-backoff, leaving for
  good on RETIRE (scale-down, or the coordinator closing);
  ``run_worker`` optionally fans out to several local worker
  processes.
- :mod:`repro.cluster.local` — ``job_payload`` and ``cluster_search``:
  one search under any cluster coordination on a
  :class:`~repro.deploy.deployment.ClusterDeployment` of N forked
  localhost workers (the ``backend="cluster"`` skeleton route).
- :mod:`repro.cluster.backend` — :class:`ClusterBackend`, the service
  :class:`~repro.service.scheduler.Backend` that dispatches scheduler
  jobs cluster-wide (``repro serve --backend cluster``).

Staleness stays correctness-safe exactly as in the simulator and the
multiprocessing backend (§4.3): a worker holding an out-of-date
incumbent only prunes less, never wrongly, because bounds are monotone
and the final answer is max-merged from per-task results.

Quick start (three shells)::

    repro cluster-worker --connect 127.0.0.1:7031          # twice
    repro cluster-coordinator --listen 127.0.0.1:7031 \\
        --jobfile jobs.jsonl --min-workers 2

or self-contained in one process tree::

    repro maxclique --instance brock100-1 --skeleton budget \\
        --backend cluster --cluster-workers 4

See docs/cluster.md for the protocol, termination detection and the
failure model.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.coordinator import ClusterHandle, Coordinator
from repro.cluster.local import cluster_search
from repro.cluster.worker import ClusterWorker, run_worker

__all__ = [
    "Coordinator",
    "ClusterHandle",
    "ClusterWorker",
    "run_worker",
    "cluster_search",
    "ClusterBackend",
]
