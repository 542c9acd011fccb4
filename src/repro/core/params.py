"""Skeleton tuning parameters (§4.3 "Skeletons API").

The paper exposes the knobs that control the amount and location of work
in the system — the Depth-Bounded cutoff ``d_cutoff``, the Budget
backtrack budget, the Stack-Stealing ``chunked`` flag — plus the
topology a run executes on.  Poor choices can starve or flood the
system (§5.5); Table 2's worst/random/best columns sweep exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.backends import BACKENDS, COORDINATION_NAMES

__all__ = ["SkeletonParams"]


@dataclass(frozen=True)
class SkeletonParams:
    """Tuning knobs for a skeleton run.

    Attributes:
        d_cutoff: Depth-Bounded — nodes at depth <= d_cutoff become tasks.
        budget: Budget — backtracks allowed before spawning the lowest
            unexplored subtrees.
        chunked: Stack-Stealing — steal every node at the victim's lowest
            depth instead of a single node.
        localities: number of simulated physical machines.
        workers_per_locality: search workers per locality (the paper uses
            15 of 16 cores, reserving one for HPX).
        seed: simulator seed (victim selection and tie-breaking).
        backend: execution backend — ``"sim"`` runs parallel skeletons
            on the discrete-event simulator; ``"processes"`` runs them
            on real OS processes (:mod:`repro.runtime.processes`);
            ``"cluster"`` on a real localhost TCP cluster
            (:mod:`repro.cluster`) — an embedded coordinator plus
            ``cluster_workers`` worker processes talking the wire
            protocol.  :data:`repro.core.backends.BACKENDS` lists the
            coordinations each one implements.
        n_processes: worker processes for the ``"processes"`` backend.
        share_poll: processes/cluster backends — nodes searched between
            reads of the shared incumbent (smaller = tighter pruning,
            more sharing traffic).
        cluster_workers: worker node processes for the ``"cluster"``
            backend.
        wire_codec: cluster backend — the frame body format on the
            wire: ``"binary"`` (compact struct-packed frames, the
            default) or ``"json"`` (human-readable; handy under
            ``tcpdump``).  Negotiated per connection, so mixed fleets
            still interoperate.
        coordination: optional coordination override.  A skeleton
            normally carries its own coordination, but batch drivers
            (the verify harness, the service scheduler) configure runs
            entirely through params; setting this routes
            :meth:`Skeleton.search` to the named coordination instead
            of the skeleton's own.  None (the default) defers to the
            skeleton.
    """

    d_cutoff: int = 2
    budget: int = 1000
    chunked: bool = True
    localities: int = 1
    workers_per_locality: int = 15
    seed: int = 0
    backend: str = "sim"
    n_processes: int = 2
    share_poll: int = 64
    cluster_workers: int = 2
    wire_codec: str = "binary"
    coordination: Optional[str] = None

    @property
    def workers(self) -> int:
        return self.localities * self.workers_per_locality

    def with_(self, **kwargs) -> "SkeletonParams":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.d_cutoff < 0:
            raise ValueError("d_cutoff must be >= 0")
        if self.localities < 1 or self.workers_per_locality < 1:
            raise ValueError("topology must have >= 1 locality and worker")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {tuple(BACKENDS)}"
            )
        if self.wire_codec not in ("json", "binary"):
            raise ValueError(
                f"unknown wire_codec {self.wire_codec!r}; "
                "expected 'json' or 'binary'"
            )
        if (
            self.coordination is not None
            and self.coordination not in COORDINATION_NAMES
        ):
            raise ValueError(
                f"unknown coordination {self.coordination!r}; "
                f"expected one of {COORDINATION_NAMES} (or None to "
                "defer to the skeleton)"
            )
        # Worker/granularity counts share one validator so a bad CLI or
        # job-file value fails here with the knob's name, not later as
        # an opaque multiprocessing or socket error.
        for knob in ("budget", "n_processes", "share_poll", "cluster_workers"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"{knob} must be an integer >= 1, got {value!r}"
                )
