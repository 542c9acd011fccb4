"""Worker specifications: what one fleet member looks like.

A :class:`WorkerSpec` is the deployment's template for spawning
`cluster-worker` processes — the dask ``SpecCluster`` idea reduced to
what this runtime needs: every worker in the fleet is stamped from one
spec (name prefix + monotone index, give-up budget, wire codec), so
scaling is just "spawn another one of these" / "retire one of these".

The spec also carries the optional chaos-event list, so fault plans
ride into the workers of every deployment, the fixed fan-out of
:func:`repro.cluster.local.cluster_search` and the elastic fleet alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["WorkerSpec"]


@dataclass(frozen=True)
class WorkerSpec:
    """Template for one elastic fleet worker.

    Attributes:
        name_prefix: workers are named ``{name_prefix}-{index}`` with a
            monotone index — names never recycle, so coordinator
            diagnostics and chaos plans address workers unambiguously
            across respawns.
        give_up_after: seconds a worker keeps retrying an unreachable
            coordinator before exiting on its own — bounds orphan spin
            if the deployment dies without draining.
        wire_codec: preferred frame body format offered in HELLO
            (``"binary"`` or ``"json"``; the coordinator's preference
            wins when both are offered).
        chaos_events: optional fault-plan event list (see
            :mod:`repro.cluster.faults`); events addressed to a
            worker's name become its injection hooks.
    """

    name_prefix: str = "deploy"
    give_up_after: Optional[float] = 30.0
    wire_codec: str = "binary"
    chaos_events: Optional[tuple] = None

    def worker_name(self, index: int) -> str:
        """The fleet-unique name of worker ``index``."""
        return f"{self.name_prefix}-{index}"
