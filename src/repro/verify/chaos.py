"""Seeded fault schedules for the cluster backend.

A :class:`FaultPlan` is a list of the JSON event dicts understood by
:mod:`repro.cluster.faults`, generated deterministically from a seed by
:func:`make_plan`.  The plan, not the wall clock, decides what breaks
and when — so a chaos round that finds a bug is re-runnable from its
``(instance, plan)`` artifact alone.

Plans are constrained to schedules the runtime is *supposed* to
survive:

- at most ``n_workers - 1`` workers are killed (someone must finish);
- kills/partitions are only generated for optimisation/decision jobs —
  losing a worker mid-enumeration is *defined* to fail loudly on Budget
  and Stack-Stealing (the partial accumulator is unrecoverable), which
  gets its own dedicated test rather than a place in the random mix (a
  lost run is re-run exactly: ``repro verify --repeat`` covers those);
- frame drops are limited to the protocol's safe-drop set (HEARTBEAT,
  INCUMBENT), enforced again at injection time by
  :class:`repro.cluster.faults.WorkerFaults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import SplitMix64

__all__ = ["FaultPlan", "make_plan"]


@dataclass
class FaultPlan:
    """A reproducible schedule of injected faults."""

    seed: int
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready form (the artifact / process-spawn payload)."""
        return {"seed": self.seed, "events": list(self.events)}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(int(data.get("seed", 0)), list(data.get("events", [])))

    def describe(self) -> str:
        """Short human-readable summary for log lines."""
        if not self.events:
            return "no faults"
        return ", ".join(
            "{} {}".format(ev["kind"], ev.get("worker", "?")) for ev in self.events
        )


def make_plan(
    seed: int,
    n_workers: int,
    *,
    allow_kill: bool = True,
    worker_prefix: str = "local-",
    elastic: bool = False,
) -> FaultPlan:
    """Generate a survivable fault schedule for an N-worker topology.

    Workers are assumed named ``{worker_prefix}0 .. {worker_prefix}N-1``
    (the :func:`repro.cluster.local.cluster_search` convention).
    ``allow_kill=False`` restricts the menu to perturbations that never
    remove a worker permanently — required for sharing enumeration jobs.

    With ``elastic=True`` the plan targets an elastic deployment
    (:func:`repro.deploy.elastic_budget_search`): the menu gains
    ``kill_on_retire`` (die mid-drain still holding leases), and every
    destructive event is aimed at indices >= 1 — the deployment retires
    youngest-first, so worker 0 is the designated survivor that an
    elastic scale-down keeps, and faulting it could leave the fleet
    empty with nothing scheduled to respawn it.
    """
    rng = SplitMix64(seed ^ 0xFA0175)
    events: list[dict] = []
    kinds = ["drop_frame", "delay_heartbeat"]
    if allow_kill:
        kinds += ["kill_worker", "partition"]
        if elastic and n_workers >= 2:
            kinds.append("kill_on_retire")
    killed: set[str] = set()
    partitioned: set[str] = set()
    retire_killed: set[str] = set()
    for _ in range(1 + rng.randrange(2)):
        kind = kinds[rng.randrange(len(kinds))]
        if elastic and n_workers >= 2:
            index = 1 + rng.randrange(n_workers - 1)
        else:
            index = rng.randrange(n_workers)
        worker = f"{worker_prefix}{index}"
        if kind == "kill_worker":
            # Keep at least one worker alive, and don't double-kill.
            if worker in killed or len(killed) + 1 >= n_workers:
                continue
            killed.add(worker)
            events.append(
                {"kind": "kill_worker", "worker": worker,
                 "at_task": 1 + rng.randrange(3)}
            )
        elif kind == "kill_on_retire":
            # Fires only if the deployment actually sends this worker a
            # RETIRE (a fast job may finish before the scale-down) —
            # harmless when it does not, a drain-crash when it does.
            if worker in retire_killed or worker in killed:
                continue
            retire_killed.add(worker)
            events.append({"kind": "kill_on_retire", "worker": worker})
        elif kind == "partition":
            # One partition window per worker; never partition the last
            # unkilled worker out AND kill the rest (the window heals,
            # but keeping the constraint simple keeps plans obviously
            # survivable).
            if worker in partitioned or worker in killed:
                continue
            partitioned.add(worker)
            events.append(
                {"kind": "partition", "worker": worker,
                 "after_frames": 2 + rng.randrange(5),
                 "count": 20 + rng.randrange(30)}
            )
        elif kind == "drop_frame":
            frame = ("HEARTBEAT", "INCUMBENT")[rng.randrange(2)]
            events.append(
                {"kind": "drop_frame", "worker": worker, "frame_type": frame,
                 "after": rng.randrange(3), "count": 1 + rng.randrange(2)}
            )
        else:  # delay_heartbeat
            events.append(
                {"kind": "delay_heartbeat", "worker": worker,
                 "beat": 1 + rng.randrange(3),
                 "delay": 0.2 + 0.2 * rng.random()}
            )
    return FaultPlan(seed=seed, events=events)
