"""Deterministic fault-injection hooks for the cluster runtime.

The fault-tolerance path (epoch leases, heartbeat watchdog, re-lease on
worker death — see :mod:`repro.cluster.coordinator`) was originally
exercised by a single SIGKILL e2e test.  These hooks let a *seeded
schedule* of faults — a :class:`repro.verify.chaos.FaultPlan` — be
injected at fixed points instead, so every chaos run is reproducible
from its seed.

Event dicts (JSON-able, so plans travel through process-spawn args):

- ``{"kind": "kill_worker", "worker": NAME, "at_task": N}`` —
  worker-side: hard-exit (``os._exit``, no BYE, no drain) the moment the
  worker *starts* its ``N``-th subtree — a lease root, a run of ordered
  tasks, or a pop from a budget lease's own pool — so it dies holding a
  live lease, and past the first one with a pool behind it and whatever
  it had already handed over searched again by the re-run.
- ``{"kind": "kill_on_retire", "worker": NAME}`` — worker-side:
  hard-exit the moment a RETIRE frame arrives, *before* the graceful
  handback runs — the worker dies mid-retire still holding its leases,
  so the coordinator's crash re-lease path must recover exactly what
  the cooperative RELEASE would have returned.
- ``{"kind": "drop_frame", "worker": NAME, "frame_type": T,
  "after": K, "count": C}`` — worker-side: silently discard outbound
  frames ``K+1 .. K+C`` of type ``T``.  Only HEARTBEAT and INCUMBENT
  may be dropped: those are the frames whose loss the protocol
  tolerates by design (beats are redundant liveness, incumbent values
  are repeated in RESULT).  Dropping OFFCUT or RESULT would lose work
  without any fault the protocol could observe — TCP either delivers a
  frame or breaks the connection, never silently eats one — so asking
  for it is a plan bug and raises ValueError.
- ``{"kind": "delay_heartbeat", "worker": NAME, "beat": B,
  "delay": S}`` — worker-side: sleep ``S`` extra seconds before sending
  heartbeat number ``B``.  With ``S`` past the coordinator's
  heartbeat timeout this forces a watchdog re-lease while the worker is
  merely slow, exercising the stale-epoch drop path.
- ``{"kind": "partition", "worker": NAME, "after_frames": K,
  "count": C}`` — coordinator-side: drop inbound frames ``K+1 .. K+C``
  from that worker (counted across reconnects), simulating a severed
  link: the connection that lost a frame counts nothing more.  The
  watchdog declares the worker dead and re-leases its tasks;
  once the drop budget is spent the link "heals" and the worker may
  rejoin.

Counters are per-hook-object state, so the schedule is a pure function
of the event list and the order of local actions — no clocks, no
randomness at injection time.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

__all__ = ["KILL_EXIT_CODE", "SAFE_DROP_TYPES", "WorkerFaults", "CoordinatorFaults"]

# Exit code of a chaos-killed worker: distinguishable from real crashes
# in CI logs, and non-zero so supervisors treat it as a death.
KILL_EXIT_CODE = 57

SAFE_DROP_TYPES = frozenset({"HEARTBEAT", "INCUMBENT"})

_WORKER_KINDS = (
    "kill_worker", "kill_on_retire", "drop_frame", "delay_heartbeat"
)


class WorkerFaults:
    """Worker-side injection state for one worker's share of a plan."""

    def __init__(self, events: list) -> None:
        self._kill_at: Optional[int] = None
        self._kill_on_retire = False
        self._drops: list[dict] = []  # {frame_type, after, count, seen}
        self._delays: dict[int, float] = {}  # beat number -> extra seconds
        self._beats = 0
        for ev in events:
            kind = ev.get("kind")
            if kind == "kill_worker":
                at = int(ev["at_task"])
                self._kill_at = at if self._kill_at is None else min(self._kill_at, at)
            elif kind == "kill_on_retire":
                self._kill_on_retire = True
            elif kind == "drop_frame":
                ftype = ev["frame_type"]
                if ftype not in SAFE_DROP_TYPES:
                    raise ValueError(
                        f"refusing to drop {ftype} frames: the protocol "
                        "only tolerates losing "
                        f"{sorted(SAFE_DROP_TYPES)} (TCP never silently "
                        "drops a delivered frame; losing work frames "
                        "models no real fault)"
                    )
                self._drops.append({
                    "frame_type": ftype,
                    "after": int(ev.get("after", 0)),
                    "count": int(ev.get("count", 1)),
                    "seen": 0,
                })
            elif kind == "delay_heartbeat":
                self._delays[int(ev["beat"])] = float(ev["delay"])
            elif kind == "partition":
                pass  # coordinator-side; ignore here
            else:
                raise ValueError(f"unknown fault kind {kind!r}")

    @classmethod
    def from_events(cls, events, worker_name: str) -> Optional["WorkerFaults"]:
        """The worker-side hooks for ``worker_name``, or None if the plan
        has nothing for it."""
        if not events:
            return None
        mine = [
            ev for ev in events
            if ev.get("worker") == worker_name
            and ev.get("kind") in _WORKER_KINDS
        ]
        return cls(mine) if mine else None

    # -- hook points ---------------------------------------------------------

    def on_task_start(self, task_number: int) -> None:
        """Called as the worker starts its ``task_number``-th subtree
        (lease root or pool pop); may hard-exit the process (simulating
        SIGKILL mid-lease)."""
        if self._kill_at is not None and task_number >= self._kill_at:
            sys.stderr.flush()
            os._exit(KILL_EXIT_CODE)

    def on_retire(self) -> None:
        """Called when a RETIRE frame arrives, before the graceful
        handback; may hard-exit the process (dying mid-retire with
        leases live)."""
        if self._kill_on_retire:
            sys.stderr.flush()
            os._exit(KILL_EXIT_CODE)

    def drop_outbound(self, frame_type: str) -> bool:
        """True if this outbound frame should be silently discarded."""
        dropped = False
        for drop in self._drops:
            if drop["frame_type"] != frame_type:
                continue
            drop["seen"] += 1
            if drop["after"] < drop["seen"] <= drop["after"] + drop["count"]:
                dropped = True
        return dropped

    def next_beat_delay(self) -> float:
        """Extra sleep before the next heartbeat (0.0 almost always)."""
        self._beats += 1
        return self._delays.get(self._beats, 0.0)


class CoordinatorFaults:
    """Coordinator-side injection state: inbound partitions by worker."""

    def __init__(self, events: list) -> None:
        # worker name -> {after, count, seen}; one window per worker.
        self._partitions: dict[str, dict] = {}
        for ev in events:
            if ev.get("kind") != "partition":
                continue
            self._partitions[str(ev["worker"])] = {
                "after": int(ev.get("after_frames", 0)),
                "count": int(ev.get("count", 400)),
                "seen": 0,
            }

    def __bool__(self) -> bool:
        return bool(self._partitions)

    def drop_inbound(self, worker_name: str, frame_type: str) -> bool:
        """True if this inbound frame should be dropped (and the sender's
        liveness deadline left to expire)."""
        window = self._partitions.get(worker_name)
        if window is None:
            return False
        window["seen"] += 1
        return window["after"] < window["seen"] <= window["after"] + window["count"]
