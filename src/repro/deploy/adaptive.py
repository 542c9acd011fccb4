"""Adaptive scaling policy: turn load signals into a target fleet size.

The policy is deliberately a pure object: :meth:`Adaptive.recommend`
takes a :class:`LoadSignals` snapshot and an explicit ``now`` timestamp
and returns the fleet size the deployment should converge to.  No
threads, no sleeps, no wall clock — the unit suite drives it with a
fake clock, and :class:`repro.deploy.deployment.ClusterDeployment`
drives it with ``time.monotonic()`` from its adapt loop.

Demand is measured in *runnable tasks*: the coordinator's queued +
leased task counts (one live job's outstanding work) plus the service
layer's job-queue depth (work that has not reached the coordinator
yet).  The raw series is jagged — a budget-restart search emits bursts
of offcut subtasks — so the policy applies two stabilisers, in the
spirit of dask's ``Adaptive``:

- asymmetric hysteresis: scale *up* immediately (latency on a burst is
  the thing elasticity exists to remove) but scale *down* only after
  raw demand has stayed below the current fleet size for a full
  ``down_cooldown`` window, and every recovery resets the window.  A
  square-wave load whose period is shorter than the cooldown therefore
  holds the fleet at its high-water mark instead of oscillating (each
  high phase resets the window before it can expire);
- an exponential moving average of the demand series shapes the
  *scale-down target*: when the window does expire the fleet drops to
  the smoothed demand level, not to whatever instantaneous trough
  happened to be polled.

The timing gate deliberately reads the raw series, not the EMA: gating
on smoothed demand means the damped signal can sit permanently just
below a previous peak, silently bleeding the fleet down one step per
cooldown even while the load keeps returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["LoadSignals", "Adaptive"]


@dataclass(frozen=True)
class LoadSignals:
    """One snapshot of the demand signals the policy reads.

    Attributes:
        queued_tasks: runnable, unstarted tasks: the coordinator's
            ready queue plus the pools its budget workers report.
        leased_tasks: tasks currently leased to workers.
        service_queue_depth: jobs waiting in the service-layer
            :class:`~repro.service.queue.JobQueue` (0 when the
            deployment is used without the service layer).
        job_active: True while the coordinator is running a job; keeps
            at least one worker's worth of demand on the books even at
            the instant the queue reads empty mid-job.
    """

    queued_tasks: int = 0
    leased_tasks: int = 0
    service_queue_depth: int = 0
    job_active: bool = False

    def demand(self) -> float:
        """Runnable work, in tasks."""
        raw = self.queued_tasks + self.leased_tasks + self.service_queue_depth
        if self.job_active:
            raw = max(raw, 1)
        return float(raw)


class Adaptive:
    """Hysteretic demand-follower mapping load signals to a fleet size.

    Args:
        minimum: floor on the recommended fleet (>= 1: the fleet never
            scales to zero, so a new job always finds a worker).
        maximum: ceiling on the recommended fleet.
        target_per_worker: runnable tasks one worker is expected to
            absorb; the unsmoothed target is ``ceil(demand / this)``.
        smoothing: EMA coefficient in (0, 1] applied to the demand
            series; the smoothed level sets the scale-down *target*.
            1.0 disables smoothing.
        down_cooldown: seconds raw demand must stay below the current
            fleet size before a scale-down is recommended.
        up_cooldown: minimum seconds between successive scale-ups
            (0 = react instantly; bursts are the latency-sensitive
            direction).
    """

    def __init__(
        self,
        minimum: int = 1,
        maximum: int = 4,
        *,
        target_per_worker: float = 1.0,
        smoothing: float = 0.5,
        down_cooldown: float = 2.0,
        up_cooldown: float = 0.0,
    ) -> None:
        if minimum < 1:
            raise ValueError(f"minimum must be >= 1, got {minimum}")
        if maximum < minimum:
            raise ValueError(
                f"maximum ({maximum}) must be >= minimum ({minimum})"
            )
        if not (0.0 < smoothing <= 1.0):
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if target_per_worker <= 0:
            raise ValueError("target_per_worker must be positive")
        self.minimum = int(minimum)
        self.maximum = int(maximum)
        self.target_per_worker = float(target_per_worker)
        self.smoothing = float(smoothing)
        self.down_cooldown = float(down_cooldown)
        self.up_cooldown = float(up_cooldown)
        self._ema: Optional[float] = None
        self._current: Optional[int] = None
        self._last_up: Optional[float] = None
        self._below_since: Optional[float] = None

    def _clamp(self, n: int) -> int:
        return max(self.minimum, min(self.maximum, n))

    def desired(self) -> int:
        """The clamped target implied by the current smoothed demand,
        ignoring hysteresis (what the fleet would converge to if the
        current demand level held forever)."""
        if self._ema is None:
            return self.minimum
        return self._clamp(int(math.ceil(self._ema / self.target_per_worker)))

    def recommend(self, signals: LoadSignals, now: float) -> int:
        """Fold one load snapshot in and return the target fleet size.

        Deterministic in the sequence of ``(signals, now)`` pairs; call
        it from exactly one place (the deployment's adapt loop or a
        test's fake clock loop).
        """
        demand = signals.demand()
        if self._ema is None:
            self._ema = demand
        else:
            self._ema += self.smoothing * (demand - self._ema)
        # The gate compares raw demand against the fleet: a square wave
        # resets the window on every high phase no matter how the EMA
        # is damped, so period < cooldown pins the high-water mark.
        raw = self._clamp(int(math.ceil(demand / self.target_per_worker)))

        if self._current is None:
            # First observation: jump straight to the implied size.
            self._current = raw
            self._last_up = now
            return self._current

        if raw > self._current:
            # Scale up, subject only to the (usually zero) up cooldown.
            if self._last_up is None or now - self._last_up >= self.up_cooldown:
                self._current = raw
                self._last_up = now
            self._below_since = None
        elif raw < self._current:
            # Scale down only once demand has been low for the whole
            # cooldown window; a blip resets nothing, a recovery does.
            if self._below_since is None:
                self._below_since = now
            if now - self._below_since >= self.down_cooldown:
                # Drop to the smoothed level, not the polled trough.
                self._current = max(raw, self.desired())
                self._below_since = None
        else:
            self._below_since = None
        return self._current
