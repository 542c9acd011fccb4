"""Job specifications and lifecycle for the search service.

A :class:`JobSpec` is the immutable *what* of a submission: which
library instance to search, with which skeleton, search type and
parameters, plus scheduling attributes (priority, timeout, submitter).
Its :attr:`~JobSpec.key` is a canonical content hash over the fields
that determine the search *outcome* — scheduling attributes are
deliberately excluded, so two users submitting the same search at
different priorities are still duplicates and share one execution
(see :mod:`repro.service.cache`).

A :class:`Job` is the mutable *how it went*: lifecycle state, result,
timestamps.  The lifecycle is::

    PENDING ──► RUNNING ──► DONE | FAILED | CANCELLED | TIMEOUT
       │
       └─────► DONE (cache hit / coalesced) | FAILED (rejected) | CANCELLED

Transitions outside this graph raise, so a scheduler bug cannot
silently resurrect a finished job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Mapping, Optional

from repro.core.backends import backend_for
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.skeletons import COORDINATIONS, SEARCH_TYPES

__all__ = ["JobSpec", "Job", "JobState", "TERMINAL_STATES", "RETAINED_JOBS"]

# The finished jobs a serving scheduler remembers, oldest to finish
# dropped first: its terminal records (a batch run keeps every record)
# and its metrics' latency window.  A front door serves jobs forever.
RETAINED_JOBS = 1024


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}
)

# Legal lifecycle transitions.  PENDING can go straight to a terminal
# state: DONE (cache hit or coalesced fan-out), FAILED (admission
# rejection) and CANCELLED (cancelled while queued).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.PENDING: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.RUNNING: TERMINAL_STATES,
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMEOUT: frozenset(),
}


@dataclass(frozen=True)
class JobSpec:
    """One search submission: what to run and how urgently.

    Attributes:
        app: application family (must match the instance's registry
            entry — a cheap sanity check against copy-paste mistakes).
        instance: library instance name (:mod:`repro.instances.library`).
        skeleton: coordination name (``sequential``, ``depthbounded``, ...).
        search_type: ``enumeration``/``decision``/``optimisation``; None
            uses the instance's registered default.
        params: :class:`SkeletonParams` field overrides.
        stype_kwargs: search-type constructor kwargs (e.g. a Decision
            ``target``).
        priority: higher runs earlier *within one submitter's backlog*.
        timeout: wall-clock seconds the job may run; None = unlimited.
        submitter: fairness bucket — the queue round-robins between
            submitters so one flood cannot starve everyone else.
    """

    app: str
    instance: str
    skeleton: str = "sequential"
    search_type: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    stype_kwargs: Mapping[str, Any] = field(default_factory=dict)
    priority: int = 0
    timeout: Optional[float] = None
    submitter: str = "anon"

    def __post_init__(self) -> None:
        if self.skeleton not in COORDINATIONS:
            raise ValueError(
                f"unknown skeleton {self.skeleton!r}; "
                f"expected one of {sorted(COORDINATIONS)}"
            )
        if self.search_type is not None and self.search_type not in SEARCH_TYPES:
            raise ValueError(
                f"unknown search type {self.search_type!r}; "
                f"expected one of {sorted(SEARCH_TYPES)}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None for unlimited)")
        if not self.instance:
            raise ValueError("instance name must be non-empty")
        if not self.submitter:
            raise ValueError("submitter must be non-empty")
        # Validate parameter overrides eagerly: a typo'd knob — or a
        # skeleton the chosen backend does not implement — should be
        # rejected at submission, not when a worker picks the job up.
        params = SkeletonParams(**dict(self.params))
        coordination = params.coordination or self.skeleton
        if coordination != "sequential":
            backend_for(params.backend, coordination)

    # -- identity -----------------------------------------------------------

    def canonical(self) -> dict:
        """The outcome-determining fields, in canonical (sorted) form.

        Priority, timeout and submitter are scheduling attributes: they
        change *when* a search runs, never *what* it computes, so they
        are excluded — that is what makes cross-submitter deduplication
        sound.
        """
        return {
            "app": self.app,
            "instance": self.instance,
            "skeleton": self.skeleton,
            "search_type": self.search_type,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "stype_kwargs": {k: self.stype_kwargs[k] for k in sorted(self.stype_kwargs)},
        }

    @cached_property
    def key(self) -> str:
        """Canonical content hash: the cache/dedup key, computed once
        (a spec is frozen; a race computes the same digest twice)."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """Full JSON-ready form, including scheduling attributes."""
        d = self.canonical()
        d.update(priority=self.priority, timeout=self.timeout, submitter=self.submitter)
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild from :meth:`to_dict` output (validates everything)."""
        return cls(
            app=data["app"],
            instance=data["instance"],
            skeleton=data.get("skeleton", "sequential"),
            search_type=data.get("search_type"),
            params=dict(data.get("params") or {}),
            stype_kwargs=dict(data.get("stype_kwargs") or {}),
            priority=int(data.get("priority", 0)),
            timeout=data.get("timeout"),
            submitter=data.get("submitter", "anon"),
        )

    def run_payload(self) -> dict:
        """Keyword arguments for
        :func:`repro.runtime.processes.run_library_search`, as plain
        data."""
        return {
            "instance": self.instance,
            "skeleton": self.skeleton,
            "search_type": self.search_type,
            "stype_kwargs": dict(self.stype_kwargs),
            "params": dict(self.params),
        }


@dataclass
class Job:
    """The mutable service-side record of one submission."""

    spec: JobSpec
    id: str
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[SearchResult] = None
    error: Optional[str] = None
    attempts: int = 0
    from_cache: bool = False
    coalesced_into: Optional[str] = None  # leader job id, for followers
    cancel_event: Optional[Any] = None  # threading.Event, set on live cancel
    # Transient progress hook: backends that observe incumbent
    # improvements mid-search call this with the new objective value.
    # The scheduler wires it to its event sink before execution; it is
    # best-effort (may fire from any thread, may be None).
    on_incumbent: Optional[Any] = None  # Callable[[int], None]

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def latency(self) -> Optional[float]:
        """Submit-to-terminal latency in seconds (None while live)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def transition(self, new_state: JobState, *, now: Optional[float] = None) -> None:
        """Move to ``new_state``, enforcing the lifecycle graph."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state.value} -> {new_state.value} "
                f"(job {self.id})"
            )
        self.state = new_state
        if now is not None:
            if new_state is JobState.RUNNING:
                self.started_at = now
            elif new_state in TERMINAL_STATES:
                self.finished_at = now

    def describe(self) -> str:
        """One-line human summary (used by `repro serve` reports)."""
        spec = self.spec
        bits = [f"{self.id}", f"{self.state.value:<9}", f"{spec.app}/{spec.instance}"]
        if self.result is not None:
            bits.append(f"value={self.result.value}")
        if self.from_cache:
            bits.append("(cache)")
        if self.coalesced_into:
            bits.append(f"(coalesced with {self.coalesced_into})")
        if self.error:
            bits.append(f"error: {self.error}")
        lat = self.latency()
        if lat is not None:
            bits.append(f"{lat:.3f}s")
        return "  ".join(bits)
