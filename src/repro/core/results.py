"""Search results and metrics.

Every skeleton returns a :class:`SearchResult`: the search outcome (an
accumulator for enumeration, the optimal/witness node for optimisation
and decision), plus a :class:`SearchMetrics` record of what the search
did.  Parallel runs additionally report virtual makespan and per-worker
utilisation from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

__all__ = [
    "SearchMetrics",
    "SearchResult",
    "validate_result",
    "result_from_dict",
]


@dataclass
class SearchMetrics:
    """Counters accumulated during a search.

    ``nodes`` counts processed (visited) nodes; ``prunes`` counts
    subtrees discarded by the bound; ``spawns`` counts tasks created;
    ``steals``/``failed_steals`` count work-stealing traffic;
    ``backtracks`` counts generator-stack pops; ``reassigned`` counts
    tasks re-leased after their worker died (cluster backend fault
    tolerance — nonzero means the run survived at least one failure).
    """

    nodes: int = 0
    weighted_nodes: int = 0  # nodes scaled by spec.node_size (== nodes if unweighted)
    backtracks: int = 0
    prunes: int = 0
    spawns: int = 0
    steals: int = 0
    failed_steals: int = 0
    broadcasts: int = 0
    max_depth: int = 0
    reassigned: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready) of all counters."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchMetrics":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored
        so snapshots from newer versions still load."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def merge(self, other: "SearchMetrics") -> None:
        """Fold another worker's counters into this one."""
        self.nodes += other.nodes
        self.weighted_nodes += other.weighted_nodes
        self.backtracks += other.backtracks
        self.prunes += other.prunes
        self.spawns += other.spawns
        self.steals += other.steals
        self.failed_steals += other.failed_steals
        self.broadcasts += other.broadcasts
        self.max_depth = max(self.max_depth, other.max_depth)
        self.reassigned += other.reassigned


@dataclass
class SearchResult:
    """Outcome of one skeleton run.

    Attributes:
        kind: the search type that produced this result.
        value: the monoid value — the accumulator (enumeration) or the
            objective of the best node (optimisation/decision).
        node: the witness node for optimisation/decision; None for
            enumeration.
        found: for decision searches, whether the target was reached.
        metrics: aggregate counters over all workers.
        virtual_time: simulated makespan (parallel skeletons only).
        wall_time: real elapsed seconds for the run.
        workers: number of workers that executed the search.
        per_worker_busy: simulated busy time per worker (utilisation
            analysis), parallel runs only.
        trace: full schedule trace (:class:`repro.runtime.trace.Trace`)
            when the cluster was built with ``trace=True``; None
            otherwise.
    """

    kind: str
    value: Any
    node: Optional[Any] = None
    found: Optional[bool] = None
    metrics: SearchMetrics = field(default_factory=SearchMetrics)
    virtual_time: Optional[float] = None
    wall_time: Optional[float] = None
    workers: int = 1
    per_worker_busy: Optional[list] = None
    trace: Optional[Any] = None

    @classmethod
    def from_knowledge(
        cls,
        stype: Any,
        knowledge: Any,
        goal: bool,
        metrics: SearchMetrics,
        wall_time: Optional[float],
        workers: int,
        **simulated: Any,
    ) -> "SearchResult":
        """Package a finished search's knowledge as a result.

        Enumeration knowledge is the accumulator itself; the other two
        types hold an incumbent whose value and witness are reported.  A
        decision is ``found`` when some worker saw the goal (``goal``)
        or the merged incumbent meets the target.  ``simulated`` carries
        the simulator's extra fields (``virtual_time``,
        ``per_worker_busy``, ``trace``).
        """
        value, node, found = knowledge, None, None
        if stype.kind != "enumeration":
            value, node = knowledge.value, knowledge.node
            if stype.kind == "decision":
                found = bool(goal or stype.is_goal(knowledge))
        return cls(
            kind=stype.kind,
            value=value,
            node=node,
            found=found,
            metrics=metrics,
            wall_time=wall_time,
            workers=workers,
            **simulated,
        )

    def efficiency(self) -> Optional[float]:
        """Mean worker utilisation (busy / makespan), parallel runs only."""
        if self.virtual_time is None or not self.per_worker_busy or self.virtual_time == 0:
            return None
        return sum(self.per_worker_busy) / (len(self.per_worker_busy) * self.virtual_time)

    def to_dict(self) -> dict:
        """JSON-ready dict form of the result.

        Witness nodes are encoded with :func:`_encode_node`: JSON-safe
        structures round-trip exactly (tuples are tagged so they come
        back as tuples), anything else degrades to a tagged ``repr``
        string — still reportable, no longer executable.  The schedule
        ``trace`` is deliberately dropped (it is a debugging artefact,
        large, and not part of the result contract); ``per_worker_busy``
        is kept.
        """
        return {
            "kind": self.kind,
            "value": _encode_node(self.value),
            "node": _encode_node(self.node),
            "found": self.found,
            "metrics": self.metrics.to_dict(),
            "virtual_time": self.virtual_time,
            "wall_time": self.wall_time,
            "workers": self.workers,
            "per_worker_busy": list(self.per_worker_busy)
            if self.per_worker_busy is not None
            else None,
        }


def result_from_dict(data: dict) -> SearchResult:
    """Rebuild a :class:`SearchResult` from :meth:`SearchResult.to_dict`.

    Inverse of ``to_dict`` up to witness fidelity: tagged tuples are
    restored as tuples, tagged ``repr`` fallbacks come back as their
    repr strings (flagged by :func:`_encode_node` at encode time).
    """
    return SearchResult(
        kind=data["kind"],
        value=_decode_node(data.get("value")),
        node=_decode_node(data.get("node")),
        found=data.get("found"),
        metrics=SearchMetrics.from_dict(data.get("metrics", {})),
        virtual_time=data.get("virtual_time"),
        wall_time=data.get("wall_time"),
        workers=data.get("workers", 1),
        per_worker_busy=data.get("per_worker_busy"),
    )


_TUPLE_TAG = "__tuple__"
_REPR_TAG = "__repr__"


def _encode_node(value: Any) -> Any:
    """Encode an arbitrary witness/value into JSON-safe structure.

    JSON primitives pass through; tuples/lists/dicts recurse (tuples
    tagged to survive the round trip); sets/frozensets become sorted
    tagged tuples; anything else falls back to ``{"__repr__": ...}``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_node(v) for v in value]}
    if isinstance(value, list):
        return [_encode_node(v) for v in value]
    if isinstance(value, (set, frozenset)):
        try:
            ordered = sorted(value)
        except TypeError:
            ordered = sorted(value, key=repr)
        return {_TUPLE_TAG: [_encode_node(v) for v in ordered]}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and not (
            _TUPLE_TAG in value or _REPR_TAG in value
        ):
            return {k: _encode_node(v) for k, v in value.items()}
        return {_REPR_TAG: repr(value)}
    return {_REPR_TAG: repr(value)}


def _decode_node(value: Any) -> Any:
    """Inverse of :func:`_encode_node` (repr fallbacks stay strings)."""
    if isinstance(value, list):
        return [_decode_node(v) for v in value]
    if isinstance(value, dict):
        if _TUPLE_TAG in value and len(value) == 1:
            return tuple(_decode_node(v) for v in value[_TUPLE_TAG])
        if _REPR_TAG in value and len(value) == 1:
            return value[_REPR_TAG]
        return {k: _decode_node(v) for k, v in value.items()}
    return value


def validate_result(spec, result: SearchResult) -> bool:
    """Independently certify a search result against its spec.

    - Optimisation: the witness's objective must equal the reported
      value, and the spec's ``witness_check`` (if any) must accept it.
    - Decision (found): the witness's objective must reach the reported
      (clipped) value, plus the ``witness_check``.
    - Enumeration: nothing structural to certify (the accumulator is
      the result); returns True.

    Raises ValueError on malformed results rather than returning False,
    so silent corruption can't masquerade as "witness merely invalid".
    """
    if result.kind == "enumeration":
        return True
    if result.node is None:
        raise ValueError("optimisation/decision result without a witness node")
    objective = spec.objective(result.node)
    if result.kind == "optimisation" and objective != result.value:
        return False
    if result.kind == "decision" and objective < result.value:
        return False
    if spec.witness_check is not None:
        return bool(spec.witness_check(spec.space, result.node))
    return True
