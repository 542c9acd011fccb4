"""The three search types: Enumeration, Decision, Optimisation (§3.2).

Each search type is the pure "node processing + pruning" logic of the
semantics, factored out of the coordinations exactly as the reduction
rules of Figure 2 are factored: coordinations call :meth:`process` after
every traversal step ((accumulate)/(strengthen)/(skip)), and consult
:meth:`should_prune`/:meth:`is_goal` for the (prune) and (shortcircuit)
rules.

Knowledge representation:

- Enumeration: a monoid accumulator.  Parallel workers fold *local*
  accumulators which are combined at the end — commutativity of the
  monoid is what makes this correct under any interleaving (Thm 3.1).
- Optimisation / Decision: an :class:`Incumbent` — the best (value, node)
  pair seen.  Parallel workers see possibly-stale copies; staleness can
  only delay pruning, never change the result (§4.3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.core.space import SearchSpec

__all__ = [
    "Incumbent",
    "SearchType",
    "Enumeration",
    "Optimisation",
    "Decision",
    "make_search_type",
]

# Deliberate-bug switch for the conformance harness's mutation test
# (docs/verify.md).  When the environment names a mutation, the matching
# code path below misbehaves on purpose so the harness can prove it
# would catch that class of bug.  ``combine`` is only called on the
# parallel merge paths (simulator knowledge store, process/cluster
# result merges) — never by the kernel or the stepped machine — so the
# sequential oracle stays sound while every parallel backend is corrupted.
_MUTATION_ENV = "REPRO_VERIFY_MUTATION"


def _active_mutation() -> str:
    return os.environ.get(_MUTATION_ENV, "")


@dataclass(frozen=True)
class Incumbent:
    """The best node seen so far, with its objective value."""

    value: int
    node: Any


class SearchType:
    """Abstract search type; see module docstring."""

    kind: str = "?"

    def initial_knowledge(self, spec: SearchSpec) -> Any:
        """The knowledge a search starts from (zero / root incumbent)."""
        raise NotImplementedError

    def process(self, spec: SearchSpec, node: Any, knowledge: Any) -> tuple[Any, bool]:
        """Process one visited node.

        Returns ``(new_knowledge, improved)`` where ``improved`` is True
        iff the knowledge strictly changed in a way other workers should
        hear about (an incumbent strengthening; never for enumeration,
        whose accumulators stay local).
        """
        raise NotImplementedError

    def combine(self, a: Any, b: Any) -> Any:
        """Merge knowledge from two workers (monoid plus / incumbent max)."""
        raise NotImplementedError

    def should_prune(self, spec: SearchSpec, node: Any, knowledge: Any) -> bool:
        """(prune): may the subtree under ``node`` be discarded?"""
        return False

    def is_goal(self, knowledge: Any) -> bool:
        """(shortcircuit): has knowledge reached the greatest element?"""
        return False


class Enumeration(SearchType):
    """Fold the objective over every node of the tree (paper §3.2).

    ``plus``/``zero`` define the commutative monoid M (default: integer
    addition) and must be pure: ``plus`` is used both to accumulate node
    values and to merge per-worker accumulators at the end of a parallel
    run, so it must be a genuine M x M -> M operation.  ``objective``
    optionally overrides the spec's objective as the map h : node -> M
    (e.g. ``lambda node: 1`` to count nodes, or an indicator for
    counting solutions only).
    """

    kind = "enumeration"

    def __init__(self, plus=None, zero: Any = 0, objective=None) -> None:
        self._plus = plus if plus is not None else (lambda a, b: a + b)
        self._zero = zero
        self._objective = objective
        # The stock sum-the-objective monoid can be rebuilt by name in a
        # worker process; custom monoids capture behaviour that cannot,
        # which the multiprocessing backends check before shipping.
        self.is_default = plus is None and objective is None and zero == 0

    def initial_knowledge(self, spec: SearchSpec) -> Any:
        """The monoid zero (accumulators start empty)."""
        return self._zero

    def process(self, spec: SearchSpec, node: Any, knowledge: Any) -> tuple[Any, bool]:
        h = self._objective if self._objective is not None else spec.objective
        return self._plus(knowledge, h(node)), False

    def combine(self, a: Any, b: Any) -> Any:
        return self._plus(a, b)


class Optimisation(SearchType):
    """Track the node maximising the objective; prune with the bound."""

    kind = "optimisation"

    def initial_knowledge(self, spec: SearchSpec) -> Incumbent:
        """The root node as the initial incumbent (paper §3.3)."""
        return Incumbent(spec.objective(spec.root), spec.root)

    def process(
        self, spec: SearchSpec, node: Any, knowledge: Incumbent
    ) -> tuple[Incumbent, bool]:
        value = spec.objective(node)
        if value > knowledge.value:  # (strengthen)
            return Incumbent(value, node), True
        return knowledge, False  # (skip)

    def combine(self, a: Incumbent, b: Incumbent) -> Incumbent:
        if _active_mutation() == "incumbent-ordering":
            # Deliberate bug (mutation test): last-write-wins instead of
            # best-wins — the classic incumbent-ordering race where a
            # later, weaker publish clobbers a stronger incumbent.
            return b
        return a if a.value >= b.value else b

    def should_prune(self, spec: SearchSpec, node: Any, knowledge: Incumbent) -> bool:
        # Admissibility (§3.5): bound(node) dominates h of every
        # descendant, so bound <= incumbent value means nothing below
        # node can strengthen the incumbent.
        if not spec.can_prune:
            return False
        return spec.bound(node) <= knowledge.value


class Decision(SearchType):
    """Find any node whose objective reaches ``target`` (bounded order).

    The knowledge order is ``{0..target}`` with max; :meth:`is_goal`
    implements the (shortcircuit) rule.  Pruning is justified either
    because a subtree cannot beat the incumbent, or — stronger, and
    specific to decision searches — because it cannot reach the target
    at all.
    """

    kind = "decision"

    def __init__(self, target: int) -> None:
        self.target = target

    def initial_knowledge(self, spec: SearchSpec) -> Incumbent:
        """The root incumbent, clipped into the bounded order."""
        return Incumbent(self._clip(spec.objective(spec.root)), spec.root)

    def _clip(self, value: int) -> int:
        # h maps into the bounded order {0..target} (paper: min(|v|, k)).
        return min(value, self.target)

    def process(
        self, spec: SearchSpec, node: Any, knowledge: Incumbent
    ) -> tuple[Incumbent, bool]:
        value = self._clip(spec.objective(node))
        if value > knowledge.value:
            return Incumbent(value, node), True
        return knowledge, False

    def combine(self, a: Incumbent, b: Incumbent) -> Incumbent:
        return a if a.value >= b.value else b

    def should_prune(self, spec: SearchSpec, node: Any, knowledge: Incumbent) -> bool:
        if not spec.can_prune:
            return False
        bound = spec.bound(node)
        return bound < self.target or bound <= knowledge.value

    def is_goal(self, knowledge: Incumbent) -> bool:
        return knowledge.value >= self.target


def make_search_type(kind: str, **kwargs: Any) -> SearchType:
    """Construct a search type by name.

    ``kind`` is one of ``"enumeration"``, ``"optimisation"``,
    ``"decision"``; Decision requires ``target=...``.
    """
    if kind == "enumeration":
        return Enumeration(**kwargs)
    if kind == "optimisation":
        return Optimisation(**kwargs)
    if kind == "decision":
        if "target" not in kwargs:
            raise ValueError("decision searches require a target")
        return Decision(**kwargs)
    raise ValueError(f"unknown search type {kind!r}")
