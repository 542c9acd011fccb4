"""Search application specifications.

A :class:`SearchSpec` bundles everything application-specific: the
search space, the root node, the Lazy Node Generator factory, the
objective function, and (for branch-and-bound searches) the upper-bound
function used for pruning.  Composing a spec with a skeleton yields a
runnable search application, mirroring Figure 3:

    Search Application = Search Skeleton + Lazy Node Generator
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.nodegen import ColumnNodeGenerator, GeneratorFactory

__all__ = ["SearchSpec"]


@dataclass(frozen=True)
class SearchSpec:
    """Application-specific inputs to a search skeleton.

    Attributes:
        name: human-readable application/instance label.
        space: the (immutable, shared) search space, e.g. a graph.
        root: the root search-tree node.
        generator: factory ``(space, node) -> NodeGenerator`` producing
            the node's children in heuristic order.
        columns: optional column form, ``(space, node) ->``
            :class:`~repro.core.nodegen.ColumnNodeGenerator`: a frame
            holding ``values[i] == objective(child i)`` and
            ``bounds[i] == upper_bound(space, child i)`` for every child
            in ``generator`` order, which builds child ``i`` only on
            ``build(i)``; it may be the same class as ``generator``.
            The kernel's column loops read ``values`` *instead of*
            calling ``objective``: a copy with another ``objective``
            must also set ``columns=None``.  :mod:`repro.core.nodegen`
            says which caller takes which form.
        objective: ``h(node)`` — the value maximised by optimisation and
            decision searches, and summed by enumeration searches.  Must
            be monotone non-decreasing along the orders required by the
            search type (§3.2).  With ``columns`` declared it must agree
            with ``values``: the column loops take a child's objective
            from there, everything else from here.
        upper_bound: optional ``(space, node) -> value``; an admissible
            bound on the objective of every node in the subtree rooted at
            ``node``.  Enables the (prune) rule; omit it and searches are
            exhaustive.
        node_size: optional ``(node) -> int`` cost weight used by the
            simulator's cost model; defaults to 1 per node.
        witness_check: optional ``(space, node) -> bool`` verifying that
            a witness node structurally is what it claims to be (a real
            clique / tour / embedding).  Used by
            :func:`repro.core.results.validate_result` so search results
            can be certified independently of the search that produced
            them.
    """

    name: str
    space: Any
    root: Any
    generator: GeneratorFactory
    objective: Callable[[Any], int]
    upper_bound: Optional[Callable[[Any, Any], int]] = None
    node_size: Optional[Callable[[Any], int]] = None
    witness_check: Optional[Callable[[Any, Any], bool]] = None
    columns: Optional[Callable[[Any, Any], ColumnNodeGenerator]] = None

    def children_of(self, node: Any):
        """Construct a generator for ``node`` (convenience for drivers)."""
        return self.generator(self.space, node)

    def bound(self, node: Any) -> int:
        """The admissible upper bound of ``node`` (requires upper_bound)."""
        if self.upper_bound is None:
            raise ValueError(f"spec {self.name!r} has no upper-bound function")
        return self.upper_bound(self.space, node)

    @property
    def can_prune(self) -> bool:
        return self.upper_bound is not None
