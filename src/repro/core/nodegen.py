"""Lazy Node Generators — the paper's uniform tree-generation API (§4.1).

A Lazy Node Generator enumerates the children of one search-tree node,
*in heuristic order*, materialising each child only when asked.  This is
the single application-specific component of a YewPar search: skeletons
decide *when* to ask for children; generators decide *what* the children
are and in *which order* they should be tried.

The C++ interface is::

    struct NodeGenerator { bool hasNext(); Node next(); }

We keep the same two-method protocol (rather than the Python iterator
protocol) because the coordinations need ``has_next`` as a cheap,
non-consuming probe: Stack-Stealing and Budget scan the generator stack
bottom-up for the first generator that still *has* work before deciding
what to steal or spawn (Listings 3 and 4).

A spec declares its children in one or two forms, both yielding the
same nodes in the same order:

- ``generator`` — the lazy has_next/next frame above; every spec has
  one.  The stepped :class:`~repro.core.tasks.SearchTask` machine, the
  Ordered frontier walk and the kernel's Listing 2 loop (custom search
  types, ``node_size``, lazy-only specs) take it; the split helpers
  take any frame's :meth:`NodeGenerator.drain`.
- ``columns`` — a :class:`ColumnNodeGenerator` factory: a frame that
  knows every child's objective and bound *before* any child exists,
  and may promise that none of its children has children (``leaves``)
  or, one level up, that every grandchild is a leaf, with each child's
  number of children and the sum of their values (``sizes`` and
  ``sums``).  The kernel's two column loops — default-monoid
  Enumeration, and Optimisation/Decision — count, crown and prune from
  the columns and build only the children they expand or crown;
  Enumeration counts the rest of a ``leaves`` frame in one step, and a
  ``sizes`` frame's children whole, each with its leaves.  An
  application's column frame is usually its lazy generator too
  (MaxClique's ``CliqueGen``), or a subclass of it that pays for the
  columns the lazy callers never read (UTS's ``UTSColumns``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Generic, TypeVar

Space = TypeVar("Space")
Node = TypeVar("Node")

__all__ = [
    "NodeGenerator",
    "IterNodeGenerator",
    "ListNodeGenerator",
    "ColumnNodeGenerator",
    "ColumnListGenerator",
    "GeneratorFactory",
]


class NodeGenerator(ABC, Generic[Space, Node]):
    """Lazily enumerates the children of ``node`` in traversal order.

    Subclasses typically capture the search space and the parent node at
    construction time and materialise one child per :meth:`next` call,
    exactly like the MaxClique generator of Listing 1.
    """

    @abstractmethod
    def has_next(self) -> bool:
        """True if at least one more child remains."""

    @abstractmethod
    def next(self) -> Node:
        """The next child; only valid when :meth:`has_next` is True."""

    def drain(self) -> list[Node]:
        """All remaining children, eagerly.  Used when a coordination
        spawns every remaining sibling at once ((spawn-budget), and
        chunked Stack-Stealing)."""
        out = []
        while self.has_next():
            out.append(self.next())
        return out

    def __iter__(self) -> Iterator[Node]:
        while self.has_next():
            yield self.next()


class IterNodeGenerator(NodeGenerator[Any, Node]):
    """Adapts a Python iterator/generator to the NodeGenerator protocol.

    Python generator functions are the natural way to write lazy child
    enumerations (``yield`` one child at a time); this adapter adds the
    non-consuming ``has_next`` probe by buffering one lookahead element.
    """

    __slots__ = ("_it", "_buffered", "_buffer")

    def __init__(self, iterator: Iterator[Node]) -> None:
        self._it = iter(iterator)
        self._buffered = False
        self._buffer: Node | None = None

    def has_next(self) -> bool:
        if self._buffered:
            return True
        try:
            self._buffer = next(self._it)
        except StopIteration:
            return False
        self._buffered = True
        return True

    def next(self) -> Node:
        if not self.has_next():
            raise StopIteration("generator exhausted")
        self._buffered = False
        out = self._buffer
        self._buffer = None
        return out  # type: ignore[return-value]


class ListNodeGenerator(NodeGenerator[Any, Node]):
    """A generator over a pre-computed child sequence: what a split
    helper leaves where it could not put a generator's children back,
    and the simplest lazy generator of a tree whose children are
    already lists."""

    __slots__ = ("children", "pos")

    def __init__(self, children: Sequence[Node]) -> None:
        self.children = children
        self.pos = 0

    def has_next(self) -> bool:
        return self.pos < len(self.children)

    def next(self) -> Node:
        if not self.has_next():
            raise StopIteration("generator exhausted")
        child = self.children[self.pos]
        self.pos += 1
        return child

    def drain(self) -> Sequence[Node]:
        out = self.children[self.pos :]
        self.pos = len(self.children)
        return out


class ColumnNodeGenerator(NodeGenerator[Space, Node]):
    """A generator whose children are priced before they are built.

    ``values[i]`` is the objective of child ``i`` and ``bounds[i]`` its
    admissible upper bound (``math.inf`` where the application has
    none), for all children at once and in generator order; both are
    known at construction.  For the kernel's column loops ``values[i]``
    *is* the objective: they never call ``SearchSpec.objective`` on a
    child.  ``build(i)`` constructs child ``i`` and leaves ``pos`` at
    ``i + 1``.  Calls come with ascending ``i``, never below ``pos``, at
    most once per child, and may leave gaps: a child that is skipped is
    never built.  ``next()`` is ``build(pos)``, so the frame is still
    the has_next/next generator every other caller drains — one that
    yields the children not yet built or skipped.

    ``leaves`` promises that no child of the frame has children (the
    default, ``False``, promises nothing): default-monoid Enumeration
    then counts them from ``values`` without building one.

    ``sizes`` promises the same one level further down: ``sizes[i]`` is
    the number of children of child ``i``, none of which has children,
    and ``sums[i]`` the sum of their values (the default, ``None``,
    promises nothing; an application whose nodes are all worth 1 may
    pass one list for both).  Default-monoid Enumeration then counts
    child ``i`` and its ``sizes[i]`` leaves in one step, and builds it
    only when a poll falls inside that subtree.

    ``pos`` is public because the search kernel walks the columns with
    a local index and writes it back — past children it pruned or
    counted without building — before anyone else may look at the
    frame.
    """

    __slots__ = ()

    values: Sequence[int]
    bounds: Sequence[Any]
    pos: int
    leaves = False
    sizes: Sequence[int] | None = None
    sums: Sequence[int] | None = None

    @abstractmethod
    def build(self, i: int) -> Node:
        """Child ``i``; afterwards ``pos == i + 1``."""

    def has_next(self) -> bool:
        return self.pos < len(self.values)

    def next(self) -> Node:
        if self.pos >= len(self.values):
            raise StopIteration("generator exhausted")
        return self.build(self.pos)


class ColumnListGenerator(ColumnNodeGenerator[Any, Node]):
    """Children that already exist, beside the two columns the search
    kernel filled from the spec's ``objective`` and ``upper_bound``:
    how the kernel's column loops take back a frame a split helper
    replaced with a plain :class:`ListNodeGenerator`."""

    __slots__ = ("children", "values", "bounds", "pos")

    def __init__(
        self, children: Sequence[Node], values: Sequence[int], bounds: Sequence[Any]
    ) -> None:
        self.children = children
        self.values = values
        self.bounds = bounds
        self.pos = 0

    def build(self, i: int) -> Node:
        self.pos = i + 1
        return self.children[i]


# An application supplies a factory: (space, parent) -> NodeGenerator.
GeneratorFactory = Callable[[Space, Node], NodeGenerator[Space, Node]]
