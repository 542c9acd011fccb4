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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Generic, TypeVar

Space = TypeVar("Space")
Node = TypeVar("Node")

__all__ = ["NodeGenerator", "IterNodeGenerator", "ListNodeGenerator", "GeneratorFactory"]


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
    """A generator over a pre-computed child sequence.

    The adapter from a batched child function (``SearchSpec.children``)
    to the uniform protocol, and the frame the search kernel pushes when
    it drains one by index — which is why ``children`` and ``pos`` are
    public: the kernel advances a local and writes ``pos`` back.
    """

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


# An application supplies a factory: (space, parent) -> NodeGenerator.
GeneratorFactory = Callable[[Space, Node], NodeGenerator[Space, Node]]
