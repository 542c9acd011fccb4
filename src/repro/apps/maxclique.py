"""Maximum Clique — the paper's flagship optimisation application.

Implements the state-of-the-art branch-and-bound algorithm of Listing 1
(McCreesh & Prosser's MCSa1 [26]): nodes carry the current clique, the
candidate set, and a greedy-colouring upper bound; the Lazy Node
Generator colours the parent's candidates and yields children in
*reverse colour order* (heuristically best first), pruning any child
whose ``size + colour bound`` cannot beat the incumbent.

Besides the skeleton-ready :func:`maxclique_spec`, the module provides
:func:`sequential_maxclique_specialised` — a hand-specialised in-place
recursive solver of the same algorithm.  It plays the role of the
hand-written C++ implementation [25] in Table 1: comparing its wall time
against the Sequential skeleton measures the cost of the generator
abstraction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.apps.graph import Graph
from repro.core.nodegen import ColumnNodeGenerator
from repro.core.space import SearchSpec
from repro.util.bitset import bit_indices, count_bits, mask_below

__all__ = [
    "CliqueNode",
    "CliqueGen",
    "greedy_colour",
    "maxclique_spec",
    "degree_order",
    "sequential_maxclique_specialised",
    "SpecialisedResult",
]


def degree_order(graph: Graph) -> list[int]:
    """Vertices by non-increasing degree (ties by index) — the standard
    initial heuristic order for clique search [26]."""
    return sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))


def greedy_colour(graph: Graph, candidates: int, base: int = 0) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of the subgraph induced by ``candidates``.

    Returns ``(p_vertex, p_colour)`` exactly as in Listing 1:
    ``p_vertex`` enumerates the candidate vertices colour class by
    colour class, and ``p_colour[i]`` is the number of colours used to
    colour ``p_vertex[0..i]`` — an upper bound on the clique extension
    possible within ``p_vertex[0..i]``.  Iterating ``p_vertex`` in
    *reverse* visits the highest-colour (heuristically best) vertex
    first.  Colours are counted from ``base``: with the size of the
    clique the candidates extend, ``p_colour`` is the bound on the whole
    clique.
    """
    p_vertex: list[int] = []
    p_colour: list[int] = []
    # Hot helper: called once per tree node.  The loop works on the
    # lowest set bit directly (no repeated ``1 << v`` shifts — clearing
    # is an xor with the isolated bit) and removes same-colour-class
    # neighbours with the graph's precomputed ``~adj`` masks.
    inv_adj = graph.inverted_adj()
    vertex_append = p_vertex.append
    colour_append = p_colour.append
    uncoloured = candidates
    colour = base
    while uncoloured:
        colour += 1
        available = uncoloured
        while available:
            low = available & -available  # isolated lowest bit
            v = low.bit_length() - 1
            vertex_append(v)
            colour_append(colour)
            uncoloured ^= low
            # same colour class must be independent
            available = (available ^ low) & inv_adj[v]
    return p_vertex, p_colour


class CliqueNode:
    """A search-tree node: current clique, candidates, and colour bound.

    ``bound`` is the number of colours the parent's colouring used up to
    this vertex — an admissible bound on how many vertices can still
    join the clique (Listing 1's ``Node::bound``).

    A plain __slots__ class rather than a dataclass: one is allocated
    per tree node, so constructor cost is squarely on Table 1's
    "overhead of generality" path.
    """

    __slots__ = ("clique", "size", "candidates", "bound")

    def __init__(self, clique: int, size: int, candidates: int, bound: int) -> None:
        self.clique = clique  # bitset of clique vertices
        self.size = size  # == popcount(clique), cached
        self.candidates = candidates  # bitset of vertices adjacent to all of clique
        self.bound = bound  # colour bound on extensions

    def vertices(self) -> list[int]:
        """The clique as a sorted vertex list."""
        return list(bit_indices(self.clique))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CliqueNode)
            and self.clique == other.clique
            and self.candidates == other.candidates
        )

    def __hash__(self) -> int:
        return hash((self.clique, self.candidates))

    def __repr__(self) -> str:
        return (
            f"CliqueNode(size={self.size}, clique={bin(self.clique)}, "
            f"bound={self.bound})"
        )


class CliqueGen(ColumnNodeGenerator[Graph, CliqueNode]):
    """Lazy Node Generator for Maximum Clique (Listing 1's ``Gen``).

    The one colouring of the parent's candidates prices every child:
    child ``i`` (reverse colour order) has ``size + 1`` vertices and
    can reach at most ``size + 1 + colours``, so both columns are known
    before any child exists and ``build`` runs only for a child the
    search expands or crowns — Listing 1's ``next()``, reached after
    the bound check.  ``clique`` is the parent's and ``size`` the
    children's; ``remaining`` has the vertices of children
    ``0..stripped-1`` taken out, and a child skipped unbuilt is stripped
    when a later one is built.
    """

    __slots__ = (
        "adj", "clique", "size", "vertices", "values", "bounds", "pos", "remaining", "stripped",
    )

    def __init__(self, graph: Graph, parent: CliqueNode) -> None:
        self.adj = graph.adj
        self.clique = parent.clique
        self.size = size = parent.size + 1
        self.remaining = parent.candidates
        vertices, bounds = greedy_colour(graph, parent.candidates, size)
        vertices.reverse()
        bounds.reverse()
        self.vertices = vertices
        self.values = [size] * len(vertices)
        self.bounds = bounds
        self.pos = self.stripped = 0

    def build(self, i: int) -> CliqueNode:
        self.pos = i
        return self.next()

    def next(self) -> CliqueNode:
        i = self.pos
        vertices = self.vertices
        remaining = self.remaining
        k = self.stripped
        while k < i:  # skipped unbuilt
            remaining ^= 1 << vertices[k]
            k += 1
        v = vertices[i]
        bit = 1 << v
        self.remaining = remaining = remaining ^ bit
        self.pos = self.stripped = i + 1
        size = self.size
        return CliqueNode(self.clique | bit, size, remaining & self.adj[v], self.bounds[i] - size)

    def drain(self) -> list[CliqueNode]:
        """``next()`` to exhaustion as one loop, stripping the children
        skipped unbuilt on the way: the Ordered frontier walk and the
        split helpers take every child not yet built."""
        vertices, bounds, adj, clique, size = self.vertices, self.bounds, self.adj, self.clique, self.size
        remaining, pos, out = self.remaining, self.pos, []
        for i in range(self.stripped, len(vertices)):
            v = vertices[i]
            bit = 1 << v
            remaining ^= bit
            if i >= pos:
                out.append(CliqueNode(clique | bit, size, remaining & adj[v], bounds[i] - size))
        self.remaining = remaining
        self.pos = self.stripped = len(vertices)
        return out


def _root_node(graph: Graph) -> CliqueNode:
    candidates = mask_below(graph.n)
    _, p_colour = greedy_colour(graph, candidates)
    root_bound = p_colour[-1] if p_colour else 0
    return CliqueNode(clique=0, size=0, candidates=candidates, bound=root_bound)


def maxclique_spec(graph: Graph, *, name: str = "maxclique", order_by_degree: bool = True) -> SearchSpec:
    """Build the MaxClique :class:`SearchSpec` for ``graph``.

    With ``order_by_degree`` the graph is relabelled into non-increasing
    degree order first, which is part of the published algorithm's
    heuristic; disable it only for tests that need fixed labels.
    Works unchanged for the k-Clique decision variant — pair it with a
    ``Decision(target=k)`` search type (see :mod:`repro.apps.kclique`).
    """
    if order_by_degree:
        graph = graph.relabel(degree_order(graph))
    return SearchSpec(
        name=name,
        space=graph,
        root=_root_node(graph),
        generator=CliqueGen,
        columns=CliqueGen,
        objective=lambda node: node.size,
        upper_bound=lambda g, node: node.size + node.bound,
        witness_check=lambda g, node: (
            g.subgraph_is_clique(node.clique)
            and count_bits(node.clique) == node.size
        ),
    )


@dataclass
class SpecialisedResult:
    """Outcome of the hand-specialised solver (Table 1 baseline)."""

    size: int
    clique: int  # bitset in the *relabelled* vertex numbering
    nodes: int
    prunes: int
    wall_time: float


def sequential_maxclique_specialised(
    graph: Graph, *, order_by_degree: bool = True, target: Optional[int] = None
) -> SpecialisedResult:
    """Hand-written MaxClique: same algorithm, no framework.

    In-place recursion, no node objects, no generator allocation — the
    Python analogue of the hand-crafted C++ implementation the paper
    compares against in Table 1.  Explores the same tree in the same
    order as the Sequential skeleton over :func:`maxclique_spec` (tests
    assert identical node counts), so any runtime difference is pure
    abstraction overhead.

    ``target`` turns it into the k-clique decision solver: the search
    stops as soon as a clique of ``target`` vertices is found.
    """
    if order_by_degree:
        graph = graph.relabel(degree_order(graph))
    adj = graph.adj
    best_size = 0
    best_clique = 0
    nodes = 0
    prunes = 0
    done = False

    def expand(clique: int, size: int, candidates: int) -> None:
        nonlocal best_size, best_clique, nodes, prunes, done
        p_vertex, p_colour = greedy_colour(graph, candidates)
        remaining = candidates
        for k in range(len(p_vertex) - 1, -1, -1):
            if done:
                return
            v = p_vertex[k]
            remaining &= ~(1 << v)
            child_clique = clique | (1 << v)
            child_size = size + 1
            nodes += 1
            if child_size > best_size:
                best_size = child_size
                best_clique = child_clique
                if target is not None and best_size >= target:
                    done = True
                    return
            if child_size + p_colour[k] <= best_size or (
                target is not None and child_size + p_colour[k] < target
            ):
                prunes += 1
                continue
            child_candidates = remaining & adj[v]
            if child_candidates:
                expand(child_clique, child_size, child_candidates)

    started = time.perf_counter()
    nodes += 1  # the root is a visited node, matching the skeleton count
    expand(0, 0, mask_below(graph.n))
    elapsed = time.perf_counter() - started
    return SpecialisedResult(
        size=best_size, clique=best_clique, nodes=nodes, prunes=prunes, wall_time=elapsed
    )
