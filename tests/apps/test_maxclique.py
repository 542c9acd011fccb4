"""Tests for Maximum Clique: colouring, generator, search, baselines."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.graph import Graph
from repro.apps.maxclique import (
    CliqueGen,
    CliqueNode,
    degree_order,
    greedy_colour,
    maxclique_spec,
    sequential_maxclique_specialised,
)
from repro.core.searchtypes import Optimisation
from repro.core.sequential import sequential_search
from repro.instances.graphs import cycle_graph, planted_clique, uniform_graph
from repro.util.bitset import bit_indices, count_bits, mask_below


def brute_force_max_clique(g: Graph) -> int:
    """Exponential oracle for tiny graphs."""
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(g.n), r):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if g.subgraph_is_clique(bits):
                best = max(best, r)
                break
    return best


small_graphs = st.builds(
    uniform_graph,
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=200),
)


class TestGreedyColour:
    def test_empty_set(self):
        g = uniform_graph(5, 0.5, 1)
        p_vertex, p_colour = greedy_colour(g, 0)
        assert p_vertex == [] and p_colour == []

    def test_enumerates_candidates(self):
        g = cycle_graph(5)
        p_vertex, p_colour = greedy_colour(g, mask_below(5))
        assert sorted(p_vertex) == [0, 1, 2, 3, 4]

    def test_colour_counts_monotone(self):
        g = uniform_graph(12, 0.6, 3)
        _, p_colour = greedy_colour(g, mask_below(12))
        assert all(a <= b for a, b in zip(p_colour, p_colour[1:]))

    def test_colour_classes_independent(self):
        g = uniform_graph(12, 0.6, 4)
        p_vertex, p_colour = greedy_colour(g, mask_below(12))
        by_colour = {}
        for v, c in zip(p_vertex, p_colour):
            by_colour.setdefault(c, []).append(v)
        # vertices *newly* added at colour c form an independent set
        seen = set()
        for c in sorted(by_colour):
            fresh = [v for v in by_colour[c] if v not in seen]
            for a in fresh:
                for b in fresh:
                    if a != b:
                        assert not g.has_edge(a, b)
            seen.update(fresh)

    @given(small_graphs)
    def test_colours_upper_bound_clique(self, g):
        # The number of colours bounds the clique number from above.
        if g.n == 0:
            return
        _, p_colour = greedy_colour(g, mask_below(g.n))
        assert p_colour[-1] >= brute_force_max_clique(g)


def naive_greedy_colour(g: Graph, candidates: set):
    """Set-based reference for the bit-twiddled ``greedy_colour``: fill
    colour classes greedily, lowest vertex first, each class an
    independent set — the definition, executed literally."""
    p_vertex, p_colour = [], []
    uncoloured = set(candidates)
    colour = 0
    while uncoloured:
        colour += 1
        available = set(uncoloured)
        while available:
            v = min(available)
            p_vertex.append(v)
            p_colour.append(colour)
            uncoloured.discard(v)
            available = {u for u in available if u != v and not g.has_edge(u, v)}
    return p_vertex, p_colour


class TestGreedyColourAgainstReference:
    """Fixed-seed corpus: the production colouring must equal the naive
    set-based reference exactly — same vertex order, same colours."""

    CASES = [(n, p, seed) for seed, (n, p) in enumerate(
        [(1, 0.5), (5, 0.0), (5, 1.0), (8, 0.3), (10, 0.5),
         (12, 0.7), (14, 0.4), (16, 0.6), (20, 0.5), (24, 0.35)]
    )]

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_full_vertex_set_matches_reference(self, n, p, seed):
        g = uniform_graph(n, p, seed)
        assert greedy_colour(g, mask_below(n)) == naive_greedy_colour(
            g, set(range(n))
        )

    def test_random_candidate_subsets_match_reference(self):
        from repro.util.bitset import bitset_from_iterable
        from repro.util.rng import SplitMix64

        rng = SplitMix64(0xC0105)
        for _ in range(30):
            n = 6 + rng.randrange(12)
            g = uniform_graph(n, 0.3 + 0.05 * rng.randrange(9), rng.randrange(1000))
            cands = {v for v in range(n) if rng.randrange(2)}
            assert greedy_colour(g, bitset_from_iterable(cands)) == (
                naive_greedy_colour(g, cands)
            )

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_every_candidate_coloured_exactly_once(self, n, p, seed):
        g = uniform_graph(n, p, seed)
        p_vertex, p_colour = greedy_colour(g, mask_below(n))
        assert sorted(p_vertex) == list(range(n))
        assert len(p_vertex) == len(p_colour)
        assert p_colour == sorted(p_colour)  # classes filled in order


class TestCliqueGen:
    def test_children_extend_clique_by_one(self):
        g = uniform_graph(8, 0.7, 5)
        spec = maxclique_spec(g, order_by_degree=False)
        gen = CliqueGen(g, spec.root)
        while gen.has_next():
            child = gen.next()
            assert child.size == 1
            assert count_bits(child.clique) == 1

    def test_candidates_all_adjacent_to_clique(self):
        g = uniform_graph(10, 0.6, 6)
        spec = maxclique_spec(g, order_by_degree=False)
        gen = CliqueGen(g, spec.root)
        while gen.has_next():
            child = gen.next()
            v = next(bit_indices(child.clique))
            for c in bit_indices(child.candidates):
                assert g.has_edge(v, c)

    def test_children_are_cliques_throughout_tree(self):
        g = uniform_graph(9, 0.6, 7)
        spec = maxclique_spec(g)
        graph = spec.space
        stack = [spec.root]
        while stack:
            node = stack.pop()
            assert graph.subgraph_is_clique(node.clique)
            gen = CliqueGen(graph, node)
            stack.extend(list(gen))

    def test_heuristic_order_best_colour_first(self):
        g = uniform_graph(10, 0.5, 8)
        spec = maxclique_spec(g, order_by_degree=False)
        gen = CliqueGen(g, spec.root)
        bounds = [gen.next().bound for _ in range(3) if gen.has_next()]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def listing1_children(graph, parent):
    """Listing 1's generator written out as a loop, every child built:
    what ``CliqueGen`` must yield, in order."""
    remaining = parent.candidates
    p_vertex, p_colour = greedy_colour(graph, remaining)
    out = []
    for k in range(len(p_vertex) - 1, -1, -1):
        v = p_vertex[k]
        remaining &= ~(1 << v)
        out.append(CliqueNode(
            parent.clique | (1 << v), parent.size + 1, remaining & graph.adj[v], p_colour[k]
        ))
    return out


def fields(nodes):
    return [(c.clique, c.size, c.candidates, c.bound) for c in nodes]


class TestBatchedChildrenMatchTheGenerator:
    """MaxClique declares one child class in two roles (Listing 1's
    lazy generator and the kernel's column frame); k-clique and the
    library instances share the spec, so this pins them all."""

    @given(small_graphs, st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_same_children_same_order_on_every_node(self, g, order_by_degree, rnd):
        spec = maxclique_spec(g, order_by_degree=order_by_degree)
        assert spec.generator is CliqueGen and spec.columns is CliqueGen
        assert not spec.columns(spec.space, spec.root).leaves
        stack = [spec.root]
        while stack:
            node = stack.pop()
            expected = listing1_children(spec.space, node)
            assert fields(spec.generator(spec.space, node).drain()) == fields(expected)
            # The columns price every child before it exists.
            frame = spec.columns(spec.space, node)
            assert list(frame.values) == [spec.objective(c) for c in expected]
            assert list(frame.bounds) == [spec.bound(c) for c in expected]
            # Built with gaps, each child is the one the lazy walk
            # yields at that position, and the generator carries on
            # from behind the last one built.
            picked = sorted(rnd.sample(range(len(expected)), rnd.randint(0, len(expected))))
            assert fields(frame.build(i) for i in picked) == fields(expected[i] for i in picked)
            resume = picked[-1] + 1 if picked else 0
            assert frame.pos == resume and frame.has_next() == (resume < len(expected))
            if frame.has_next():
                assert fields([frame.next()]) == fields(expected[resume : resume + 1])
            assert fields(frame.drain()) == fields(expected[resume + 1 :])
            stack.extend(expected)


class TestSearchCorrectness:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_matches_brute_force(self, g):
        spec = maxclique_spec(g)
        res = sequential_search(spec, Optimisation())
        assert res.value == brute_force_max_clique(g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_witness_is_clique_of_reported_size(self, g):
        spec = maxclique_spec(g)
        res = sequential_search(spec, Optimisation())
        relabelled = spec.space
        assert relabelled.subgraph_is_clique(res.node.clique)
        assert count_bits(res.node.clique) == res.value

    def test_planted_clique_found(self):
        g = planted_clique(30, 0.3, 9, seed=17)
        res = sequential_search(maxclique_spec(g), Optimisation())
        assert res.value >= 9

    def test_cycle_graph(self):
        res = sequential_search(maxclique_spec(cycle_graph(7)), Optimisation())
        assert res.value == 2

    def test_complete_graph(self):
        g = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        res = sequential_search(maxclique_spec(g), Optimisation())
        assert res.value == 5

    def test_empty_graph(self):
        res = sequential_search(maxclique_spec(Graph(4)), Optimisation())
        assert res.value == 1  # a single vertex is a 1-clique


class TestSpecialisedBaseline:
    @settings(max_examples=30, deadline=None)
    @given(small_graphs)
    def test_same_answer_as_skeleton(self, g):
        spec_res = sequential_maxclique_specialised(g)
        res = sequential_search(maxclique_spec(g), Optimisation())
        assert spec_res.size == res.value

    @settings(max_examples=30, deadline=None)
    @given(small_graphs)
    def test_same_tree_as_skeleton(self, g):
        """The Table 1 premise: both implementations explore the same
        tree, so runtime differences are pure abstraction overhead."""
        spec_res = sequential_maxclique_specialised(g)
        res = sequential_search(maxclique_spec(g), Optimisation())
        assert spec_res.nodes == res.metrics.nodes

    def test_same_tree_on_bigger_instance(self):
        g = uniform_graph(35, 0.5, 23)
        spec_res = sequential_maxclique_specialised(g)
        res = sequential_search(maxclique_spec(g), Optimisation())
        assert spec_res.nodes == res.metrics.nodes
        assert spec_res.size == res.value

    def test_decision_target_short_circuits(self):
        g = planted_clique(30, 0.3, 9, seed=17)
        full = sequential_maxclique_specialised(g)
        early = sequential_maxclique_specialised(g, target=5)
        assert early.size >= 5
        assert early.nodes <= full.nodes

    def test_witness_is_clique(self):
        g = uniform_graph(20, 0.5, 29)
        res = sequential_maxclique_specialised(g, order_by_degree=False)
        assert g.subgraph_is_clique(res.clique)
        assert count_bits(res.clique) == res.size


class TestDegreeOrder:
    def test_non_increasing(self):
        g = uniform_graph(15, 0.4, 31)
        order = degree_order(g)
        degs = [g.degree(v) for v in order]
        assert degs == sorted(degs, reverse=True)

    def test_is_permutation(self):
        g = uniform_graph(15, 0.4, 31)
        assert sorted(degree_order(g)) == list(range(15))
