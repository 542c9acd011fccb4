"""Tests for Unbalanced Tree Search."""

import pytest

from benchmarks.ledger.instances import handwritten_uts_count
from repro.apps.uts import UTSColumns, UTSGen, UTSInstance, UTSNode, uts_spec
from repro.core.searchtypes import Enumeration
from repro.core.sequential import sequential_search
from repro.util.rng import splittable_hash


def count_tree(inst: UTSInstance) -> int:
    spec = uts_spec(inst)
    return sequential_search(spec, Enumeration()).value


class TestInstanceValidation:
    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            UTSInstance(shape="fractal")

    def test_nonpositive_b0(self):
        with pytest.raises(ValueError):
            UTSInstance(b0=0)

    def test_supercritical_binomial_rejected(self):
        with pytest.raises(ValueError):
            UTSInstance(shape="binomial", m=8, q=0.2)  # q*m = 1.6


class TestDeterminism:
    def test_same_seed_same_tree(self):
        a = UTSInstance(shape="geometric", b0=3.0, max_depth=6, seed=5)
        b = UTSInstance(shape="geometric", b0=3.0, max_depth=6, seed=5)
        assert count_tree(a) == count_tree(b)

    def test_different_seed_different_tree(self):
        counts = {
            count_tree(UTSInstance(shape="geometric", b0=3.0, max_depth=6, seed=s))
            for s in range(8)
        }
        assert len(counts) > 1

    def test_children_depend_only_on_node_state(self):
        """Order-independence: re-generating children gives identical nodes."""
        inst = UTSInstance(shape="geometric", b0=3.0, max_depth=5, seed=2)
        spec = uts_spec(inst)
        first = list(spec.children_of(spec.root))
        second = list(spec.children_of(spec.root))
        assert first == second


class TestNode:
    def test_construction_equality_hashing(self):
        node = UTSNode(state=7, depth=2)
        assert (node.state, node.depth) == (7, 2)
        assert node == UTSNode(7, 2) and node != UTSNode(7, 3)
        assert len({node, UTSNode(state=7, depth=2)}) == 1

    @pytest.mark.parametrize("shape", ["geometric", "binomial"])
    def test_children_are_the_splittable_hash_of_state_and_index(self, shape):
        """``UTSGen`` inlines the hash; this pins it to the one
        definition in ``repro.util.rng``."""
        inst = UTSInstance(shape=shape, b0=5.0, max_depth=4, m=3, q=0.3, seed=11)
        frontier = [uts_spec(inst).root]
        for _ in range(50):
            node = frontier.pop()
            kids = UTSGen(inst, node).drain()
            assert list(kids) == [
                UTSNode(state=splittable_hash(node.state, i), depth=node.depth + 1)
                for i in range(len(kids))
            ]
            assert all(type(kid) is UTSNode for kid in kids)
            frontier.extend(kids)
            if not frontier:
                break

    def test_lazy_generator_is_the_column_frame(self):
        inst = UTSInstance(shape="geometric", b0=3.0, max_depth=5, seed=2)
        spec = uts_spec(inst)
        assert spec.generator is UTSGen and issubclass(spec.columns, UTSGen)
        frame = spec.children_of(spec.root)
        assert list(frame.values) == [1] * len(frame.drain()) and not frame.leaves
        assert spec.columns(inst, spec.root).drain() == UTSGen(inst, spec.root).drain()

    @pytest.mark.parametrize("shape", ["geometric", "binomial"])
    def test_only_the_level_above_the_floor_of_a_geometric_tree_is_leaves(self, shape):
        inst = UTSInstance(shape=shape, b0=4.0, max_depth=3, m=4, q=0.2, seed=5)
        level = [uts_spec(inst).root]
        for depth in range(3):
            assert level
            frames = [UTSGen(inst, node) for node in level]
            assert [frame.leaves for frame in frames] == [shape == "geometric" and depth == 2] * len(frames)
            level = [kid for frame in frames for kid in frame.drain()]

    @pytest.mark.parametrize("shape", ["geometric", "binomial"])
    def test_only_two_levels_above_the_floor_of_a_geometric_tree_has_sizes(self, shape):
        """The column frame of a node at ``max_depth - 2`` knows its
        grandchildren's counts; the lazy generator never computes them."""
        inst = UTSInstance(shape=shape, b0=4.0, max_depth=3, m=4, q=0.2, seed=5)
        level = [uts_spec(inst).root]
        for depth in range(3):
            assert level
            frames = [UTSColumns(inst, node) for node in level]
            has_sizes = [frame.sizes is not None for frame in frames]
            assert has_sizes == [shape == "geometric" and depth == 1] * len(frames)
            assert all(frame.sums is frame.sizes for frame in frames)
            assert all(UTSGen(inst, node).sizes is None for node in level)
            level = [kid for frame in frames for kid in frame.drain()]


class TestHandwrittenCounterAgrees:
    """The ledger's framework-free counter (Table 1's enumeration twin)
    walks the same tree: same hash, same child-count expression."""

    @pytest.mark.parametrize("b0, depth, seed", [(4, 7, 1), (3, 8, 12), (5, 6, 1330772960)])
    def test_exact_count(self, b0, depth, seed):
        inst = UTSInstance(shape="geometric", b0=float(b0), max_depth=depth, seed=seed)
        assert count_tree(inst) == handwritten_uts_count(float(b0), depth, seed)


class TestShapes:
    def test_geometric_depth_cutoff(self):
        inst = UTSInstance(shape="geometric", b0=4.0, max_depth=3, seed=1)
        spec = uts_spec(inst)
        stack = [spec.root]
        max_depth = 0
        while stack:
            node = stack.pop()
            max_depth = max(max_depth, node.depth)
            stack.extend(spec.children_of(node))
        assert max_depth <= 3

    def test_binomial_root_branching(self):
        inst = UTSInstance(shape="binomial", b0=50, m=4, q=0.1, seed=3)
        spec = uts_spec(inst)
        assert len(list(spec.children_of(spec.root))) == 50

    def test_binomial_inner_nodes_all_or_nothing(self):
        inst = UTSInstance(shape="binomial", b0=20, m=4, q=0.2, seed=4)
        spec = uts_spec(inst)
        for child in spec.children_of(spec.root):
            kids = list(spec.children_of(child))
            assert len(kids) in (0, 4)

    def test_binomial_tree_finite(self):
        inst = UTSInstance(shape="binomial", b0=100, m=5, q=0.15, seed=6)
        assert count_tree(inst) >= 101

    def test_irregularity(self):
        """Subtree sizes at depth 1 vary widely — the point of UTS."""
        inst = UTSInstance(shape="binomial", b0=30, m=6, q=0.15, seed=8)
        spec = uts_spec(inst)

        def size(node):
            total = 1
            for c in spec.children_of(node):
                total += size(c)
            return total

        sizes = [size(c) for c in spec.children_of(spec.root)]
        assert max(sizes) > min(sizes)


class TestObjective:
    def test_counts_every_node_once(self):
        inst = UTSInstance(shape="geometric", b0=2.5, max_depth=5, seed=9)
        spec = uts_spec(inst)

        def manual(node):
            return 1 + sum(manual(c) for c in spec.children_of(node))

        assert count_tree(inst) == manual(spec.root)
