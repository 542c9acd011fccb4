"""Tests for the order-preserving workpool disciplines."""

import pytest

from repro.runtime.workpool import Workpool


class TestOrderDiscipline:
    def test_pops_shallowest_first(self):
        p = Workpool("order")
        p.push("deep", depth=5)
        p.push("shallow", depth=1)
        assert p.pop() == "shallow"
        assert p.pop() == "deep"

    def test_ties_by_spawn_order(self):
        p = Workpool("order")
        p.push("first", depth=2)
        p.push("second", depth=2)
        assert p.pop() == "first"
        assert p.pop() == "second"

    def test_preserves_heuristic_order_within_depth(self):
        # Tasks spawned in traversal order come back in traversal order
        # — the property that deque-based stealing breaks (§2.3).
        p = Workpool("order")
        for i in range(10):
            p.push(f"t{i}", depth=3)
        assert [p.pop() for _ in range(10)] == [f"t{i}" for i in range(10)]




class TestDepthDiscipline:
    """The pool a real Budget worker owns: both ends of a depth pool."""

    def test_owner_pops_deepest_first_in_spawn_order(self):
        # Offcuts of one root-to-leaf path, as budget trips push them:
        # the owner takes them back in the order the sequential search
        # would have reached them.
        p = Workpool("depth")
        for i in range(2):
            p.push(f"d1-{i}", depth=1)
        for i in range(3):
            p.push(f"d4-{i}", depth=4)
        p.push("d2", depth=2)
        assert [p.pop() for _ in range(6)] == [
            "d4-0", "d4-1", "d4-2", "d2", "d1-0", "d1-1",
        ]
        assert p.pop() is None

    def test_thief_takes_the_whole_shallowest_level_in_order(self):
        # What a starving peer is handed: every task nearest the root,
        # siblings in spawn order; deeper levels stay home.
        p = Workpool("depth")
        p.push("d3", depth=3)
        for i in range(3):
            p.push(f"d1-{i}", depth=1)
        p.push("d2", depth=2)
        assert p.pop_shallowest() == ["d1-0", "d1-1", "d1-2"]
        assert len(p) == 2
        assert p.pop() == "d3"  # the owner's end is untouched
        assert p.pop_shallowest() == ["d2"]
        assert p.pop_shallowest() == []
        assert not p

    def test_shallowest_level_under_the_order_discipline(self):
        p = Workpool("order")
        p.push("deep", depth=5)
        p.push("a", depth=1)
        p.push("b", depth=1)
        assert p.pop_shallowest() == ["a", "b"]
        assert p.pop() == "deep"


class TestLifoDiscipline:
    def test_most_recent_first(self):
        p = Workpool("lifo")
        p.push("old", depth=1)
        p.push("new", depth=9)
        assert p.pop() == "new"


class TestFifoDiscipline:
    def test_spawn_order_ignores_depth(self):
        p = Workpool("fifo")
        p.push("deep-but-first", depth=9)
        p.push("shallow-later", depth=0)
        assert p.pop() == "deep-but-first"


class TestCommon:
    def test_empty_pop_returns_none(self):
        assert Workpool().pop() is None

    def test_len_and_bool(self):
        p = Workpool()
        assert not p and len(p) == 0
        p.push("t", depth=0)
        assert p and len(p) == 1

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError):
            Workpool("random")
