"""Tests for the search kernel (repro.core.kernel.search_subtree).

The kernel is the one traversal loop every real runtime calls, so it is
held to the stepped SearchTask machine — which shares no code with it —
counter for counter, and its two callbacks to the contract the runtimes
build on: poll cadence, in-place splitting, bound refresh, and
exceptions as the only way out.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.cluster.local import cluster_search
from repro.core.kernel import search_subtree
from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.core.sequential import sequential_search_stepped
from repro.core.tasks import split_lowest_inlined, split_one_inlined
from repro.runtime.processes import (
    make_stype,
    multiprocessing_budget_search,
    multiprocessing_stacksteal_search,
)
from repro.util.rng import SplitMix64
from repro.verify.generators import (
    FAMILIES,
    instance_spec,
    sample_instance,
    search_setup,
)
from tests.conftest import make_toy_spec


def run_kernel(spec, stype, **hooks):
    return search_subtree(
        spec, stype, spec.root, 0, stype.initial_knowledge(spec), **hooks
    )


def lazy_only(spec):
    """The same instance without its batched ``children`` form, so the
    kernel takes the has_next/next drain."""
    return dataclasses.replace(spec, children=None)


def both_drains(spec):
    """The instance as declared and lazy-only; the hook and equality
    tests loop over this inside the test, so their ids stay put."""
    return spec, lazy_only(spec)


def assert_matches_machine(spec, stype):
    """Both drains against the stepped machine: value, witness, goal
    and every SearchMetrics field."""
    ref = sequential_search_stepped(spec, stype)
    for drained in both_drains(spec):
        knowledge, goal, m = run_kernel(drained, stype)
        if stype.kind == "enumeration":
            assert knowledge == ref.value
        else:
            assert (knowledge.value, knowledge.node) == (ref.value, ref.node)
            assert goal == bool(ref.found)
        assert dataclasses.asdict(m) == dataclasses.asdict(ref.metrics)


class TestBitIdenticalToSteppedMachine:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_every_search_type(self, family):
        rng = SplitMix64(0xC0FFEE)
        for _ in range(4):
            spec, _, _ = search_setup(sample_instance(family, rng))
            optimum = sequential_search_stepped(spec, Optimisation()).value
            for stype in (
                Enumeration(),
                Optimisation(),
                Decision(target=optimum),  # found
                Decision(target=optimum + 1),  # refuted
                Decision(target=0),  # met by the root itself
            ):
                assert_matches_machine(spec, stype)

    def test_node_size_weighting(self):
        spec = dataclasses.replace(
            instance_spec("maxclique", (14, 60, 3)),
            node_size=lambda node: 1 + len(repr(node)) % 5,
        )
        for stype in (Enumeration(), Optimisation()):
            assert_matches_machine(spec, stype)
        weighted = run_kernel(spec, Enumeration())[2]
        assert weighted.weighted_nodes > weighted.nodes

    def test_the_stock_types_take_the_batched_drain(self):
        """The equalities above would hold trivially if nothing were
        ever drained by index."""
        calls = []

        def spy(factory):
            def counted(space, node):
                calls.append(factory)
                return factory(space, node)
            return counted

        for family, args in (("uts", (3, 5, 2)), ("maxclique", (12, 60, 1))):
            spec = instance_spec(family, args)
            spied = dataclasses.replace(
                spec, children=spy(spec.children), generator=spy(spec.generator)
            )
            for stype in (Enumeration(), Optimisation(), Decision(target=3)):
                del calls[:]
                run_kernel(spied, stype)
                assert set(calls) == {spec.children}
            del calls[:]
            run_kernel(spied, Enumeration(objective=lambda node: 1))
            assert set(calls) == {spec.generator}


def batched_toy_spec(children, *, with_bound):
    """conftest's explicit-tree spec (objective = position of the node
    in breadth-first order, tightest admissible bound) plus the batched
    form of its generator."""
    names, queue = [], ["root"]
    while queue:
        names.append(queue.pop(0))
        queue.extend(children.get(names[-1], ()))
    spec = make_toy_spec(children, {n: i for i, n in enumerate(names)}, with_bound=with_bound)
    return dataclasses.replace(
        spec, children=lambda tree, node: tree.children.get(node, ())
    )


class TestChildlessNodesAreNotPushed:
    """The batched drains never build a frame for an empty child list
    but count it: one backtrack, one level of depth."""

    # The deepest node (g) and six of the seven non-root nodes are leaves.
    BUSHY = {"root": ["a", "b", "c"], "b": ["d", "e", "f"], "f": ["g"]}
    CHAIN = {"root": ["a"], "a": ["b"], "b": ["c"]}

    @pytest.mark.parametrize("with_bound", [False, True])
    @pytest.mark.parametrize("tree", [BUSHY, CHAIN, {"root": ["a"]}, {}])
    def test_backtracks_and_depth_match_the_machine(self, tree, with_bound):
        spec = batched_toy_spec(tree, with_bound=with_bound)
        for stype in (Enumeration(), Optimisation(), Decision(target=5)):
            assert_matches_machine(spec, stype)

    def test_no_frame_is_born_empty(self):
        frames = []
        m = run_kernel(
            batched_toy_spec(self.BUSHY, with_bound=False), Enumeration(), poll=1,
            on_poll=lambda stack: frames.extend(stack[1:]),
        )[2]
        assert frames and all(len(frame.children) > 0 for frame in frames)
        assert (m.nodes, m.backtracks, m.max_depth) == (8, 8, 4)


UTS = instance_spec("uts", (3, 6, 4))  # 359 nodes, no pruning


class TestPollHook:
    @pytest.mark.parametrize("poll", [1, 7, 64])
    def test_fires_every_poll_nodes_with_the_live_stack(self, poll):
        for spec in both_drains(UTS):
            seen = []

            def on_poll(stack):
                assert all(hasattr(gen, "has_next") for gen in stack)
                seen.append((id(stack), len(stack)))

            m = run_kernel(spec, Enumeration(), poll=poll, on_poll=on_poll)[2]
            assert m.nodes > 64
            assert len(seen) == (m.nodes - 1) // poll
            assert len({ident for ident, _ in seen}) == 1  # one list, mutated
            assert 1 <= min(d for _, d in seen)
            assert max(d for _, d in seen) <= m.max_depth

    def test_no_hook_or_zero_poll_never_fires(self):
        for spec in both_drains(UTS):
            plain = run_kernel(spec, Enumeration())[2]
            assert run_kernel(spec, Enumeration(), poll=5)[2] == plain
            never = run_kernel(spec, Enumeration(), poll=0, on_poll=pytest.fail)[2]
            assert never == plain

    def test_splitting_in_place_conserves_the_visited_set(self):
        stype = Enumeration()  # UTS's objective is 1: the value is the count
        for spec in both_drains(UTS):
            tree_size = run_kernel(spec, stype)[0]
            for split in (split_lowest_inlined, split_one_inlined):
                for poll in (1, 16):
                    offcuts = []

                    def give_away(stack):
                        nodes, frame = split(stack)
                        offcuts.extend((node, frame + 1) for node in nodes)

                    count, _, donor = run_kernel(spec, stype, poll=poll, on_poll=give_away)
                    assert offcuts and donor.nodes < tree_size
                    assert count == donor.nodes == donor.backtracks
                    total = donor.nodes
                    for node, depth in offcuts:
                        total += search_subtree(spec, stype, node, depth, 0)[2].nodes
                    assert total == tree_size

    def test_a_bound_only_removes_nodes_and_never_changes_the_value(self):
        for spec in both_drains(instance_spec("maxclique", (16, 70, 5))):
            best, _, alone = run_kernel(spec, Optimisation())
            for bound in (0, best.value - 1, best.value):
                knowledge, _, m = run_kernel(
                    spec, Optimisation(), poll=4, on_poll=lambda stack: bound
                )
                assert knowledge.value == best.value
                assert m.nodes <= alone.nodes
                # A witness-less incumbent says the bound's owner has it.
                assert knowledge.node is not None or bound == best.value


class Stop(Exception):
    pass


class TestCallbacksAreTheOnlyWayOut:
    def test_exception_in_on_poll_propagates(self):
        def stop(stack):
            raise Stop

        with pytest.raises(Stop):
            run_kernel(UTS, Enumeration(), poll=3, on_poll=stop)

    def test_exception_in_on_improve_propagates(self):
        def stop(knowledge):
            raise Stop

        spec = instance_spec("maxclique", (12, 60, 1))
        with pytest.raises(Stop):
            run_kernel(spec, Optimisation(), on_improve=stop)

    def test_on_improve_sees_every_strengthening_in_order(self):
        spec = instance_spec("maxclique", (16, 70, 5))
        values = []
        best = run_kernel(
            spec, Optimisation(), on_improve=lambda k: values.append(k.value)
        )[0]
        assert values == sorted(set(values)) and values[-1] == best.value


class TestRootAlreadyMeetsTheTarget:
    """The drift the inlined copies had: only `sequential_search` tested
    the goal on a root that did not *improve* the knowledge; the process
    and cluster loops walked the whole tree (1 331 nodes here)."""

    ARGS = ("maxclique", (30, 50, 7))

    def check(self, result):
        assert result.found is True
        assert result.metrics.nodes == 1

    def test_processes_budget(self):
        self.check(multiprocessing_budget_search(
            instance_spec, self.ARGS, make_stype, ("decision", {"target": 0}),
            n_processes=2, budget=50, share_poll=8,
        ))

    def test_processes_stacksteal(self):
        self.check(multiprocessing_stacksteal_search(
            instance_spec, self.ARGS, make_stype, ("decision", {"target": 0}),
            n_processes=2, share_poll=8,
        ))

    def test_cluster_budget(self):
        self.check(cluster_search(
            instance_spec, self.ARGS, Decision(target=0),
            coordination="budget", n_workers=2, budget=50, share_poll=8,
            timeout=60.0,
        ))


def test_one_traversal_loop_in_the_tree():
    """Code that both takes children — from a generator or from a
    batched child list — and processes nodes may live in the kernel,
    the stepped machine and the Ordered frontier walk; a copy anywhere
    else, index-drained or not, fails here."""
    takes_children = re.compile(r"\.has_next\(\)|\bchildren\(|\.children\b")
    processes_nodes = re.compile(r"\bprocess\(|\bobjective\(")
    src = Path(repro.__file__).parent
    found = set()
    for path in src.rglob("*.py"):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(("apps/", "semantics/")) or rel == "core/kernel.py":
            continue
        text = path.read_text()
        for node in ast.parse(text).body:
            body = ast.get_source_segment(text, node) or ""
            if takes_children.search(body) and processes_nodes.search(body):
                found.add((rel, getattr(node, "name", "?")))
    assert found == {
        ("core/tasks.py", "SearchTask"),
        ("core/ordered.py", "ordered_frontier"),
    }
