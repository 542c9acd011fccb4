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
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.apps.maxclique as maxclique_module
from repro.apps.uts import UTSColumns, UTSGen, UTSInstance, uts_spec
from repro.cluster.local import cluster_search
from repro.core.kernel import search_subtree
from repro.core.nodegen import ColumnListGenerator, ColumnNodeGenerator, ListNodeGenerator
from repro.core.results import SearchMetrics
from repro.core.searchtypes import Decision, Enumeration, Incumbent, Optimisation
from repro.core.sequential import sequential_search_stepped
from repro.core.tasks import SearchTask, split_lowest_inlined, split_one_inlined
from repro.instances.library import library_spec_factory
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
from tests.runtime.test_sharing import Transport


def run_kernel(spec, stype, **hooks):
    return search_subtree(
        spec, stype, spec.root, 0, stype.initial_knowledge(spec), **hooks
    )


def lazy_only(spec):
    """The same instance with only its lazy ``generator``, so the kernel
    takes Listing 2's has_next/next drain."""
    return dataclasses.replace(spec, columns=None)


def every_drain(spec):
    """The instance as declared and lazy-only; the hook and equality
    tests loop over this inside the test, so their ids stay put."""
    return spec, lazy_only(spec)


def assert_matches_machine(spec, stype):
    """Every drain against the stepped machine: value, witness, goal
    and every SearchMetrics field."""
    ref = sequential_search_stepped(spec, stype)
    for drained in every_drain(spec):
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
        """The equalities above would hold trivially if every search
        took Listing 2: which child form is called, and which frames
        the poll hook sees, per declaration and search type."""
        calls = []

        def spy(name, factory):
            def counted(space, node):
                calls.append(name)
                return factory(space, node)
            return counted if factory is not None else None

        def drained(spec, stype):
            del calls[:]
            frames = set()
            spied = dataclasses.replace(
                spec,
                generator=spy("generator", spec.generator),
                columns=spy("columns", spec.columns),
            )
            run_kernel(spied, stype, poll=1, on_poll=lambda stack: frames.update(map(type, stack)))
            return set(calls), frames

        stock = (Enumeration(), Optimisation(), Decision(target=3))
        clique = instance_spec("maxclique", (12, 60, 1))
        uts = instance_spec("uts", (3, 5, 2))
        for spec, frame in ((clique, maxclique_module.CliqueGen), (uts, UTSColumns)):
            assert spec.columns is frame and issubclass(frame, ColumnNodeGenerator)
            for stype in stock:  # declared columns: a column loop
                assert drained(spec, stype) == ({"columns"}, {frame})
            # Listing 2: a custom search type, ``node_size``, or no
            # columns declared.
            assert drained(spec, Enumeration(objective=lambda node: 1))[0] == {"generator"}
            sized = dataclasses.replace(spec, node_size=lambda node: 2)
            for stype in stock:
                assert drained(sized, stype)[0] == {"generator"}
                assert drained(lazy_only(spec), stype)[0] == {"generator"}


class CountedCliqueNode(maxclique_module.CliqueNode):
    __slots__ = ()
    built = 0

    def __init__(self, *args):
        CountedCliqueNode.built += 1
        super().__init__(*args)


class TestAChildIsBuiltOnlyToBeExpandedOrCrowned:
    @pytest.mark.parametrize(
        "spec",
        [instance_spec("maxclique", (14, 60, 3)), library_spec_factory("brock90-1")],
        ids=["maxclique-14-60-3", "brock90-1"],
    )
    def test_constructions_are_bounded_by_survivors_plus_improvements(self, spec, monkeypatch):
        """The parent of this contract built every child (``nodes - 1``
        constructions); a later edit must not quietly do so again."""
        monkeypatch.setattr(maxclique_module, "CliqueNode", CountedCliqueNode)
        optimum = run_kernel(spec, Optimisation())[0].value
        for stype in (Optimisation(), Decision(target=optimum)):
            improvements = []
            CountedCliqueNode.built = 0
            m = run_kernel(spec, stype, on_improve=improvements.append)[2]
            assert 0 < CountedCliqueNode.built <= m.nodes - m.prunes + len(improvements)
            assert CountedCliqueNode.built < m.nodes - 1 and len(improvements) <= optimum

    @pytest.mark.parametrize("frame_of", ["columns", "adapter"])
    def test_build_with_gaps_then_the_generator_carries_on(self, frame_of):
        spec = instance_spec("maxclique", (14, 60, 3))
        fields = lambda nodes: [(c.clique, c.candidates, c.bound) for c in nodes]
        lazy = spec.generator(spec.space, spec.root).drain()
        assert len(lazy) == 14
        values, bounds = [spec.objective(c) for c in lazy], [spec.bound(c) for c in lazy]
        if frame_of == "adapter":
            frame = ColumnListGenerator(list(lazy), values, bounds)
        else:
            frame = spec.columns(spec.space, spec.root)
        assert (list(frame.values), list(frame.bounds)) == (values, bounds)
        assert fields(frame.build(i) for i in (1, 2, 6)) == fields(lazy[i] for i in (1, 2, 6))
        assert frame.pos == 7 and frame.has_next()
        assert fields([frame.next()]) == fields(lazy[7:8])
        frame.pos = 10  # the kernel, past children it pruned unbuilt
        assert fields(frame.drain()) == fields(lazy[10:])
        assert not frame.has_next()


class TestDecisionOnTheColumns:
    """Node values 0..7 in breadth-first order; the optimum is g = 7,
    under b whose siblings' bounds are 1 and 3."""

    TREE = {"root": ["a", "b", "c"], "b": ["d", "e", "f"], "f": ["g"]}

    @pytest.mark.parametrize("target", [7, 8, 0, 2, 5])
    def test_every_counter_matches_the_machine(self, target):
        assert_matches_machine(batched_toy_spec(self.TREE, with_bound=True), Decision(target=target))
        assert_matches_machine(batched_toy_spec(self.TREE, with_bound=False), Decision(target=target))

    def test_a_target_between_two_bounds_prunes_below_and_clamps_above(self):
        spec = batched_toy_spec(self.TREE, with_bound=True)
        knowledge, goal, m = run_kernel(spec, Decision(target=5))
        # a (bound 1) beat the incumbent 0 and still died: 1 < 5; d = 4
        # fell short the same way; e = 5 met the target.
        assert (goal, knowledge.value, knowledge.node) == (True, 5, "e")
        assert (m.nodes, m.prunes) == (5, 2)
        # f = 6 overshoots a target of 5 when e is not there to meet it:
        # the value is clamped, the witness is the node that overshot.
        tree = {**self.TREE, "b": ["d", "f"]}
        knowledge, goal, m = run_kernel(batched_toy_spec(tree, with_bound=True), Decision(target=5))
        assert (goal, knowledge.value, knowledge.node) == (True, 5, "f")
        assert_matches_machine(batched_toy_spec(tree, with_bound=True), Decision(target=5))


class ToyFrame(ColumnListGenerator):
    __slots__ = ("leaves",)


def batched_toy_spec(children, *, with_bound):
    """conftest's explicit-tree spec (objective = position of the node
    in breadth-first order, tightest admissible bound) plus a column
    form of its generator, promising ``leaves`` wherever it holds."""
    names, queue = [], ["root"]
    while queue:
        names.append(queue.pop(0))
        queue.extend(children.get(names[-1], ()))
    spec = make_toy_spec(children, {n: i for i, n in enumerate(names)}, with_bound=with_bound)

    def columns(tree, node):
        kids = list(tree.children.get(node, ()))
        bounds = [spec.bound(kid) if with_bound else inf for kid in kids]
        frame = ToyFrame(kids, [spec.objective(kid) for kid in kids], bounds)
        frame.leaves = not any(tree.children.get(kid) for kid in kids)
        return frame

    return dataclasses.replace(spec, columns=columns)


class TestChildlessNodesAreNotPushed:
    """The column loops never build a frame for an empty child list
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
        assert frames and all(len(frame.values) > 0 for frame in frames)
        assert (m.nodes, m.backtracks, m.max_depth) == (8, 8, 4)


class Unbuildable(UTSGen):
    """UTS's column frame, except that a ``leaves`` frame refuses to
    build a child."""

    __slots__ = ()

    def build(self, i):
        if self.leaves:
            raise AssertionError("a leaf was built")
        return super().build(i)


class TestLeavesAreCountedNotBuilt:
    @pytest.mark.parametrize("poll", [0, 1, 7, 64])
    @pytest.mark.parametrize("args", [(3, 6, 4), (4, 2, 7), (40, 1, 6)], ids=str)
    def test_a_leaves_frame_is_searched_without_a_single_build(self, args, poll):
        """Deep, shallow and a root whose children are all leaves: the
        count, every counter and the poll cadence are the machine's,
        and no leaf is ever built — inline or pushed for a poll."""
        spec = instance_spec("uts", args)
        ref = sequential_search_stepped(spec, Enumeration())
        polls = []
        count, _, m = run_kernel(
            dataclasses.replace(spec, columns=Unbuildable), Enumeration(),
            poll=poll, on_poll=polls.append if poll else None,
        )
        assert count == ref.value and dataclasses.asdict(m) == dataclasses.asdict(ref.metrics)
        assert len(polls) == ((m.nodes - 1) // poll if poll else 0)

    @pytest.mark.parametrize("poll", [0, 1, 7, 64])
    @pytest.mark.parametrize("args", [(3, 6, 4), (4, 2, 7), (40, 1, 6)], ids=str)
    def test_a_sizes_frame_builds_only_the_child_a_poll_falls_inside(self, args, poll):
        """UTS's column frame counts a node's last two levels from its
        ``sizes``: a child of that frame is built only when a poll node
        lies in the child's subtree before the subtree's last node, and
        a leaf never."""
        spec = instance_spec("uts", args)
        ref = sequential_search_stepped(spec, Enumeration())
        CountedBuilds.built = []
        polls = []
        count, _, m = run_kernel(
            dataclasses.replace(spec, columns=CountedBuilds), Enumeration(),
            poll=poll, on_poll=polls.append if poll else None,
        )
        assert count == ref.value and dataclasses.asdict(m) == dataclasses.asdict(ref.metrics)
        assert len(polls) == ((m.nodes - 1) // poll if poll else 0)
        assert CountedBuilds.built == polled_twigs(spec, poll)


class CountedBuilds(UTSColumns):
    """UTS's column frame, logging each child a ``sizes`` frame builds
    and refusing to build a leaf."""

    __slots__ = ()
    built: list = []

    def build(self, i):
        if self.leaves:
            raise AssertionError("a leaf was built")
        child = super().build(i)
        if self.sizes is not None:
            CountedBuilds.built.append(child)
        return child


def polled_twigs(spec, poll):
    """The nodes of a geometric UTS tree's level ``max_depth - 1``
    whose subtree holds a poll node before its last node, in search
    order; polls fall on node counts ``1 + t * poll``."""
    inst, found, count = spec.space, [], 1
    stack = [UTSGen(inst, spec.root)]
    while stack:
        if not stack[-1].has_next():
            stack.pop()
            continue
        node = stack[-1].next()
        count += 1
        frame = UTSGen(inst, node)
        if poll and node.depth == inst.max_depth - 1:
            first_poll = count + (1 - count) % poll
            if first_poll < count + len(frame.values):
                found.append(node)
        stack.append(frame)
    return found


@settings(max_examples=80, deadline=None)
@given(
    b0=st.integers(1, 4), depth=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1), poll=st.integers(1, 50),
)
def test_sizes_keep_the_machines_counters_and_the_poll_stacks(b0, depth, seed, poll):
    """On any geometric tree the kernel's value and every counter are
    the stepped machine's, and ``on_poll`` sees the stack it sees
    without ``sizes`` — same frames, same positions — at the same
    node counts."""
    spec = instance_spec("uts", (b0, depth, seed))
    ref = sequential_search_stepped(spec, Enumeration())
    shapes = {}
    for frame in (UTSColumns, UTSGen):
        seen = shapes[frame] = []
        count, _, m = run_kernel(
            dataclasses.replace(spec, columns=frame), Enumeration(), poll=poll,
            on_poll=lambda stack: seen.append([(len(f.values), f.pos) for f in stack]),
        )
        assert count == ref.value and dataclasses.asdict(m) == dataclasses.asdict(ref.metrics)
        assert len(seen) == (m.nodes - 1) // poll
    assert shapes[UTSColumns] == shapes[UTSGen]


class TestLedgerTreeTaskCounts:
    """Budget and Stack-Stealing split the live stack at polls, so the
    subtrees they give away on the ledger's UTS tree are the same with
    the ``sizes`` column as without it (the counts below were taken
    before the column existed)."""

    SPEC = instance_spec("uts", (4, 9, 1330772960))  # 149 511 nodes

    @pytest.mark.parametrize(
        "knobs, starving, expected",
        [
            ({"budget": 1000}, False, (1, 360)),
            ({"budget": 100}, False, (1, 2984)),
            ({"budget": 100}, True, (1076, 2984)),
            ({"budget": None, "chunked": True}, True, (732, 1581)),
            ({"budget": None, "chunked": False}, True, (425, 500)),
        ],
        ids=["budget-1000", "budget-100", "budget-100-starving", "stacksteal-chunked",
             "stacksteal-one"],
    )
    def test_leases_and_spawns_are_unchanged(self, knobs, starving, expected):
        for frame in (UTSColumns, UTSGen):
            spec = dataclasses.replace(self.SPEC, columns=frame)
            transport = Transport(lambda t: starving and t.asked % 3 == 0)
            count = nodes = leases = spawns = taken = 0
            work = [([spec.root], 0)]
            while work:
                roots, depth = work.pop()
                out = transport.run(spec, Enumeration(), roots, depth, count, poll=64, **knobs)
                count = out.knowledge
                nodes += out.metrics.nodes
                spawns += out.metrics.spawns
                leases += 1
                work.extend((s, d) for d, s, _, _ in transport.shipped[taken:] if s)
                taken = len(transport.shipped)
            assert count == nodes == 149_511
            assert (leases, spawns) == expected


UTS = instance_spec("uts", (3, 6, 4))  # 359 nodes, no pruning
FLAT = uts_spec(UTSInstance(b0=40.0, max_depth=1, seed=6))  # the root and 54 leaves
FLAT_LEAVES = UTSGen(FLAT.space, FLAT.root).drain()


class TestPollHook:
    @pytest.mark.parametrize("poll", [1, 7, 64])
    def test_fires_every_poll_nodes_with_the_live_stack(self, poll):
        for spec in every_drain(UTS):
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
        for spec in every_drain(UTS):
            plain = run_kernel(spec, Enumeration())[2]
            assert run_kernel(spec, Enumeration(), poll=5)[2] == plain
            never = run_kernel(spec, Enumeration(), poll=0, on_poll=pytest.fail)[2]
            assert never == plain

    def test_splitting_in_place_conserves_the_visited_set(self):
        stype = Enumeration()  # UTS's objective is 1: the value is the count
        for spec in (*every_drain(UTS), FLAT):
            tree_size = run_kernel(spec, stype)[0]
            for split in (split_lowest_inlined, split_one_inlined):
                for poll in (1, 16):
                    offcuts, polls = [], []

                    def give_away(stack):
                        polls.append(len(stack))
                        nodes, frame = split(stack)
                        if spec is FLAT:
                            # Every poll falls inside the root's leaves
                            # run, which the donor has counted up to the
                            # poll and not built: a split ships exactly
                            # the leaves neither counted nor shipped.
                            uncounted = FLAT_LEAVES[len(polls) * poll + len(offcuts) :]
                            shipped = uncounted if len(uncounted) > 1 else []
                            assert nodes == (shipped[:1] if split is split_one_inlined else shipped)
                        offcuts.extend((node, frame + 1) for node in nodes)

                    count, _, donor = run_kernel(spec, stype, poll=poll, on_poll=give_away)
                    assert offcuts and donor.nodes < tree_size
                    assert count == donor.nodes == donor.backtracks
                    total = donor.nodes
                    for node, depth in offcuts:
                        total += search_subtree(spec, stype, node, depth, 0)[2].nodes
                    assert total == tree_size

    def test_a_bound_only_removes_nodes_and_never_changes_the_value(self):
        for spec in every_drain(instance_spec("maxclique", (16, 70, 5))):
            best, _, alone = run_kernel(spec, Optimisation())
            for bound in (0, best.value - 1, best.value):
                knowledge, _, m = run_kernel(
                    spec, Optimisation(), poll=4, on_poll=lambda stack: bound
                )
                assert knowledge.value == best.value
                assert m.nodes <= alone.nodes
                # A witness-less incumbent says the bound's owner has it.
                assert knowledge.node is not None or bound == best.value


def machine_from(spec, stype, root, depth, knowledge):
    """The stepped machine from any root and knowledge:
    ``(knowledge, nodes, prunes)``."""
    task = SearchTask(spec, stype, root, root_depth=depth)
    nodes = prunes = 0
    while not task.finished:
        knowledge, out = task.step(knowledge)
        nodes += out.processed
        prunes += out.pruned
    return knowledge, nodes, prunes


class TestAFrameWithoutColumns:
    """Both split helpers may swap a frame — anywhere in the stack —
    for a plain ``ListNodeGenerator`` (the lone-child refusal, the
    remainder of a single steal); a column loop meets it when it pops
    back to it or reloads after ``on_poll``."""

    SPEC = instance_spec("maxclique", (24, 70, 3))  # optimum 9, 290 nodes

    @pytest.mark.parametrize("where", ["bottom", "middle", "top"])
    @pytest.mark.parametrize("helper", [split_lowest_inlined, split_one_inlined])
    def test_a_replaced_frame_is_searched_as_if_nothing_happened(self, helper, where):
        """The helper is let loose on one frame of the live stack, the
        frame it leaves goes back where it was and what it shipped goes
        back in front: the stack holds the children it held, behind a
        frame without columns.  Value, witness and every counter must be
        the stepped machine's."""
        replaced = []

        def swap(stack):
            at = {"bottom": 0, "middle": len(stack) // 2, "top": len(stack) - 1}[where]
            if len(stack) < 3 or not stack[at].has_next():
                return
            view = [stack[at]]
            shipped, _ = helper(view)
            stack[at] = ListNodeGenerator(shipped + view[0].drain())
            replaced.append(at)

        for stype in (Optimisation(), Decision(target=9), Decision(target=10)):
            ref = sequential_search_stepped(self.SPEC, stype)
            for poll in (1, 5):
                del replaced[:]
                knowledge, goal, m = run_kernel(self.SPEC, stype, poll=poll, on_poll=swap)
                assert replaced
                assert (knowledge.value, knowledge.node) == (ref.value, ref.node)
                assert goal == bool(ref.found)
                assert dataclasses.asdict(m) == dataclasses.asdict(ref.metrics)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(8, 18), st.sampled_from([50, 70, 90]), st.integers(0, 50)),
        st.integers(1, 9),
        st.randoms(use_true_random=False),
    )
    def test_random_splits_with_either_helper_conserve_the_search(self, args, poll, rnd):
        """Unforced: at random polls one helper or the other cuts the
        live stack, and what it ships is searched the same way."""
        spec = instance_spec("maxclique", args)
        stype = Optimisation()
        ref = sequential_search_stepped(spec, stype)
        work = []

        def split(stack):
            if rnd.random() < 0.5:
                helper = rnd.choice((split_lowest_inlined, split_one_inlined))
                nodes, index = helper(stack)
                work.extend((node, depth + index + 1) for node in nodes)

        # From a pinned bound nothing depends on the order the pieces
        # are searched in: their counters add up to the machine's.
        pinned = Incumbent(ref.value, None)
        _, nodes, prunes = machine_from(spec, stype, spec.root, 0, pinned)
        work.append((spec.root, 0))
        while work:
            root, depth = work.pop()
            knowledge, _, m = search_subtree(
                spec, stype, root, depth, pinned, poll=poll, on_poll=split
            )
            assert knowledge is pinned
            nodes -= m.nodes
            prunes -= m.prunes
        assert (nodes, prunes) == (0, 0)
        # From scratch a piece prunes by what was found before it: any
        # order finds the optimum, with a witness.
        best = stype.initial_knowledge(spec)
        work.append((spec.root, 0))
        while work:
            root, depth = work.pop()
            best = search_subtree(spec, stype, root, depth, best, poll=poll, on_poll=split)[0]
        assert best.value == ref.value == best.node.size
        assert spec.witness_check(spec.space, best.node)


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
    """Code that both takes children — one at a time, all at once or
    from a column frame — and processes nodes may live in the kernel,
    the stepped machine and the Ordered frontier walk; a copy anywhere
    else, drained or index-walked, fails here."""
    takes_children = re.compile(r"\.has_next\(\)|\.drain\(\)|\.build\(")
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
