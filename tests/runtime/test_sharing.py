"""The Budget / Stack-Stealing lease executor against an in-memory
transport: no process, no socket, so every hand-over is a list append
and every schedule is a script."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.sharing import FLUSH, execute_lease
from repro.runtime.workpool import Workpool

from tests.conftest import make_toy_spec
from tests.runtime.test_processes import clique_spec_factory, uts_spec_factory

UTS_ARGS = (4.0, 6, 439092716)  # 5 152 nodes, the tree of the d_cutoff tests


class WatchedPool(Workpool):
    def depths(self):
        """The depth of every pooled subtree, shallowest first."""
        return sorted(entry.depth for _, _, entry in self._heap)


class Transport:
    """What a runtime hands :func:`execute_lease`, kept in memory.

    ``demand`` is the script: called with this transport, it answers
    for the peers.  ``shipped`` logs one hand-over per entry: ``(depth,
    nodes, depths left in the pool, index of the demand() call that
    caused it)``.
    """

    def __init__(self, demand=lambda transport: False, abort=lambda transport: False):
        self.pool = WatchedPool("depth")
        self.shipped = []
        self.published = []
        self.asked = 0
        self.subtrees = 0
        self.best = 0
        self._demand = demand
        self._abort = abort

    def demand(self):
        self.asked += 1
        return self._demand(self)

    def ship(self, nodes, depth):
        self.shipped.append((depth, list(nodes), self.pool.depths(), self.asked))

    def publish(self, incumbent):
        self.published.append(incumbent)
        self.best = max(self.best, incumbent.value)

    def on_subtree(self):
        self.subtrees += 1

    def run(self, spec, stype, roots, depth, knowledge, **knobs):
        return execute_lease(
            spec, stype, roots, depth, knowledge, self.pool,
            demand=self.demand, ship=self.ship, bound=lambda: self.best,
            publish=self.publish, should_abort=lambda: self._abort(self),
            on_subtree=self.on_subtree, **knobs,
        )


def run_to_the_end(spec, stype, transport, **knobs):
    """The lease of the whole tree, then one lease for every hand-over
    any lease shipped: ``(knowledge, nodes, leases)``."""
    knowledge = stype.initial_knowledge(spec)
    nodes = leases = taken = 0
    work = [([spec.root], 0)]
    while work:
        roots, depth = work.pop()
        out = transport.run(spec, stype, roots, depth, knowledge, **knobs)
        assert not out.abandoned and not transport.pool
        knowledge = out.knowledge
        nodes += out.metrics.nodes
        leases += 1
        work.extend(
            (shipped, depth) for depth, shipped, _, _ in transport.shipped[taken:]
            if shipped
        )
        taken = len(transport.shipped)
    return knowledge, nodes, leases


def siblings(spec, at_least):
    """The children of the first node, breadth first, that has
    ``at_least`` of them, and their depth."""
    level, depth = [spec.root], 0
    while level:
        families = [spec.generator(spec.space, node).drain() for node in level]
        depth += 1
        for kids in families:
            if len(kids) >= at_least:
                return kids, depth
        level = [kid for kids in families for kid in kids]
    raise AssertionError(f"no node with {at_least} children")


def visiting(spec):
    """``spec`` with an objective that logs every node it is asked
    about, which the kernel's Listing 2 loop does once per node it
    processes.  The copy is lazy-only: a column loop reads a child's
    objective from its frame's ``values`` and would never ask."""
    visited = []

    def objective(node):
        visited.append(node)
        return spec.objective(node)

    return dataclasses.replace(spec, objective=objective, columns=None), visited


SOMEBODY = {
    "nobody": lambda transport: False,
    "always": lambda transport: True,
    "every-third-ask": lambda transport: transport.asked % 3 == 0,
}


class TestWorkConservation:
    @pytest.mark.parametrize("somebody", sorted(SOMEBODY))
    @pytest.mark.parametrize("budget", [1, 50, 10**9, None])
    def test_every_node_is_searched_exactly_once(self, budget, somebody):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        transport = Transport(SOMEBODY[somebody])
        value, nodes, leases = run_to_the_end(
            spec, Enumeration(), transport, budget=budget, poll=4,
        )
        assert (value, nodes) == (seq.value, seq.metrics.nodes)
        assert leases == 1 + sum(1 for s in transport.shipped if s[1])
        if somebody == "nobody" or budget == 10**9:
            assert leases == 1  # a budget never reached pools nothing
        elif somebody == "always":
            assert leases > 1

    @pytest.mark.parametrize("budget", [1, 50, None])
    def test_optimum_survives_the_hand_overs(self, budget):
        spec = clique_spec_factory(30, 0.5, 7)
        seq = sequential_search(spec, Optimisation())
        transport = Transport(SOMEBODY["always"])
        best, _, leases = run_to_the_end(
            spec, Optimisation(), transport, budget=budget, poll=2,
        )
        assert leases > 1
        assert best.value == seq.value == transport.best
        assert spec.objective(best.node) == best.value
        # Every publish was a strict improvement on the bound last heard.
        values = [inc.value for inc in transport.published]
        assert values == sorted(set(values))


class TestBudgetPool:
    def test_left_alone_it_walks_the_tree_in_sequential_order(self):
        """Pops come deepest level first, spawn order within it, which
        is the order the sequential search reaches the same subtrees."""
        spec, visited = visiting(uts_spec_factory(*UTS_ARGS))
        sequential_search(spec, Enumeration())
        in_order = visited[:]
        del visited[:]
        transport = Transport()
        out = transport.run(spec, Enumeration(), [spec.root], 0, 0, budget=1, poll=1)
        assert visited == in_order
        assert out.metrics.spawns == transport.subtrees > 10

    @pytest.mark.parametrize("budget", [1, 50, None])
    def test_a_lease_of_siblings_walks_them_in_sequential_order(self, budget):
        """The roots beyond the first wait in the pool, where they sort
        before every offcut of the one in hand and behind its deeper
        ones: left alone, a k-root lease is ``sequential_search`` over
        those k subtrees, one after the other."""
        spec, visited = visiting(uts_spec_factory(*UTS_ARGS))
        roots, depth = siblings(spec, 4)
        for root in roots:
            sequential_search(dataclasses.replace(spec, root=root), Enumeration())
        in_order = visited[:]
        del visited[:]
        transport = Transport()
        out = transport.run(spec, Enumeration(), roots, depth, 0, budget=budget, poll=1)
        assert visited == in_order
        assert out.metrics.nodes == len(in_order)
        # A root the lease came with is nobody's spawn; it is a pool pop.
        assert transport.subtrees == out.metrics.spawns + len(roots) - 1
        assert transport.shipped == [] and not transport.pool

    def test_nothing_is_shipped_while_nobody_starves(self):
        spec = uts_spec_factory(*UTS_ARGS)
        transport = Transport()
        out = transport.run(spec, Enumeration(), [spec.root], 0, 0, budget=5, poll=1)
        assert transport.shipped == []
        assert out.metrics.spawns == transport.subtrees > 0
        # Asked only while there was something to give.
        assert 0 < transport.asked

    def test_a_starving_peer_gets_the_level_nearest_the_root(self):
        """Half of it, rounded up: every other node from the first (the
        holder has a subtree in hand besides), and the half that stays
        can be run or given away next."""
        spec = uts_spec_factory(*UTS_ARGS)
        seen = []  # the pool's depths when the one demand was made

        def starve_once(t):
            depths = t.pool.depths()
            if t.shipped or len(set(depths)) < 3 or depths.count(depths[0]) < 3:
                return False
            seen.append(depths)
            return True

        transport = Transport(starve_once)
        out = transport.run(spec, Enumeration(), [spec.root], 0, 0, budget=1, poll=1)
        (depth, nodes, left, _), = transport.shipped
        (before,) = seen
        level = before.count(before[0])
        assert depth == before[0] and len(nodes) == (level + 1) // 2
        # The other half is still pooled at that depth, above the rest.
        assert left == before[:level - len(nodes)] + before[level:]
        assert transport.subtrees + len(nodes) == out.metrics.spawns

    def test_a_lone_node_goes_whole(self):
        spec = uts_spec_factory(*UTS_ARGS)
        transport = Transport(lambda t: t.pool.depths().count(t.pool.depths()[0]) == 1)
        transport.run(spec, Enumeration(), [spec.root], 0, 0, budget=1, poll=1)
        assert transport.shipped
        for depth, nodes, left, _ in transport.shipped:
            assert len(nodes) == 1 and depth not in left

    def test_flush_hands_over_the_whole_pool_one_call_per_depth(self):
        spec = uts_spec_factory(*UTS_ARGS)
        pooled = []  # the pool's depths whenever a flush was demanded

        def leaving(transport):
            if len(set(transport.pool.depths())) < 3:
                return False
            pooled.append(transport.pool.depths())
            return FLUSH

        transport = Transport(leaving)
        value, nodes, _ = run_to_the_end(
            spec, Enumeration(), transport, budget=1, poll=1,
        )
        seq = sequential_search(spec, Enumeration())
        assert (value, nodes) == (seq.value, seq.metrics.nodes)
        first = transport.shipped[0][3]
        burst = [s for s in transport.shipped if s[3] == first]
        assert [depth for depth, _, _, _ in burst] == sorted(set(pooled[0]))
        assert sum(len(nodes) for _, nodes, _, _ in burst) == len(pooled[0])
        assert burst[-1][2] == []  # nothing was left behind


class TestStackStealing:
    def test_a_stack_with_nothing_to_give_answers_with_an_empty_list(self):
        chain = make_toy_spec(
            {"root": ["a"], "a": ["b"], "b": ["c"], "c": ["d"]},
            {"root": 0, "a": 1, "b": 2, "c": 3, "d": 4},
        )
        transport = Transport(SOMEBODY["always"])
        out = transport.run(
            chain, Enumeration(), ["root"], 0, 0, budget=None, poll=1,
        )
        assert transport.shipped and all(
            nodes == [] for _, nodes, _, _ in transport.shipped
        )
        assert (out.knowledge, out.metrics.nodes) == (10, 5)
        assert out.metrics.spawns == transport.subtrees == 0

    @pytest.mark.parametrize("chunked", [True, False])
    def test_offcuts_leave_at_once_and_no_pool_is_kept(self, chunked):
        """The stack is split only for somebody who is waiting, and no
        pool is kept beyond the half of that split the thief left: one
        level, gone before the stack is split again."""
        spec = uts_spec_factory(*UTS_ARGS)
        transport = Transport(SOMEBODY["always"])
        out = transport.run(
            spec, Enumeration(), [spec.root], 0, 0,
            budget=None, chunked=chunked, poll=4,
        )
        given = [nodes for _, nodes, _, _ in transport.shipped if nodes]
        assert given
        for depth, nodes, left, _ in transport.shipped:
            assert set(left) <= {depth} and len(left) <= len(nodes) + 1
        assert out.metrics.spawns == sum(map(len, given)) + transport.subtrees
        if not chunked:
            assert all(len(nodes) == 1 for nodes in given)
            assert transport.subtrees == 0

    def test_the_roots_it_came_with_go_before_the_stack_is_split(self):
        spec = uts_spec_factory(*UTS_ARGS)
        roots, depth = siblings(spec, 6)
        transport = Transport(lambda t: len(t.shipped) < 2)
        out = transport.run(
            spec, Enumeration(), roots, depth, 0, budget=None, poll=1,
        )
        first, second = transport.shipped
        # Every other one of the waiting siblings, then some of those
        # that left (it may have started one or two in between)...
        waiting = roots[1:]
        assert first[:2] == (depth, waiting[::2])
        assert second[0] == depth and second[1]
        assert set(second[1]) <= set(waiting[1::2])
        # ...and no stack was split for either.
        assert out.metrics.spawns == 0

    def test_nobody_asking_is_one_sequential_search(self):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        transport = Transport()
        out = transport.run(
            spec, Enumeration(), [spec.root], 0, 0, budget=None, poll=4,
        )
        assert transport.shipped == []
        assert out.metrics.nodes == seq.metrics.nodes
        assert out.metrics.spawns == 0


class TestAbandon:
    def test_finished_subtrees_keep_their_counters(self):
        """An abandoned lease reports every subtree that ran to its end;
        only the one in hand at the abort is counted nowhere."""
        spec, visited = visiting(uts_spec_factory(*UTS_ARGS))
        finished = []  # nodes visited when each pooled subtree started

        class Watch(Transport):
            def on_subtree(self):
                super().on_subtree()
                finished.append(len(visited))

        transport = Watch(abort=lambda t: len(visited) >= 300)
        out = transport.run(spec, Enumeration(), [spec.root], 0, 0, budget=20, poll=1)
        assert out.abandoned and not out.goal
        assert transport.subtrees > 5
        # Node 300 fell inside a pooled subtree, which was cut short.
        assert 0 < finished[-1] < len(visited) == 300
        assert out.metrics.nodes == finished[-1]
        assert out.knowledge == out.metrics.nodes  # UTS counts nodes
        assert transport.pool  # whatever was pooled is the caller's to drop

    def test_incumbent_found_before_the_abort_is_returned(self):
        spec = clique_spec_factory(30, 0.5, 7)
        stype = Optimisation()
        transport = Transport(abort=lambda t: len(t.published) >= 2)
        out = transport.run(
            spec, stype, [spec.root], 0, stype.initial_knowledge(spec),
            budget=50, poll=1,
        )
        assert out.abandoned
        assert out.knowledge is transport.published[-1]
        assert out.knowledge.node is not None


def test_the_stack_is_split_in_one_module():
    """Outside ``core/tasks.py``, which defines them, the two stack
    splitters are named by the lease executor and by nothing else under
    ``src/repro`` — a runtime that splits a stack itself is a second
    copy of a coordination."""
    src = Path(repro.__file__).parent
    users = set()
    for path in src.rglob("*.py"):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        if names & {"split_lowest_inlined", "split_one_inlined"}:
            users.add(path.relative_to(src).as_posix())
    assert users == {"core/tasks.py", "runtime/sharing.py"}
