"""Hardening tests: guards, degenerate inputs, and scale smoke tests."""

import pytest

from repro.core.params import SkeletonParams
from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec
from repro.core.nodegen import ListNodeGenerator
from repro.core.tasks import BUDGET, DEPTH, ORDERED, STACK
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import SimulatedCluster
from repro.runtime.topology import Topology

from tests.conftest import make_toy_spec


def wide_spec(width, depth):
    children = {}
    values = {"root": 1}

    def grow(name, d):
        if d == depth:
            return
        kids = [f"{name}/{i}" for i in range(width)]
        children[name] = kids
        for k in kids:
            values[k] = 1
            grow(k, d + 1)

    grow("root", 0)
    return make_toy_spec(children, values, with_bound=False)


class TestGuards:
    def test_max_events_exceeded_raises(self):
        spec = wide_spec(4, 4)
        cluster = SimulatedCluster(Topology(1, 2), max_events=50)
        with pytest.raises(RuntimeError):
            cluster.run(spec, Enumeration(), DEPTH, SkeletonParams(d_cutoff=2))

    def test_single_node_tree(self):
        spec = make_toy_spec({}, {"root": 7})
        for policy in (DEPTH, BUDGET, STACK, ORDERED):
            res = SimulatedCluster(Topology(2, 2)).run(
                spec, Enumeration(), policy, SkeletonParams(d_cutoff=1, budget=1)
            )
            assert res.value == 7
            assert res.metrics.nodes == 1

    def test_goal_at_root_stops_immediately(self, toy_spec):
        res = SimulatedCluster(Topology(2, 3)).run(
            toy_spec, Decision(target=0), DEPTH, SkeletonParams(d_cutoff=2)
        )
        assert res.found is True
        assert res.metrics.nodes == 1

    def test_zero_latency_cost_model(self):
        spec = wide_spec(3, 3)
        cost = CostModel(
            steal_latency_local=0.0,
            steal_latency_remote=0.0,
            broadcast_latency_local=0.0,
            broadcast_latency_remote=0.0,
            spawn_cost=0.0,
            schedule_cost=0.0,
            backtrack_cost=0.0,
            framework_node_overhead=0.0,
        )
        res = SimulatedCluster(Topology(2, 2), cost).run(
            spec, Enumeration(), STACK, SkeletonParams()
        )
        assert res.value == sequential_search(spec, Enumeration()).value

    def test_deep_narrow_tree(self):
        # A pure chain: no splittable work ever exists for thieves.
        children = {f"n{i}": [f"n{i+1}"] for i in range(40)}
        chain = {"root": ["n0"], **children}
        values = {k: 1 for k in ["root"] + [f"n{i}" for i in range(42)]}
        # fix: only nodes actually in the tree
        values = {"root": 1, **{f"n{i}": 1 for i in range(41)}}
        spec = make_toy_spec(chain, values, with_bound=False)
        for policy in (STACK, BUDGET):
            res = SimulatedCluster(Topology(1, 4)).run(
                spec, Enumeration(), policy, SkeletonParams(budget=5)
            )
            assert res.value == 42


class TestScaleSmoke:
    def test_255_workers_17_localities(self):
        """The paper's full topology on a moderate tree completes and
        produces a consistent result with every worker accounted for."""
        spec = wide_spec(6, 4)  # 1555 nodes
        res = SimulatedCluster(Topology(17, 15)).run(
            spec, Enumeration(), DEPTH, SkeletonParams(d_cutoff=2)
        )
        assert res.value == 1555
        assert res.workers == 255
        assert len(res.per_worker_busy) == 255

    def test_many_workers_stack_policy(self):
        spec = wide_spec(5, 4)
        res = SimulatedCluster(Topology(8, 15)).run(
            spec, Enumeration(), STACK, SkeletonParams(chunked=True)
        )
        assert res.value == 781

    def test_extreme_worker_surplus(self):
        # 120 workers, 3 tasks: almost everyone starves, still correct.
        spec = wide_spec(3, 2)
        res = SimulatedCluster(Topology(8, 15)).run(
            spec, Enumeration(), DEPTH, SkeletonParams(d_cutoff=1)
        )
        assert res.value == 13


class TestDegenerateSearchSpaces:
    def test_generator_yielding_nothing_for_root(self):
        spec = SearchSpec(
            name="leaf-only",
            space=None,
            root="only",
            generator=lambda s, n: ListNodeGenerator([]),
            objective=lambda n: 5,
        )
        res = SimulatedCluster(Topology(1, 2)).run(
            spec, Optimisation(), STACK, SkeletonParams()
        )
        assert res.value == 5

    def test_all_equal_objectives_pick_some_witness(self, toy_spec_unbounded):
        res = SimulatedCluster(Topology(1, 3)).run(
            toy_spec_unbounded, Optimisation(), BUDGET, SkeletonParams(budget=1)
        )
        assert res.value == 3
