"""Tests for the Sequential coordination driver (Listing 2)."""

from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.core.sequential import sequential_search

from .conftest import make_toy_spec


class TestEnumerationRuns:
    def test_counts_all_nodes(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration(objective=lambda n: 1))
        assert res.value == 8

    def test_sums_objective(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration())
        assert res.value == 0 + 1 + 5 + 2 + 3 + 2 + 7 + 4

    def test_metrics_node_count(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration())
        assert res.metrics.nodes == 8
        assert res.metrics.prunes == 0

    def test_kind_and_workers(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration())
        assert res.kind == "enumeration"
        assert res.workers == 1
        assert res.node is None
        assert res.virtual_time is None

    def test_max_depth_tracked(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration())
        assert res.metrics.max_depth == 4  # root -> c -> ca -> caa frames


class TestOptimisationRuns:
    def test_finds_max(self, toy_spec):
        res = sequential_search(toy_spec, Optimisation())
        assert res.value == 7
        assert res.node == "ca"
        assert res.found is None

    def test_pruning_reduces_nodes(self, toy_spec):
        with_bound = sequential_search(toy_spec, Optimisation())
        assert with_bound.metrics.prunes > 0
        assert with_bound.metrics.nodes < 8

    def test_without_bound_exhaustive(self, toy_spec_unbounded):
        res = sequential_search(toy_spec_unbounded, Optimisation())
        assert res.value == 3
        assert res.metrics.nodes == 4


class TestDecisionRuns:
    def test_found(self, toy_spec):
        res = sequential_search(toy_spec, Decision(target=5))
        assert res.found is True
        assert res.value == 5

    def test_short_circuit_stops_early(self, toy_spec):
        res = sequential_search(toy_spec, Decision(target=5))
        assert res.metrics.nodes < 8

    def test_not_found_root_refuted(self, toy_spec):
        # The root bound (7) already proves 100 unreachable: the search
        # prunes at the root and refutes in a single node.
        res = sequential_search(toy_spec, Decision(target=100))
        assert res.found is False
        assert res.metrics.nodes == 1

    def test_not_found_exhaustive(self, toy_spec_unbounded):
        # Without a bound function the refutation must be exhaustive.
        res = sequential_search(toy_spec_unbounded, Decision(target=100))
        assert res.found is False
        assert res.metrics.nodes == 4

    def test_trivial_target_met_at_root(self, toy_spec):
        res = sequential_search(toy_spec, Decision(target=0))
        assert res.found is True
        assert res.metrics.nodes == 1


class TestGuards:
    def test_wall_time_recorded(self, toy_spec):
        res = sequential_search(toy_spec, Enumeration())
        assert res.wall_time is not None and res.wall_time >= 0


class TestDriverEquivalence:
    """The tight Listing-2 loop and the SearchTask-stepped driver must
    agree exactly — this equivalence licenses the simulator's claim to
    explore the same tree the production skeleton does."""

    def _assert_same(self, spec, stype):
        from repro.core.sequential import sequential_search_stepped

        a = sequential_search(spec, stype)
        b = sequential_search_stepped(spec, stype)
        assert a.value == b.value
        assert a.node == b.node
        assert a.found == b.found
        assert (a.metrics.nodes, a.metrics.prunes, a.metrics.backtracks,
                a.metrics.max_depth) == (
            b.metrics.nodes, b.metrics.prunes, b.metrics.backtracks,
            b.metrics.max_depth)

    def test_enumeration(self, toy_spec):
        self._assert_same(toy_spec, Enumeration())

    def test_optimisation(self, toy_spec):
        self._assert_same(toy_spec, Optimisation())

    def test_decision_found(self, toy_spec):
        self._assert_same(toy_spec, Decision(target=5))

    def test_decision_refuted_at_root(self, toy_spec):
        self._assert_same(toy_spec, Decision(target=100))

    def test_unbounded(self, toy_spec_unbounded):
        self._assert_same(toy_spec_unbounded, Optimisation())

    def test_maxclique_instance(self):
        from repro.apps.maxclique import maxclique_spec
        from repro.instances.graphs import uniform_graph

        self._assert_same(maxclique_spec(uniform_graph(30, 0.5, 9)), Optimisation())

    def test_knapsack_instance(self):
        from repro.apps.knapsack import knapsack_spec
        from repro.instances.library import random_knapsack

        self._assert_same(
            knapsack_spec(random_knapsack(14, 3, kind="strong")), Optimisation()
        )
