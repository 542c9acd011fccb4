"""Tests for skeleton composition (the 12 combinations, Figure 3)."""

import pytest

from repro.core import skeletons as sk
from repro.core.params import SkeletonParams
from repro.core.searchtypes import Decision
from repro.core.skeletons import ALL_SKELETONS, Skeleton, make_skeleton


class TestComposition:
    def test_skeleton_registry(self):
        # The paper's 12 (4 coordinations x 3 types) plus the extension
        # coordination Ordered x 3 types.
        assert len(ALL_SKELETONS) == 15
        paper_coords = ("sequential", "depthbounded", "stacksteal", "budget")
        paper_12 = [k for k in ALL_SKELETONS if k.split("-")[0] in paper_coords]
        assert len(paper_12) == 12

    def test_names(self):
        assert "depthbounded-optimisation" in ALL_SKELETONS
        assert "sequential-enumeration" in ALL_SKELETONS

    def test_named_constants_exported(self):
        # Listing-5 style constants exist for every combination.
        assert sk.StackStealingOptimisation.coordination == "stacksteal"
        assert sk.DepthBoundedEnumeration.search_type == "enumeration"
        assert sk.BudgetDecision.search_type == "decision"
        assert sk.SequentialOptimisation.coordination == "sequential"

    def test_unknown_coordination_rejected(self):
        with pytest.raises(ValueError):
            Skeleton("bestfirst", "optimisation")

    def test_unknown_search_type_rejected(self):
        with pytest.raises(ValueError):
            Skeleton("budget", "approximation")

    def test_make_skeleton(self):
        s = make_skeleton("budget", "decision")
        assert s.name == "budget-decision"


class TestSearchDispatch:
    def test_sequential_runs_directly(self, toy_spec):
        res = sk.SequentialOptimisation.search(toy_spec)
        assert res.value == 7
        assert res.virtual_time is None

    def test_parallel_runs_on_cluster(self, toy_spec):
        params = SkeletonParams(localities=1, workers_per_locality=2, d_cutoff=1)
        res = sk.DepthBoundedOptimisation.search(toy_spec, params)
        assert res.value == 7
        assert res.virtual_time is not None
        assert res.workers == 2

    def test_decision_kwargs_forwarded(self, toy_spec):
        res = sk.SequentialDecision.search(toy_spec, target=5)
        assert res.found is True

    def test_prebuilt_search_type(self, toy_spec):
        res = sk.SequentialDecision.search(toy_spec, stype=Decision(target=5))
        assert res.found is True

    def test_stype_and_kwargs_conflict(self, toy_spec):
        with pytest.raises(ValueError):
            sk.SequentialDecision.search(toy_spec, stype=Decision(target=5), target=3)

    def test_mismatched_stype_rejected(self, toy_spec):
        with pytest.raises(ValueError):
            sk.SequentialOptimisation.search(toy_spec, stype=Decision(target=5))


class TestTopLevelSearch:
    def test_search_function(self, toy_spec):
        from repro import search

        res = search(toy_spec, skeleton="stacksteal", search_type="optimisation",
                     params=SkeletonParams(localities=1, workers_per_locality=2))
        assert res.value == 7

    def test_search_defaults_sequential(self, toy_spec):
        from repro import search

        res = search(toy_spec)
        assert res.workers == 1
