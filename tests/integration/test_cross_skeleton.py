"""Integration: every coordination computes the same result on every
application — the core claim behind "explore alternate parallelisations
by changing one line" (§5.5).
"""

import pytest

from repro import SkeletonParams, make_skeleton, search
from repro.apps.knapsack import knapsack_spec
from repro.apps.maxclique import maxclique_spec
from repro.apps.semigroups import GENUS_COUNTS, SemigroupInstance, semigroups_spec
from repro.apps.sip import sip_spec
from repro.apps.tsp import tsp_spec
from repro.apps.uts import UTSInstance, uts_spec
from repro.core.sequential import sequential_search
from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.instances.graphs import planted_clique, uniform_graph
from repro.instances.library import random_knapsack, random_sip, random_tsp

# The paper's three parallel coordinations plus Ordered.
PARALLEL = ["depthbounded", "stacksteal", "budget", "ordered"]
PARAMS = SkeletonParams(
    localities=2, workers_per_locality=3, d_cutoff=2, budget=30, seed=1,
)


@pytest.mark.parametrize("skeleton", PARALLEL)
class TestOptimisationApps:
    def test_maxclique(self, skeleton):
        spec = maxclique_spec(uniform_graph(35, 0.5, seed=2))
        seq = search(spec, search_type="optimisation")
        par = search(spec, skeleton=skeleton, search_type="optimisation", params=PARAMS)
        assert par.value == seq.value

    def test_knapsack(self, skeleton):
        spec = knapsack_spec(random_knapsack(16, 3, kind="strong", max_weight=30))
        seq = search(spec, search_type="optimisation")
        par = search(spec, skeleton=skeleton, search_type="optimisation", params=PARAMS)
        assert par.value == seq.value

    def test_tsp(self, skeleton):
        spec = tsp_spec(random_tsp(8, 4))
        seq = search(spec, search_type="optimisation")
        par = search(spec, skeleton=skeleton, search_type="optimisation", params=PARAMS)
        assert par.value == seq.value


@pytest.mark.parametrize("skeleton", PARALLEL)
class TestDecisionApps:
    def test_kclique_sat(self, skeleton):
        spec = maxclique_spec(planted_clique(30, 0.3, 8, seed=5))
        par = search(spec, skeleton=skeleton, search_type="decision", target=8, params=PARAMS)
        assert par.found is True
        assert par.value == 8

    def test_kclique_unsat(self, skeleton):
        g = uniform_graph(25, 0.4, seed=6)
        seq = search(maxclique_spec(g), search_type="decision", target=9)
        par = search(
            maxclique_spec(g), skeleton=skeleton, search_type="decision",
            target=9, params=PARAMS,
        )
        assert par.found == seq.found

    def test_sip(self, skeleton):
        inst = random_sip(7, 28, 0.3, seed=7, planted=True)
        par = search(
            sip_spec(inst), skeleton=skeleton, search_type="decision",
            target=7, params=PARAMS,
        )
        assert par.found is True


@pytest.mark.parametrize("skeleton", PARALLEL)
class TestEnumerationApps:
    def test_uts(self, skeleton):
        spec = uts_spec(UTSInstance(shape="geometric", b0=3.0, max_depth=6, seed=8))
        seq = search(spec, search_type="enumeration")
        par = search(spec, skeleton=skeleton, search_type="enumeration", params=PARAMS)
        assert par.value == seq.value

    def test_semigroups(self, skeleton):
        spec = semigroups_spec(SemigroupInstance(max_genus=9), count_genus=9)
        par = search(spec, skeleton=skeleton, search_type="enumeration", params=PARAMS)
        assert par.value == GENUS_COUNTS[9]


class TestOneLineReparallelisation:
    """Listing-5 style: the spec never changes, only the skeleton name."""

    def test_all_twelve_skeletons_run_maxclique_family(self):
        g = uniform_graph(25, 0.5, seed=9)
        spec = maxclique_spec(g)
        seq_opt = sequential_search(spec, Optimisation())
        params = SkeletonParams(localities=1, workers_per_locality=4, d_cutoff=1, budget=10)
        for coord in ["sequential", "depthbounded", "stacksteal", "budget"]:
            opt = make_skeleton(coord, "optimisation").search(spec, params)
            assert opt.value == seq_opt.value
            dec = make_skeleton(coord, "decision").search(
                spec, params, target=seq_opt.value
            )
            assert dec.found is True
            enum = make_skeleton(coord, "enumeration").search(
                maxclique_spec(uniform_graph(12, 0.5, seed=10)), params
            )
            # node count of the unpruned tree is skeleton-independent
            assert enum.value == make_skeleton("sequential", "enumeration").search(
                maxclique_spec(uniform_graph(12, 0.5, seed=10))
            ).value
