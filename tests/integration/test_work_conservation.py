"""Property tests: the cluster neither loses nor duplicates work.

For enumeration searches (no pruning), every coordination on every
topology must process each tree node exactly once — the operational
counterpart of the semantics' node-conservation invariant (the proof
core of Theorem 3.1).  Hypothesis generates random irregular trees and
random topologies; the cluster's summed objective and node count must
equal the sequential run's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodegen import ListNodeGenerator
from repro.core.params import SkeletonParams
from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec
from repro.core.tasks import BUDGET, DEPTH, ORDERED, STACK
from repro.runtime.executor import SimulatedCluster
from repro.runtime.topology import Topology


@st.composite
def random_tree_specs(draw):
    """A random irregular tree as a SearchSpec with per-node values."""
    rng_seed = draw(st.integers(min_value=0, max_value=2**31))
    max_children = draw(st.integers(min_value=1, max_value=4))
    depth_limit = draw(st.integers(min_value=1, max_value=5))
    # Deterministic pseudo-random tree from the seed: child counts from
    # a hash of the node path.
    children: dict = {}
    values: dict = {"r": 1 + (rng_seed % 7)}

    def grow(name, depth):
        if depth == depth_limit:
            children[name] = []
            return
        count = hash((name, rng_seed)) % (max_children + 1)
        kids = [f"{name}.{i}" for i in range(count)]
        children[name] = kids
        for k in kids:
            values[k] = 1 + (hash((k, rng_seed, "v")) % 7)
            grow(k, depth + 1)

    grow("r", 0)
    return SearchSpec(
        name="random-tree",
        space=None,
        root="r",
        generator=lambda _, node: ListNodeGenerator(list(children[node])),
        objective=lambda node: values[node],
    )


topologies = st.tuples(
    st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4)
)

policies = st.sampled_from([DEPTH, BUDGET, STACK, ORDERED])


class TestWorkConservation:
    @settings(max_examples=60, deadline=None)
    @given(random_tree_specs(), topologies, policies, st.integers(0, 1000))
    def test_every_node_processed_exactly_once(self, spec, topo, policy, seed):
        seq = sequential_search(spec, Enumeration())
        params = SkeletonParams(
            localities=topo[0],
            workers_per_locality=topo[1],
            d_cutoff=2,
            budget=2,
            seed=seed,
        )
        cluster = SimulatedCluster(Topology(topo[0], topo[1]))
        res = cluster.run(spec, Enumeration(), policy, params)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    @settings(max_examples=40, deadline=None)
    @given(random_tree_specs(), topologies, policies, st.integers(0, 1000))
    def test_optimisation_finds_global_max(self, spec, topo, policy, seed):
        seq = sequential_search(spec, Optimisation())
        params = SkeletonParams(
            localities=topo[0],
            workers_per_locality=topo[1],
            d_cutoff=1,
            budget=3,
            seed=seed,
        )
        cluster = SimulatedCluster(Topology(topo[0], topo[1]))
        res = cluster.run(spec, Optimisation(), policy, params)
        assert res.value == seq.value

    @settings(max_examples=30, deadline=None)
    @given(random_tree_specs(), policies, st.integers(0, 100))
    def test_busy_never_exceeds_makespan(self, spec, policy, seed):
        params = SkeletonParams(
            localities=2, workers_per_locality=3, d_cutoff=2, budget=2,
            seed=seed,
        )
        cluster = SimulatedCluster(Topology(2, 3))
        res = cluster.run(spec, Enumeration(), policy, params)
        assert all(b <= res.virtual_time + 1e-9 for b in res.per_worker_busy)
