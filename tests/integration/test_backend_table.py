"""The (runtime x coordination) table, walked cell by cell.

Every cell in :data:`repro.core.backends.BACKENDS` runs a tiny UTS and a
tiny MaxClique through ``Skeleton.search`` and must equal
``sequential_search``; every pair *not* in the table must be refused
with a ValueError naming the backends that do implement it.  One test,
whatever the table says — a new cell is covered by being written down.
"""

import pytest

from repro.core.backends import BACKENDS, COORDINATION_NAMES
from repro.core.params import SkeletonParams
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.core.skeletons import COORDINATIONS, Skeleton
from repro.verify.generators import Instance, instance_spec, search_setup

# 1 053 and 343 nodes: enough for every coordination to split and share
# work, small enough that a cell costs process start-up, not search.
INSTANCES = {
    "uts": Instance("uts", (3, 7, 4)),
    "maxclique": Instance("maxclique", (30, 60, 3)),
}

PARALLEL = COORDINATION_NAMES[1:]
CELLS = [(b, c) for b, row in BACKENDS.items() for c in row.coordinations]
HOLES = [(b, c) for b in BACKENDS for c in PARALLEL if (b, c) not in CELLS]


def params_for(backend):
    return SkeletonParams(
        backend=backend, localities=1, workers_per_locality=3, n_processes=2,
        cluster_workers=2, d_cutoff=2, budget=20, share_poll=16, seed=3,
    )


def search(backend, coordination, family, **how):
    inst = INSTANCES[family]
    spec, kind, kwargs = search_setup(inst)
    stype = make_search_type(kind, **kwargs)
    how.setdefault("spec_factory", instance_spec)
    res = Skeleton(coordination, kind).search(
        spec, params_for(backend), stype=stype,
        factory_args=(inst.family, inst.args), **how,
    )
    return res, sequential_search(spec, make_search_type(kind, **kwargs))


def test_table_names_every_coordination_once():
    assert set(COORDINATION_NAMES) == set(COORDINATIONS)
    # Every runtime runs every parallel coordination: no holes left.
    assert len(CELLS) == 12 and not HOLES
    for row in BACKENDS.values():
        assert len(set(row.coordinations)) == len(row.coordinations)


@pytest.mark.parametrize("backend,coordination", CELLS)
def test_cell_equals_sequential(backend, coordination):
    res, seq = search(backend, coordination, "uts")
    assert res.value == seq.value
    assert res.metrics.nodes == seq.metrics.nodes
    res, seq = search(backend, coordination, "maxclique")
    assert res.value == seq.value


@pytest.mark.parametrize(
    "backend", [b for b, row in BACKENDS.items() if row.rebuilds_spec]
)
def test_rebuilding_backend_needs_a_spec_factory(backend):
    with pytest.raises(ValueError, match="spec_factory"):
        search(backend, "budget", "uts", spec_factory=None)


def test_sequential_runs_whatever_the_backend():
    for backend in BACKENDS:
        res, seq = search(backend, "sequential", "uts", spec_factory=None)
        assert res.metrics.nodes == seq.metrics.nodes
