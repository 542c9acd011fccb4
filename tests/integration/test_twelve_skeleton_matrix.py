"""The full skeleton matrix on library instances.

One test per (coordination, search type) cell — all 18 (the paper's 12
plus the two extension coordinations times three types) — each on a
real library instance, all agreeing with the sequential reference.
This is the executable version of the paper's Figure 3 product claim.
"""

import pytest

from repro.core.params import SkeletonParams
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.core.skeletons import COORDINATIONS, SEARCH_TYPES, make_skeleton
from repro.instances.library import spec_for

PARAMS = SkeletonParams(
    localities=2, workers_per_locality=4, d_cutoff=2, budget=25, seed=2,
)

# One representative instance per search type.
INSTANCE_BY_TYPE = {
    "optimisation": "brock100-1",
    "decision": "kclique-uniform-100",
    "enumeration": "uts-bin-med",
}


def reference(search_type: str):
    """Sequential result for the type's representative instance."""
    name = INSTANCE_BY_TYPE[search_type]
    spec, stype_name, kwargs = spec_for(name)
    assert stype_name == search_type or (
        stype_name == "decision" and search_type == "decision"
    )
    stype = make_search_type(stype_name, **kwargs)
    return spec, stype, kwargs, sequential_search(spec, stype)


@pytest.mark.parametrize("coordination", sorted(COORDINATIONS))
@pytest.mark.parametrize("search_type", SEARCH_TYPES)
def test_skeleton_cell(coordination, search_type):
    if search_type == "decision":
        spec, stype, kwargs, seq = reference("decision")
    elif search_type == "optimisation":
        spec, stype, kwargs, seq = reference("optimisation")
    else:
        spec, stype, kwargs, seq = reference("enumeration")

    skeleton = make_skeleton(coordination, search_type)
    res = skeleton.search(spec, PARAMS, stype=stype)

    if search_type == "enumeration":
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
    elif search_type == "optimisation":
        assert res.value == seq.value
    else:
        assert res.found == seq.found
    if coordination == "sequential":
        assert res.virtual_time is None
    else:
        assert res.virtual_time is not None
        assert res.workers == PARAMS.workers
