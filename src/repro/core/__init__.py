"""The YewPar skeleton library core (paper Section 4).

Composition model (Figure 3):

    Search Skeleton     = Search Coordination + Search Type
    Search Application  = Search Skeleton + Lazy Node Generator

Users write a Lazy Node Generator (:mod:`repro.core.nodegen`) and an
objective/bound, bundle them in a :class:`SearchSpec`, and hand the spec
to one of the 12 skeletons (:mod:`repro.core.skeletons`).
"""

from repro.core.kernel import search_subtree
from repro.core.nodegen import (
    GeneratorFactory,
    IterNodeGenerator,
    ListNodeGenerator,
    NodeGenerator,
)
from repro.core.ordered import (
    OrderedFrontier,
    OrderedLedger,
    execute_run,
    ordered_frontier,
    ordered_reference_search,
    run_task_fixed_bound,
)
from repro.core.params import SkeletonParams
from repro.core.results import (
    SearchMetrics,
    SearchResult,
    result_from_dict,
    validate_result,
)
from repro.core.searchtypes import (
    Decision,
    Enumeration,
    Incumbent,
    Optimisation,
    SearchType,
    make_search_type,
)
from repro.core.sequential import sequential_search
from repro.core.skeletons import ALL_SKELETONS, Skeleton, make_skeleton
from repro.core.space import SearchSpec
from repro.core.tasks import SearchTask, SpawnedTask, StepOutcome

__all__ = [
    "NodeGenerator",
    "IterNodeGenerator",
    "ListNodeGenerator",
    "GeneratorFactory",
    "SkeletonParams",
    "OrderedFrontier",
    "OrderedLedger",
    "execute_run",
    "ordered_frontier",
    "ordered_reference_search",
    "run_task_fixed_bound",
    "SearchMetrics",
    "SearchResult",
    "result_from_dict",
    "validate_result",
    "SearchType",
    "Enumeration",
    "Optimisation",
    "Decision",
    "Incumbent",
    "make_search_type",
    "sequential_search",
    "search_subtree",
    "Skeleton",
    "make_skeleton",
    "ALL_SKELETONS",
    "SearchSpec",
    "SearchTask",
    "SpawnedTask",
    "StepOutcome",
]
