"""The 12 search skeletons: coordination x search type (Figure 3).

    Search Skeleton = Search Coordination + Search Type

Four coordinations (Sequential, Depth-Bounded, Stack-Stealing, Budget)
times three search types (Enumeration, Decision, Optimisation) gives the
paper's 12 skeletons.  :func:`make_skeleton` builds any of them by name;
the module also exposes each combination as a ready-made constant
(``DepthBoundedOptimisation`` etc.) for the Listing-5 composition style:

    result = DepthBoundedOptimisation.search(spec, params)

The Sequential skeleton runs the plain depth-first driver; a parallel
skeleton runs on the runtime ``params.backend`` names — the simulator,
real OS processes or a localhost TCP cluster — looked up in
:data:`repro.core.backends.BACKENDS`, the one table of what runs where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.backends import backend_for
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.searchtypes import SearchType, make_search_type
from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec
from repro.core.tasks import BUDGET, DEPTH, ORDERED, SEQ, STACK

__all__ = [
    "Skeleton",
    "make_skeleton",
    "COORDINATIONS",
    "SEARCH_TYPES",
    "ALL_SKELETONS",
]

# public coordination names -> internal task policies.
COORDINATIONS = {
    "sequential": SEQ,
    "depthbounded": DEPTH,
    "stacksteal": STACK,
    "budget": BUDGET,
    "ordered": ORDERED,
}

SEARCH_TYPES = ("enumeration", "decision", "optimisation")


@dataclass(frozen=True)
class Skeleton:
    """A reusable parallel (or sequential) search pattern.

    Search-type construction is deferred to :meth:`search` for types
    that need per-instance arguments (a Decision target); a pre-built
    :class:`SearchType` may also be supplied.
    """

    coordination: str
    search_type: str

    def __post_init__(self) -> None:
        if self.coordination not in COORDINATIONS:
            raise ValueError(
                f"unknown coordination {self.coordination!r}; "
                f"expected one of {sorted(COORDINATIONS)}"
            )
        if self.search_type not in SEARCH_TYPES:
            raise ValueError(
                f"unknown search type {self.search_type!r}; "
                f"expected one of {sorted(SEARCH_TYPES)}"
            )

    @property
    def name(self) -> str:
        return f"{self.coordination}-{self.search_type}"

    def search(
        self,
        spec: SearchSpec,
        params: Optional[SkeletonParams] = None,
        *,
        stype: Optional[SearchType] = None,
        cluster: Optional[Any] = None,
        spec_factory: Optional[Any] = None,
        factory_args: tuple = (),
        **type_kwargs: Any,
    ) -> SearchResult:
        """Run this skeleton on ``spec``.

        ``type_kwargs`` go to the search-type constructor (e.g.
        ``target=27`` for decision searches).  ``cluster`` optionally
        supplies a pre-configured :class:`SimulatedCluster` (custom
        cost models, tracing) to run on instead of the runtime
        ``params.backend`` names.

        The ``"processes"`` and ``"cluster"`` backends rebuild the spec
        in each worker: ``spec_factory`` must be a top-level importable
        callable with picklable ``factory_args`` such that
        ``spec_factory(*factory_args)`` reproduces ``spec``.  A
        coordination the backend does not implement raises ValueError
        naming the backends that do.
        """
        if stype is None:
            stype = make_search_type(self.search_type, **type_kwargs)
        elif type_kwargs:
            raise ValueError("pass either a search type object or kwargs, not both")
        if stype.kind != self.search_type:
            raise ValueError(
                f"search type object is {stype.kind!r}, skeleton wants {self.search_type!r}"
            )
        params = params if params is not None else SkeletonParams()
        # params.coordination is the batch-driver override (verify,
        # service): it reroutes this run without rebuilding the skeleton.
        coordination = params.coordination or self.coordination
        policy = COORDINATIONS[coordination]
        if policy == SEQ:
            return sequential_search(spec, stype)
        if cluster is not None:
            return cluster.run(spec, stype, policy, params)
        return backend_for(params.backend, coordination).run(
            coordination, spec, spec_factory, factory_args, stype, params
        )


def make_skeleton(coordination: str, search_type: str) -> Skeleton:
    """Build one of the 12 skeletons by name."""
    return Skeleton(coordination, search_type)


ALL_SKELETONS: dict[str, Skeleton] = {
    f"{coord}-{stype}": Skeleton(coord, stype)
    for coord in COORDINATIONS
    for stype in SEARCH_TYPES
}

# Listing-5 style named constants, e.g. StackStealingOptimisation.
_CAMEL = {
    "sequential": "Sequential",
    "depthbounded": "DepthBounded",
    "stacksteal": "StackStealing",
    "budget": "Budget",
    "ordered": "Ordered",
}
for _coord, _camel in _CAMEL.items():
    for _stype in SEARCH_TYPES:
        _name = f"{_camel}{_stype.capitalize()}"
        globals()[_name] = ALL_SKELETONS[f"{_coord}-{_stype}"]
        __all__.append(_name)
del _coord, _camel, _stype, _name
