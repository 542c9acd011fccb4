"""What runs where: the (runtime x coordination) matrix, in one table.

    Search Skeleton = Search Coordination + Search Type

and a skeleton runs on one of three runtimes.  :data:`BACKENDS` is the
only place that says which coordination each runtime implements and how
a run is started on it; ``Skeleton.search``, ``SkeletonParams``, the
service's job validation, the cluster's wire-job validation, the verify
harness and the CLI all read it.

==============  ====  =========  =======
coordination    sim   processes  cluster
==============  ====  =========  =======
depthbounded    yes   yes        yes
stacksteal      yes   yes        yes
budget          yes   yes        yes
ordered         yes   yes        yes
==============  ====  =========  =======

``sequential`` is not in the table: it is the plain depth-first driver
and needs no runtime, so it runs whatever ``params.backend`` says.

A row names its runner as ``"module:function"`` and imports it on first
use, so ``import repro`` pulls in neither ``multiprocessing`` nor
``asyncio``.  Every runner has the signature
``run(coordination, spec, spec_factory, factory_args, stype, params)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any

__all__ = ["Backend", "BACKENDS", "COORDINATION_NAMES", "backend_for"]


@dataclass(frozen=True)
class Backend:
    """One runtime: the coordinations it implements and how to run one.

    ``rebuilds_spec`` marks the runtimes whose workers are other
    processes: they cannot be handed ``spec`` and rebuild it from
    ``spec_factory(*factory_args)`` instead.
    """

    coordinations: tuple
    runner: str
    rebuilds_spec: bool

    def run(self, coordination: str, spec: Any, spec_factory: Any,
            factory_args: tuple, stype: Any, params: Any) -> Any:
        """Run one skeleton of this runtime (the cell is the caller's
        to have checked, see :func:`backend_for`)."""
        if self.rebuilds_spec and spec_factory is None:
            raise ValueError(
                f"backend={params.backend!r} rebuilds the spec in each "
                "worker process and therefore needs spec_factory (a "
                "top-level importable callable) and factory_args"
            )
        module, _, name = self.runner.partition(":")
        return getattr(import_module(module), name)(
            coordination, spec, spec_factory, factory_args, stype, params
        )


BACKENDS: dict[str, Backend] = {
    "sim": Backend(
        ("depthbounded", "stacksteal", "budget", "ordered"),
        "repro.runtime.executor:run_skeleton",
        rebuilds_spec=False,
    ),
    "processes": Backend(
        ("depthbounded", "budget", "stacksteal", "ordered"),
        "repro.runtime.processes:run_skeleton",
        rebuilds_spec=True,
    ),
    "cluster": Backend(
        ("depthbounded", "budget", "stacksteal", "ordered"),
        "repro.cluster.local:run_skeleton",
        rebuilds_spec=True,
    ),
}

COORDINATION_NAMES = ("sequential",) + tuple(
    dict.fromkeys(c for row in BACKENDS.values() for c in row.coordinations)
)


def backend_for(backend: str, coordination: str) -> Backend:
    """The row of ``backend``, checked to implement ``coordination``.

    Raises ValueError — naming the backends that do implement it — for
    a cell that is not in the table.
    """
    row = BACKENDS[backend]
    if coordination not in row.coordinations:
        elsewhere = [b for b, r in BACKENDS.items() if coordination in r.coordinations]
        raise ValueError(
            f"the {backend!r} backend implements {row.coordinations}, not "
            f"{coordination!r}, which runs on: "
            + (", ".join(repr(b) for b in elsewhere) or "no backend")
        )
    return row
