"""Simulated distributed execution substrate (the HPX substitute).

The paper runs skeletons over HPX on a 17-node Beowulf cluster.  Python
cannot express 255-way fine-grained tree search (the GIL serialises it),
so this package provides a **deterministic discrete-event simulation** of
the same architecture: localities holding workers, per-locality
order-preserving workpools, steal channels with latency, and delayed
incumbent broadcast.  The simulated workers drive the *identical*
:class:`repro.core.tasks.SearchTask` state machines a real worker would,
one step per time quantum, so coordination behaviour — load balance,
starvation, pruning timing, anomalies — is reproduced faithfully under
an explicit cost model.

See DESIGN.md §2 for the substitution argument.
"""

from repro.runtime.topology import Topology
from repro.runtime.costmodel import CostModel
from repro.runtime.sim import Simulator
from repro.runtime.workpool import Workpool
from repro.runtime.knowledge import KnowledgeManager
from repro.runtime.executor import SimulatedCluster, virtual_sequential_time
from repro.runtime.trace import Trace, render_gantt, utilisation_timeline

__all__ = [
    "Topology",
    "CostModel",
    "Simulator",
    "Workpool",
    "KnowledgeManager",
    "SimulatedCluster",
    "virtual_sequential_time",
    "Trace",
    "render_gantt",
    "utilisation_timeline",
]
