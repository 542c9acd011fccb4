"""The real runtimes over the kernel's three drains, end to end.

A worker's ``on_poll`` splits a stack of frames the kernel walks with a
local index — UTS's list frames under Enumeration, MaxClique's column
frames under Optimisation — or of lazy frames (MaxClique under
Enumeration), and the offcuts — UTS's NamedTuple nodes, MaxClique's
slotted nodes — cross a process queue or the cluster wire.  Enumeration
visits every node exactly once however the stack is cut, so the node
count and the folded value must equal ``sequential_search``'s; for
Optimisation the bound a poll hands back prunes by timing, so the value
and a valid witness are the bar.  The trees take sequential_search
0.1-0.2 s, so that a Stack-Stealing peer is hungry — fewer leases than
workers — long before the victim is done.
"""

import pytest

from repro.cluster.local import cluster_search
from repro.core.results import validate_result
from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.processes import (
    make_stype,
    multiprocessing_budget_search,
    multiprocessing_stacksteal_search,
)
from repro.verify.generators import instance_spec

ENUMERATED = [("uts", (4, 9, 1330772960)), ("maxclique", (32, 80, 3))]  # 150 k, 112 k nodes
OPTIMISED = ("maxclique", (70, 85, 3))  # 90 k nodes sequentially


def run_processes_budget(args, kind):
    return multiprocessing_budget_search(
        instance_spec, args, make_stype, (kind, {}),
        n_processes=2, budget=200, share_poll=16,
    )


def run_processes_stacksteal(chunked):
    def run(args, kind):
        return multiprocessing_stacksteal_search(
            instance_spec, args, make_stype, (kind, {}),
            n_processes=2, share_poll=16, chunked=chunked,
        )
    return run


def run_cluster_budget(args, kind):
    stype = Enumeration() if kind == "enumeration" else Optimisation()
    return cluster_search(
        instance_spec, args, stype,
        coordination="budget", n_workers=2, budget=200, share_poll=16, timeout=60.0,
    )


RUNTIMES = {
    "processes-budget": run_processes_budget,
    "processes-stacksteal-chunked": run_processes_stacksteal(True),
    "processes-stacksteal-single": run_processes_stacksteal(False),
    "cluster-budget": run_cluster_budget,
}


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestExactAgainstSequential:
    @pytest.mark.parametrize("args", ENUMERATED, ids=[family for family, _ in ENUMERATED])
    def test_enumeration_counts_every_node_once(self, runtime, args):
        spec = instance_spec(*args)
        seq = sequential_search(spec, Enumeration())
        res = RUNTIMES[runtime](args, "enumeration")
        assert (res.value, res.metrics.nodes) == (seq.value, seq.metrics.nodes)
        assert res.metrics.spawns > 0  # stacks were split

    def test_optimisation_value_and_witness(self, runtime):
        spec = instance_spec(*OPTIMISED)
        seq = sequential_search(spec, Optimisation())
        res = RUNTIMES[runtime](OPTIMISED, "optimisation")
        assert res.value == seq.value
        assert validate_result(spec, res)
