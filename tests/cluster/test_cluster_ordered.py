"""End-to-end ordered & stack-stealing cluster runs: real processes.

The ordered coordination's acceptance bar is the Replicable BnB
guarantee: same instance, same d_cutoff, ANY worker count — the same
objective, the same witness, and the same node/prune/backtrack counts,
all equal to :func:`ordered_reference_search`.  Including under a
``kill_worker`` fault plan: ordered tasks are pure functions of
``(root, bound)``, so a re-leased task re-runs bit-identically and the
death is invisible in the fingerprint.

Stack-stealing is held to the usual bars: enumeration bit-identical to
sequential (every node counted exactly once however the stack is
split), optimisation value-and-witness exact.
"""

import pytest

from repro.cluster import protocol as P
from repro.cluster.coordinator import Coordinator
from repro.cluster.local import cluster_search, job_payload
from repro.core.ordered import ordered_reference_search
from repro.core.results import validate_result
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.deploy import ClusterDeployment, WorkerSpec
from repro.instances.library import library_spec_factory, spec_for
from repro.verify.generators import Instance, instance_spec, search_setup
from repro.verify.repetition import result_fingerprint

MAXCLIQUE_ARGS = (12, 60, 3)
UTS_ARGS = (2, 4, 9)
KNAPSACK_ARGS = (8, 5)

# Tight heartbeats for the chaos runs so a killed worker's leases
# re-issue within the test budget.
CHAOS = dict(heartbeat_interval=0.1, heartbeat_timeout=0.8)
KILL_PLAN = {
    "events": [{"kind": "kill_worker", "worker": "local-1", "at_task": 1}]
}


def _setup(family, args):
    spec, kind, kwargs = search_setup(Instance(family, tuple(args)))
    return spec, make_search_type(kind, **kwargs)


def _ordered(family, args, *, n_workers, d_cutoff=2, **kw):
    return cluster_search(
        instance_spec, (family, list(args)),
        _setup(family, args)[1],
        coordination="ordered", n_workers=n_workers, d_cutoff=d_cutoff,
        timeout=120, **kw,
    )


class TestOrderedReplicable:
    def test_fingerprint_identical_across_worker_counts(self):
        spec, stype = _setup("maxclique", MAXCLIQUE_ARGS)
        want = result_fingerprint(
            ordered_reference_search(spec, stype, d_cutoff=2), counts=True
        )
        for n in (1, 2, 4):
            res = _ordered("maxclique", MAXCLIQUE_ARGS, n_workers=n)
            assert result_fingerprint(res, counts=True) == want, n
            assert validate_result(spec, res)

    def test_repeated_runs_bit_identical(self):
        spec, stype = _setup("knapsack", KNAPSACK_ARGS)
        want = result_fingerprint(
            ordered_reference_search(spec, stype, d_cutoff=2), counts=True
        )
        prints = [
            result_fingerprint(
                _ordered("knapsack", KNAPSACK_ARGS, n_workers=2), counts=True
            )
            for _ in range(3)
        ]
        assert prints == [want] * 3

    def test_enumeration_ordered_matches_reference(self):
        spec, stype = _setup("uts", UTS_ARGS)
        ref = ordered_reference_search(spec, stype, d_cutoff=2)
        seq = sequential_search(spec, stype)
        res = _ordered("uts", UTS_ARGS, n_workers=2)
        assert res.value == ref.value == seq.value
        assert res.metrics.nodes == ref.metrics.nodes == seq.metrics.nodes

    def test_kill_worker_chaos_fingerprint_unchanged(self):
        spec, stype = _setup("maxclique", MAXCLIQUE_ARGS)
        want = result_fingerprint(
            ordered_reference_search(spec, stype, d_cutoff=2), counts=True
        )
        res = _ordered(
            "maxclique", MAXCLIQUE_ARGS, n_workers=3,
            fault_plan=KILL_PLAN, **CHAOS,
        )
        assert result_fingerprint(res, counts=True) == want
        # The kill really happened and really was survived.
        assert res.metrics.reassigned >= 1

    def test_enumeration_survives_kill_worker(self):
        # The one enumeration flow where losing a worker is sound:
        # ordered tasks re-run bit-identically, so the accumulator
        # cannot double- or under-count.
        spec, stype = _setup("uts", UTS_ARGS)
        ref = ordered_reference_search(spec, stype, d_cutoff=2)
        res = _ordered(
            "uts", UTS_ARGS, n_workers=3, fault_plan=KILL_PLAN, **CHAOS,
        )
        assert res.value == ref.value
        assert res.metrics.nodes == ref.metrics.nodes
        assert res.metrics.reassigned >= 1


# G(75, 0.70) seed 1 at d_cutoff=2: 1972 tasks, and the bound moves at
# seq 0, 4, 99 and — late — seq 467 (the same pin as the processes
# regression in tests/runtime/test_processes_ordered.py).
LATE_ARGS = (75, 70, 1)
LATE_TASKS = 1972


def _depthbounded(family, args, *, n_workers, d_cutoff=2, **kw):
    return cluster_search(
        instance_spec, (family, list(args)),
        _setup(family, args)[1],
        coordination="depthbounded", n_workers=n_workers, d_cutoff=d_cutoff,
        timeout=120, **kw,
    )


class TestDepthBoundedRuns:
    """Depth-Bounded is leased in runs by path, as Ordered is: a run
    reports once and never ships a subtree, so a lost one is re-run
    exactly, and no frontier node crosses the wire."""

    def test_enumeration_survives_kill_worker(self):
        spec, stype = _setup("uts", UTS_ARGS)
        seq = sequential_search(spec, stype)
        res = _depthbounded(
            "uts", UTS_ARGS, n_workers=3, fault_plan=KILL_PLAN, **CHAOS,
        )
        assert (res.value, res.metrics.nodes) == (seq.value, seq.metrics.nodes)
        assert res.metrics.reassigned >= 1

    def test_no_lease_encodes_a_node(self, monkeypatch):
        spec, stype = _setup("maxclique", MAXCLIQUE_ARGS)
        payload = job_payload(
            instance_spec, ("maxclique", list(MAXCLIQUE_ARGS)), stype,
            coordination="depthbounded", d_cutoff=2,
        )
        encoded = []
        encode = P.encode_node
        monkeypatch.setattr(P, "encode_node", lambda node: encoded.append(node) or encode(node))
        with ClusterDeployment(WorkerSpec(name_prefix="local", give_up_after=15.0)) as cluster:
            cluster.fork(2)
            cluster.wait_for_workers(2, timeout=20.0)
            res = cluster.run_job(payload, timeout=60)
        assert res.value == sequential_search(spec, stype).value
        assert validate_result(spec, res)
        assert res.metrics.spawns > 1 and encoded == []


class TestFrontierIsPerJob:
    def test_one_fleet_other_cutoff_other_search_type(self):
        # A warm worker keeps its spec between jobs, never its
        # frontier: that depends on the cutoff and the search type too.
        spec, stype = _setup("maxclique", MAXCLIQUE_ARGS)
        best = sequential_search(spec, stype).value
        jobs = [
            (stype, 1), (stype, 2),
            (make_search_type("decision", target=best), 2),
            (stype, 2),
            (make_search_type("decision", target=best + 1), 1),
        ]
        with ClusterDeployment(WorkerSpec(name_prefix="local", give_up_after=15.0)) as cluster:
            cluster.fork(2)
            cluster.wait_for_workers(2, timeout=20.0)
            for job_stype, d_cutoff in jobs:
                want = ordered_reference_search(spec, job_stype, d_cutoff=d_cutoff)
                res = cluster.run_job(job_payload(
                    instance_spec, ("maxclique", list(MAXCLIQUE_ARGS)), job_stype,
                    coordination="ordered", d_cutoff=d_cutoff,
                ), timeout=60)
                assert result_fingerprint(res, counts=True) == result_fingerprint(
                    want, counts=True
                ), (job_stype, d_cutoff)
                assert res.metrics.spawns == want.metrics.spawns


class TestLateImprovement:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fingerprint_and_frame_count(self, n, monkeypatch):
        frames = {P.TASK: 0, P.RESULT: 0}
        post, dispatch = Coordinator._post, Coordinator._dispatch

        def counting_post(self, worker, msg):
            if msg["type"] == P.TASK:
                frames[P.TASK] += 1
            post(self, worker, msg)

        def counting_dispatch(self, worker, msg):
            if msg["type"] == P.RESULT:
                frames[P.RESULT] += 1
            dispatch(self, worker, msg)

        monkeypatch.setattr(Coordinator, "_post", counting_post)
        monkeypatch.setattr(Coordinator, "_dispatch", counting_dispatch)
        spec, stype = _setup("maxclique", LATE_ARGS)
        ref = ordered_reference_search(spec, stype, d_cutoff=2)
        assert ref.metrics.spawns == LATE_TASKS
        res = _ordered("maxclique", LATE_ARGS, n_workers=n)
        assert result_fingerprint(res, counts=True) == result_fingerprint(
            ref, counts=True
        )
        # TASK frames carry runs and RESULT frames their records: far
        # fewer than one frame per task in each direction.
        assert frames[P.TASK] + frames[P.RESULT] < LATE_TASKS / 4


class TestStackStealEndToEnd:
    def test_enumeration_bit_identical_with_real_steals(self):
        spec, tname, kwargs = spec_for("uts-bin-med")
        stype = make_search_type(tname, **kwargs)
        res = cluster_search(
            library_spec_factory, ("uts-bin-med",), stype,
            coordination="stacksteal", n_workers=3, share_poll=32,
            timeout=120,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
        assert res.metrics.steals > 0  # thefts actually happened
        assert res.workers == 3

    def test_optimisation_value_and_witness(self):
        spec, stype = _setup("maxclique", MAXCLIQUE_ARGS)
        res = cluster_search(
            instance_spec, ("maxclique", list(MAXCLIQUE_ARGS)), stype,
            coordination="stacksteal", n_workers=2, timeout=120,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert validate_result(spec, res)

    def test_unchunked_split_matches_sequential(self):
        # chunked=False steals one frame instead of half the stack —
        # the work movement differs, the answer must not.
        spec, stype = _setup("uts", UTS_ARGS)
        res = cluster_search(
            instance_spec, ("uts", list(UTS_ARGS)), stype,
            coordination="stacksteal", n_workers=2, chunked=False,
            timeout=120,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
