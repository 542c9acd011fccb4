"""Budget on the real runtimes: offcuts pooled at home, shipped on demand.

A budget trip pushes its offcuts into the worker's own order-preserving
pool; a subtree crosses a pipe or a socket only when another worker is
starving.  What that must not change — every node counted exactly once,
the deterministic task decomposition — and what it must change — the
coordinator sees a handful of frames, not two per task — is pinned here
on both runtimes.
"""

import time

import pytest

from repro.cluster import protocol as P
from repro.cluster.coordinator import (
    ClusterHandle,
    ClusterJobCancelled,
    Coordinator,
)
from repro.cluster.local import cluster_search
from repro.core.ordered import ordered_reference_search
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.instances.library import library_spec_factory, spec_for
from repro.runtime.processes import make_stype, multiprocessing_budget_search
from repro.verify.generators import instance_spec

from tests.cluster.test_coordinator import (
    OPT_PAYLOAD,
    FakeWorker,
    offcut_frame,
    result_frame,
)

# A geometric UTS tree of 68 858 nodes; at these knobs budget trips
# split 1 296 subtrees off.
ENUM = "uts-geo-med"
KNOBS = dict(budget=100, share_poll=32)
# G(80, 0.75) has no 16-clique: a refuted decision prunes against the
# target alone, so its 36 776 nodes do not depend on who found what when.
REFUTED = ("kclique", [80, 75, 16, 2])


def _enum():
    spec, kind, kwargs = spec_for(ENUM)
    return spec, make_search_type(kind, **kwargs)


def _refuted():
    family, args = REFUTED
    return instance_spec(family, args), make_search_type("decision", target=args[2])


def _count_frames(monkeypatch):
    """Frames the coordinator receives, by type (test-side counters)."""
    frames: dict = {}
    dispatch = Coordinator._dispatch

    def counting_dispatch(self, worker, msg):
        frames[msg["type"]] = frames.get(msg["type"], 0) + 1
        dispatch(self, worker, msg)

    monkeypatch.setattr(Coordinator, "_dispatch", counting_dispatch)
    return frames


class TestCountsStayExact:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cluster_enumeration_bit_identical(self, n):
        spec, stype = _enum()
        seq = sequential_search(spec, stype)
        res = cluster_search(
            library_spec_factory, (ENUM,), stype,
            n_workers=n, timeout=60, **KNOBS,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cluster_refuted_decision_bit_identical(self, n):
        spec, stype = _refuted()
        seq = sequential_search(spec, stype)
        res = cluster_search(
            instance_spec, REFUTED, stype, n_workers=n, timeout=60, **KNOBS,
        )
        assert res.found is False and seq.found is False
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_processes_enumeration_bit_identical(self, n):
        spec, stype = _enum()
        seq = sequential_search(spec, stype)
        res = multiprocessing_budget_search(
            library_spec_factory, (ENUM,), make_stype, ("enumeration", {}),
            n_processes=n, **KNOBS,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_processes_refuted_decision_bit_identical(self, n):
        spec, stype = _refuted()
        seq = sequential_search(spec, stype)
        res = multiprocessing_budget_search(
            instance_spec, REFUTED, make_stype,
            ("decision", {"target": REFUTED[1][2]}),
            n_processes=n, **KNOBS,
        )
        assert res.found is False
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes


class TestSpawnsAndSteals:
    def test_spawns_agree_across_runtimes_and_steals_count_crossings(
        self, monkeypatch
    ):
        # Every subtree is searched under a fresh budget counter
        # wherever it runs, so how the tree falls apart into subtrees is
        # a function of tree, budget and share_poll alone: both runtimes
        # and any worker count report the same ``spawns`` — each subtree
        # once, where it was split.  ``steals`` is what crossed to
        # another worker (a subtree handed on twice counts twice).
        spec, stype = _enum()
        crossed = []
        dispatch = Coordinator._dispatch

        def counting_stolen(self, worker, msg):
            if msg["type"] == P.STOLEN:
                crossed.append(len(msg.get("nodes") or []))
            dispatch(self, worker, msg)

        monkeypatch.setattr(Coordinator, "_dispatch", counting_stolen)
        on_cluster = cluster_search(
            library_spec_factory, (ENUM,), stype,
            n_workers=2, timeout=60, **KNOBS,
        )
        alone = multiprocessing_budget_search(
            library_spec_factory, (ENUM,), make_stype, ("enumeration", {}),
            n_processes=1, **KNOBS,
        )
        shared = multiprocessing_budget_search(
            library_spec_factory, (ENUM,), make_stype, ("enumeration", {}),
            n_processes=2, **KNOBS,
        )
        assert on_cluster.metrics.spawns == alone.metrics.spawns > 0
        assert shared.metrics.spawns == alone.metrics.spawns
        assert alone.metrics.steals == 0  # nobody to starve
        assert 0 < on_cluster.metrics.steals == sum(crossed)
        assert on_cluster.metrics.steals < on_cluster.metrics.spawns
        assert shared.metrics.steals <= shared.metrics.spawns

    def test_coordinator_sees_a_handful_of_frames(self, monkeypatch):
        # One RESULT per lease and one STOLEN per steal, not an OFFCUT
        # and a RESULT per budget trip.
        frames = _count_frames(monkeypatch)
        spec, stype = _enum()
        res = cluster_search(
            library_spec_factory, (ENUM,), stype,
            n_workers=2, timeout=60, **KNOBS,
        )
        assert res.workers == 2
        job_frames = sum(n for t, n in frames.items() if t != P.HEARTBEAT)
        assert job_frames < res.metrics.spawns / 10
        assert frames.get(P.OFFCUT, 0) == 0  # nobody retired

    def test_single_worker_ships_nothing(self, monkeypatch):
        frames = _count_frames(monkeypatch)
        spec, stype = _enum()
        res = cluster_search(
            library_spec_factory, (ENUM,), stype,
            n_workers=1, timeout=60, **KNOBS,
        )
        assert res.metrics.spawns > 0 and res.metrics.steals == 0
        assert frames.get(P.STOLEN, 0) == frames.get(P.OFFCUT, 0) == 0
        assert frames[P.RESULT] == 1  # the root lease, pool and all


# The ledger's UTS tree (both enum-uts workloads search it) and the
# Budget task counts its per-layer metrics ``cluster.budget.tasks`` and
# ``runtime.processes.budget.tasks`` have read since they exist.
LEDGER_UTS = ("uts", (4, 9, 1330772960))
LEDGER_UTS_NODES = 149_511


class TestLedgerTaskCounts:
    @pytest.mark.parametrize("budget, tasks", [(1000, 360), (100, 2984)])
    def test_uts_falls_apart_the_same_on_both_runtimes(self, budget, tasks):
        """``enum-uts-coarse`` and ``enum-uts-fine``: a subtree that
        arrives in a lease of several, or is handed on again, is still
        one spawn, counted where it was split."""
        stype = make_search_type("enumeration")
        on_cluster = cluster_search(
            instance_spec, LEDGER_UTS, stype, n_workers=2, timeout=60, budget=budget,
        )
        on_processes = multiprocessing_budget_search(
            instance_spec, LEDGER_UTS, make_stype, ("enumeration", {}),
            n_processes=2, budget=budget,
        )
        for res in (on_cluster, on_processes):
            assert res.metrics.nodes == LEDGER_UTS_NODES
            assert res.metrics.spawns == tasks

    def test_brock90_1_is_87_tasks(self):
        # ``gateway-mix``: the one trip of a 5 k-node search splits the
        # root's other children off, and none of them is big enough to
        # trip again whatever bound it starts from.
        spec, stype = spec_for("brock90-1")[0], make_search_type("optimisation")
        best = sequential_search(spec, stype).value
        on_cluster = cluster_search(
            library_spec_factory, ("brock90-1",), stype, n_workers=2, timeout=60,
        )
        on_processes = multiprocessing_budget_search(
            library_spec_factory, ("brock90-1",), make_stype, ("optimisation", {}),
            n_processes=2,
        )
        for res in (on_cluster, on_processes):
            assert (res.value, res.metrics.spawns) == (best, 87)


class TestFrameBudget:
    """What a job on a 5 k-node tree costs the coordinator, as counts: a
    timing would not survive a shared CI runner."""

    @pytest.mark.parametrize("coordination", ["budget", "stacksteal"])
    def test_brock90_1_is_a_dozen_leases_not_88(self, coordination, monkeypatch):
        # The root's 87 other children used to be a lease each (88
        # RESULTs, ~177 frames).  Handed over half a level at a time
        # they are at most one lease per halving — 7 — and a STOLEN
        # before each but the first.
        frames = _count_frames(monkeypatch)
        stype = make_search_type("optimisation")
        res = cluster_search(
            library_spec_factory, ("brock90-1",), stype,
            coordination=coordination, n_workers=2, timeout=60,
        )
        assert res.value == 14
        assert frames[P.RESULT] <= 12
        job_frames = sum(
            n for t, n in frames.items() if t not in (P.HEARTBEAT, P.INCUMBENT)
        )
        assert job_frames <= 16


    def test_brock90_1_ordered_leases_are_numbers_under_8_kb(self, monkeypatch):
        # 2 159 frontier tasks used to leave as 2 159 encoded nodes,
        # over 100 KB of TASK frames a job.  A lease names its tasks by
        # path now, [id, epoch, stretches, bound], each stretch [seq,
        # path, children, index, count]: ints (and no bound at all for
        # an enumeration), nothing that could hold a node.
        sent = []
        post = Coordinator._post

        def recording_post(self, worker, *msgs):
            sent.extend(
                (msg, len(P.frame_bytes(msg, worker.codec)))
                for msg in msgs if msg["type"] == P.TASK
            )
            post(self, worker, *msgs)

        monkeypatch.setattr(Coordinator, "_post", recording_post)
        stype = make_search_type("optimisation")
        spec = library_spec_factory("brock90-1")
        want = ordered_reference_search(spec, stype, d_cutoff=2)
        res = cluster_search(
            library_spec_factory, ("brock90-1",), stype,
            coordination="ordered", n_workers=2, d_cutoff=2, timeout=60,
        )
        assert (res.value, res.node) == (want.value, want.node)
        assert res.metrics.nodes == want.metrics.nodes == 6511
        assert res.metrics.spawns == 2159
        leases = [lease for msg, _ in sent for lease in msg["leases"]]
        assert leases
        for _id, _epoch, stretches, bound in leases:
            assert stretches and type(bound) is int
            for seq, path, *counts in stretches:
                assert len(path) == 1  # d_cutoff - 1 child indices
                assert all(type(n) is int for n in [seq, *path, *counts])
        assert sum(size for _, size in sent) < 8 * 1024
        # Root-pruned tasks stand from any lower bound: far fewer than
        # the 243-500 re-runs a job used to cost.
        assert res.metrics.reassigned < 200


@pytest.fixture
def handle():
    h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
    h.start()
    yield h
    h.shutdown(drain_workers=False)


def _eventually(handle, queued, within=3.0):
    """Does ``queued_tasks`` reach ``queued`` (frames race the probe)?"""
    deadline = time.monotonic() + within
    while handle.load_stats()["queued_tasks"] != queued:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestLoadSignal:
    def test_queued_tasks_counts_worker_pools(self, handle):
        """``queued_tasks`` feeds the elastic policy's demand: it must
        see the runnable subtrees a lease-holder keeps at home, as last
        reported, on top of the coordinator's own queue — in subtrees,
        however many of them one queued record holds."""
        w1 = FakeWorker(*handle.address, name="holder")
        w2 = FakeWorker(*handle.address, name="other")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            assert handle.load_stats()["queued_tasks"] == 0
            w1.send({"type": P.HEARTBEAT, "pool": 7})
            w1.send(offcut_frame(root, [(1,), (2,), (3,)]))
            t2 = w2.recv(P.TASK)  # all three, one lease: nothing stays queued
            assert len(t2["nodes"]) == 3
            stats = handle.load_stats()
            assert stats["queued_tasks"] == 0 + 7
            by_name = {w["name"]: w for w in stats["workers"]}
            assert by_name["holder"]["pool"] == 7
            assert by_name["other"]["pool"] == 0
            # A pool length rides on the frames a steal produces too;
            # with both workers busy its subtree waits here.
            w2.send({
                "type": P.STOLEN, "job": t2["job"], "task": t2["task"],
                "epoch": t2["epoch"], "depth": 4,
                "nodes": [P.encode_node((9,))], "pool": 4,
            })
            assert _eventually(handle, 1 + 7 + 4)
            # The holder of the three-root lease is lost: the lease is
            # queued again whole, and counts as three.
            w2.stop_heartbeat()
            assert _eventually(handle, 3 + 1 + 7)
            w1.send(result_frame(root, value=1, node=(1,)))  # lease over: pool dry
            t3 = w1.recv(P.TASK)
            assert t3["nodes"] == t2["nodes"] and t3["epoch"] == 1
            assert handle.load_stats()["queued_tasks"] == 1
            handle.cancel_job("enough")
            with pytest.raises(ClusterJobCancelled):
                fut.result(timeout=10)
            assert handle.load_stats()["queued_tasks"] == 0
        finally:
            w1.close()
            w2.close()
