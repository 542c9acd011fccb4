"""Budget on the real runtimes: offcuts pooled at home, shipped on demand.

A budget trip pushes its offcuts into the worker's own order-preserving
pool; a subtree crosses a pipe or a socket only when another worker is
starving.  What that must not change — every node counted exactly once,
the deterministic task decomposition — and what it must change — the
coordinator sees a handful of frames, not two per task — is pinned here
on both runtimes.
"""

import pytest

from repro.cluster import protocol as P
from repro.cluster.coordinator import (
    ClusterHandle,
    ClusterJobCancelled,
    Coordinator,
)
from repro.cluster.local import cluster_search
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.instances.library import library_spec_factory, spec_for
from repro.runtime.processes import make_stype, multiprocessing_budget_search
from repro.verify.generators import instance_spec

from tests.cluster.test_coordinator import (
    ENUM_PAYLOAD,
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
        # and any worker count report the same ``spawns``.  ``steals``
        # is the subset that left the worker that split it off.
        spec, stype = _enum()
        crossed = []
        on_stolen = Coordinator._on_stolen

        def counting_stolen(self, worker, job, msg):
            crossed.append(len(msg.get("nodes") or []))
            on_stolen(self, worker, job, msg)

        monkeypatch.setattr(Coordinator, "_on_stolen", counting_stolen)
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


@pytest.fixture
def handle():
    h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
    h.start()
    yield h
    h.shutdown(drain_workers=False)


class TestLoadSignal:
    def test_queued_tasks_counts_worker_pools(self, handle):
        """``queued_tasks`` feeds the elastic policy's demand: it must
        see the runnable subtrees a budget lease-holder keeps at home,
        as last reported, on top of the coordinator's own queue."""
        w1 = FakeWorker(*handle.address, name="holder")
        w2 = FakeWorker(*handle.address, name="other")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            assert handle.load_stats()["queued_tasks"] == 0
            w1.send({"type": P.HEARTBEAT, "pool": 7})
            w1.send(offcut_frame(root, [(1,), (2,), (3,)]))
            t2 = w2.recv(P.TASK)  # one leased on; two stay queued
            stats = handle.load_stats()
            assert stats["queued_tasks"] == 2 + 7
            by_name = {w["name"]: w for w in stats["workers"]}
            assert by_name["holder"]["pool"] == 7
            assert by_name["other"]["pool"] == 0
            # A pool length rides on the frames a steal produces too.
            w2.send({
                "type": P.STOLEN, "job": t2["job"], "task": t2["task"],
                "epoch": t2["epoch"], "depth": 4,
                "nodes": [P.encode_node((9,))], "pool": 4,
            })
            w1.send(result_frame(root, knowledge=1))  # lease over: pool dry
            t3 = w1.recv(P.TASK)
            stats = handle.load_stats()
            assert stats["queued_tasks"] == 2 + 4
            assert t3["depth"] == 3  # one of the offcuts
            handle.cancel_job("enough")
            with pytest.raises(ClusterJobCancelled):
                fut.result(timeout=10)
            assert handle.load_stats()["queued_tasks"] == 0
        finally:
            w1.close()
            w2.close()
