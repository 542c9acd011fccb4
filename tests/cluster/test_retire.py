"""Retire-drain protocol tests: RETIRE, RELEASE, and the satellites.

Protocol-level coverage uses the scripted :class:`FakeWorker` from
``test_coordinator`` so every lease/epoch decision around a drain is
observable; the e2e class runs real elastic scale-downs and checks the
results stay bit-identical to the sequential oracle.
"""

import socket
import threading
import time

import pytest

from repro.cluster import protocol as P
from repro.cluster.coordinator import ClusterError, ClusterHandle
from repro.cluster.worker import ClusterWorker

from tests.cluster.test_coordinator import (
    ENUM_PAYLOAD,
    OPT_PAYLOAD,
    FakeWorker,
    result_frame,
)


@pytest.fixture
def handle():
    h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
    h.start()
    yield h
    h.shutdown(drain_workers=False)


def offcut_frame(task_msg, nodes):
    return {
        "type": P.OFFCUT,
        "job": task_msg["job"],
        "task": task_msg["task"],
        "epoch": task_msg["epoch"],
        "depth": task_msg["depth"] + 1,
        "nodes": nodes,
    }


class TestRetireProtocol:
    def test_release_requeues_under_bumped_epoch(self, handle):
        """A retiring worker's handed-back lease is re-leased to another
        worker with a bumped epoch, counted in ``reassigned``, and the
        job completes with nothing lost or double-counted."""
        w1 = FakeWorker(*handle.address, name="w1", slots=3)
        w2 = None
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=30)
            w1.recv(P.JOB)
            t1 = w1.recv(P.TASK)  # root
            # Split two subtrees off the root; slots=3 leases both back.
            w1.send(offcut_frame(t1, [["a"], ["b"]]))
            t2 = w1.recv(P.TASK)
            t3 = w1.recv(P.TASK)

            assert handle.retire_worker("w1") is True
            w1.recv(P.RETIRE)
            # Second retire is idempotent: no duplicate RETIRE frame.
            assert handle.retire_worker("w1") is True
            w1.assert_no_frame(P.RETIRE)

            # Drain: t2 is "in flight" (finishes normally), t3 is an
            # unstarted prefetch and goes back.
            w1.send({
                "type": P.RELEASE, "job": t3["job"],
                "tasks": [[t3["task"], t3["epoch"]]],
            })
            w1.send(result_frame(t1, value=3, node=("n3",)))
            w1.send(result_frame(t2, value=4, node=("n4",)))

            # A fresh worker inherits the released task at epoch + 1.
            w2 = FakeWorker(*handle.address, name="w2")
            w2.recv(P.JOB)
            t3b = w2.recv(P.TASK)
            assert t3b["task"] == t3["task"]
            assert t3b["epoch"] == t3["epoch"] + 1

            stats = handle.load_stats()
            assert stats["reassigned"] == 1

            w2.send(result_frame(t3b, value=5, node=("n5",)))
            res = fut.result(timeout=10)
            # Three tasks, each RESULTed exactly once (5 nodes each).
            assert res.metrics.nodes == 15
            assert res.metrics.reassigned == 1
            assert res.value == 5
        finally:
            w1.close()
            if w2 is not None:
                w2.close()

    def test_retiring_worker_gets_no_new_leases(self, handle):
        """Offcuts arriving after RETIRE are leased to other workers,
        never back to the retiring one."""
        w1 = FakeWorker(*handle.address, name="w1")
        w2 = FakeWorker(*handle.address, name="w2")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=30)
            w1.recv(P.JOB)
            w2.recv(P.JOB)
            # Exactly one of them holds the root; normalise names.
            first, other = w1, w2
            try:
                t1 = w1.recv(P.TASK, timeout=1.0)
            except AssertionError:
                first, other = w2, w1
                t1 = w2.recv(P.TASK)

            assert handle.retire_worker(
                "w1" if first is w1 else "w2"
            ) is True
            first.recv(P.RETIRE)
            # The in-flight root splits a subtree *after* RETIRE: the
            # new task must go to the other worker.
            first.send(offcut_frame(t1, [["x"]]))
            t2 = other.recv(P.TASK)
            first.assert_no_frame(P.TASK)

            first.send(result_frame(t1, value=2, node=("n2",)))
            other.send(result_frame(t2, value=7, node=("n7",)))
            res = fut.result(timeout=10)
            assert res.value == 7
            assert res.metrics.reassigned == 0  # handback never needed
        finally:
            w1.close()
            w2.close()

    def test_stale_release_is_dropped(self, handle):
        """RELEASE frames with a wrong epoch or a foreign task do not
        corrupt the lease table or inflate ``reassigned``."""
        w1 = FakeWorker(*handle.address, name="w1")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=30)
            w1.recv(P.JOB)
            t1 = w1.recv(P.TASK)
            w1.send({
                "type": P.RELEASE, "job": t1["job"],
                "tasks": [
                    [t1["task"], t1["epoch"] + 5],  # wrong epoch
                    [9999, 0],                       # no such task
                    "garbage",                       # malformed pair
                ],
            })
            # The lease must still be live: finishing it completes the
            # job (a dropped lease would hang until timeout).
            w1.send(result_frame(t1, value=1, node=("n1",)))
            res = fut.result(timeout=10)
            assert res.metrics.reassigned == 0
        finally:
            w1.close()

    def test_retire_unknown_worker_is_false(self, handle):
        assert handle.retire_worker("nobody") is False

    def test_worker_retired_before_it_joined_is_never_leased(self, handle):
        # The deployment retires a worker that is still starting up and
        # stops its process; if the worker connects in the instant
        # before the stop lands it must not be handed leases it would
        # then abandon (fatal for an enumeration job).
        w1 = FakeWorker(*handle.address, name="w1", slots=3)
        late = None
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            assert handle.retire_worker("late") is False  # not here yet
            late = FakeWorker(*handle.address, name="late", slots=2)
            late.recv(P.RETIRE)
            # Work appears; the late joiner, retired on arrival, gets none.
            w1.send(offcut_frame(root, [["x"], ["y"]]))
            w1.recv(P.TASK)
            late.assert_no_frame(P.TASK)
            assert handle.load_stats()["retiring"] == 1
        finally:
            w1.close()
            if late is not None:
                late.close()

    def test_load_stats_shape(self, handle):
        w1 = FakeWorker(*handle.address, name="w1")
        try:
            deadline = time.monotonic() + 5.0
            while handle.n_workers() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = handle.load_stats()
            assert stats["connected"] == 1
            assert stats["job_active"] is False
            assert stats["queued_tasks"] == 0
            names = [w["name"] for w in stats["workers"]]
            assert names == ["w1"]
            assert handle.retire_worker("w1") is True
            assert handle.load_stats()["retiring"] == 1
        finally:
            w1.close()


class TestRetireFlushesThePool:
    def test_retire_mid_lease_hands_the_pool_back_exactly(self):
        """RETIRE lands while a budget lease has subtrees pooled: the
        whole pool goes back in OFFCUT frames (one per depth: the frame
        carries one), only the subtree in hand is finished, one RESULT
        answers for what was run here, and the worker leaves.  Pooled
        subtrees were never started, so nothing is counted twice or
        lost — exact for an enumeration."""
        from tests.cluster.test_steal import (
            stub_worker,
            subtree_nodes,
            whole_tree,
        )

        class RetireAtFifthSubtree:
            def on_task_start(self, n):
                if n == 5:
                    worker._on_message({"type": P.RETIRE})

            def on_retire(self):
                pass

            def drop_outbound(self, frame_type):
                return False

        worker, sent = stub_worker("budget", faults=RetireAtFifthSubtree())
        worker.serve()
        kinds = [m["type"] for m in sent]
        flushed = [m for m in sent if m["type"] == P.OFFCUT]
        assert flushed and kinds == [P.OFFCUT] * len(flushed) + [P.RESULT, P.BYE]
        assert worker.retired
        result = sent[-2]
        # The root, three more subtrees, and the one RETIRE found in
        # hand; everything else it had split off went back unstarted.
        assert worker.tasks_run == 5
        assert result["spawns"] == 4 + sum(len(m["nodes"]) for m in flushed)
        assert all(m["nodes"] and (m["task"], m["epoch"]) == (1, 0) for m in flushed)
        assert flushed[-1]["pool"] == 0
        handed_back = sum(subtree_nodes(worker, m) for m in flushed)
        assert handed_back > 0
        assert result["nodes"] + handed_back == whole_tree()

    def test_retire_mid_job_keeps_the_enumeration_exact(self):
        # The same, end to end: two real workers, one retired while it
        # holds a lease with subtrees pooled (seen in the load signal).
        from multiprocessing import Process

        from repro.cluster.coordinator import Coordinator
        from repro.cluster.local import job_payload
        from repro.cluster.worker import _worker_process_main
        from repro.core.searchtypes import make_search_type
        from repro.core.sequential import sequential_search
        from repro.runtime.processes import graceful_stop
        from repro.verify.generators import instance_spec

        # ~600 k nodes: long enough, at the batched drain's ~1 us/node,
        # that the victim still holds its pool when the RETIRE lands.
        args = ("uts", [4, 10, 1330772960])
        stype = make_search_type("enumeration")
        payload = job_payload(instance_spec, args, stype, budget=100)
        offcuts = []
        dispatch = Coordinator._dispatch

        def counting(self, worker, msg):
            if msg["type"] == P.OFFCUT:
                offcuts.append((worker.name, len(msg.get("nodes") or [])))
            dispatch(self, worker, msg)

        handle = ClusterHandle(heartbeat_interval=0.02, heartbeat_timeout=5.0)
        host, port = handle.start()
        procs = [
            Process(
                target=_worker_process_main,
                args=(host, port, f"w{i}", 10.0), daemon=True,
            )
            for i in range(2)
        ]
        try:
            Coordinator._dispatch = counting
            for p in procs:
                p.start()
            handle.wait_for_workers(2, timeout=15)
            fut = handle.run_job_future(payload, timeout=90)
            deadline = time.monotonic() + 10.0
            victim = None
            while victim is None and time.monotonic() < deadline:
                for w in handle.load_stats()["workers"]:
                    if w["leased"] and w["pool"] >= 4:
                        victim = w["name"]
                time.sleep(0.002)
            assert victim is not None, "no worker ever reported a pool"
            assert handle.retire_worker(victim) is True
            res = fut.result(timeout=90)
        finally:
            Coordinator._dispatch = dispatch
            handle.shutdown(drain_workers=True)
            for p in procs:
                graceful_stop(p, grace=1.0)
        seq = sequential_search(instance_spec(*args), stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
        assert offcuts and {name for name, _ in offcuts} == {victim}


class TestRetireEndToEnd:
    def test_scale_down_handback_enumeration_bit_identical(self):
        """Scale 3 -> 1 mid-enumeration: retiring workers hand back
        their unstarted leases and the node count stays exact — the
        strongest possible no-loss/no-duplication check, because any
        re-run or dropped subtree changes the total."""
        from repro.core.searchtypes import make_search_type
        from repro.core.sequential import sequential_search
        from repro.deploy import elastic_budget_search
        from repro.instances.library import library_spec_factory, spec_for

        spec, tname, kwargs = spec_for("uts-geo-med")
        stype = make_search_type(tname, **kwargs)
        res = elastic_budget_search(
            library_spec_factory, ("uts-geo-med",), stype,
            minimum=1, maximum=3, budget=300, share_poll=32, timeout=90,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_kill_during_retire_recovers(self):
        """A worker chaos-killed by the RETIRE frame dies holding its
        leases; the crash re-lease path must recover exactly what the
        cooperative RELEASE would have handed back."""
        from repro.core.searchtypes import make_search_type
        from repro.core.sequential import sequential_search
        from repro.deploy import elastic_budget_search
        from repro.instances.library import library_spec_factory, spec_for

        spec, tname, kwargs = spec_for("brock90-1")
        stype = make_search_type(tname, **kwargs)
        plan = {"events": [
            {"kind": "kill_on_retire", "worker": "deploy-1"},
            {"kind": "kill_on_retire", "worker": "deploy-2"},
        ]}
        res = elastic_budget_search(
            library_spec_factory, ("brock90-1",), stype,
            minimum=1, maximum=3, budget=400, share_poll=32, timeout=90,
            heartbeat_interval=0.1, heartbeat_timeout=1.0, fault_plan=plan,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value


class TestReconnectBackoffSatellites:
    def test_reconnect_delay_is_capped_and_jittered(self):
        w = ClusterWorker(
            "127.0.0.1", 1, reconnect_max=2.0, jitter=lambda: 1.0
        )
        assert w.reconnect_delay(0.1) == pytest.approx(0.1)
        # Way past the cap: clamped to reconnect_max, never unbounded.
        assert w.reconnect_delay(500.0) == pytest.approx(2.0)

    def test_jitter_spreads_the_delay(self):
        lo = ClusterWorker("127.0.0.1", 1, jitter=lambda: 0.0)
        hi = ClusterWorker("127.0.0.1", 1, jitter=lambda: 0.999)
        base = lo.reconnect_delay(1.0)
        assert base == pytest.approx(0.5)  # floor is half the capped delay
        assert lo.reconnect_delay(1.0) < hi.reconnect_delay(1.0) <= 1.0

    def test_wait_for_workers_names_the_shortfall(self):
        h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
        h.start()
        try:
            with pytest.raises(ClusterError, match=r"only 0 of 2.*workers"):
                h.wait_for_workers(2, timeout=0.3)
        finally:
            h.shutdown(drain_workers=False)

    def test_a_refused_handshake_backs_off_and_gives_up(self):
        """A coordinator that answers HELLO with ERROR (another protocol
        version, say) was reached but never WELCOMEd the worker: that
        takes the refused-connect path, backoff and ``give_up_after``
        included, not an immediate reconnect."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        server.settimeout(0.1)
        connections = []
        done = threading.Event()

        def refuse_every_hello():
            while not done.is_set():
                try:
                    conn, _ = server.accept()
                except OSError:
                    continue
                connections.append(conn)
                with conn:
                    conn.settimeout(1.0)
                    try:
                        P.read_frame(conn)
                        conn.sendall(P.frame_bytes({
                            "type": P.ERROR, "reason": "expected HELLO with "
                            f"protocol version {P.PROTOCOL_VERSION + 1}",
                        }))
                    except OSError:
                        pass

        listener = threading.Thread(target=refuse_every_hello, daemon=True)
        listener.start()
        stop = threading.Event()
        worker = ClusterWorker(
            *server.getsockname(), stop_event=stop, give_up_after=0.5,
        )
        raised = []

        def run():
            try:
                worker.run()
            except ConnectionError as exc:
                raised.append(exc)

        running = threading.Thread(target=run, daemon=True)
        running.start()
        try:
            running.join(timeout=3.0)
            assert not running.is_alive()
            assert "giving up" in str(raised[0])
            assert 1 <= len(connections) <= 10
        finally:
            stop.set()
            done.set()
            running.join(timeout=2.0)
            listener.join(timeout=2.0)
            server.close()
