"""Stack-stealing and ordered protocol tests, driven by scripted workers.

The STEAL/STOLEN exchange and the ordered run-lease/re-issue
cycle are coordinator decisions, so they are tested at the wire level
with the :class:`FakeWorker` from ``test_coordinator``: every frame the
coordinator emits (or must NOT emit) is observable deterministically.
"""

import socket
import sys
import threading
import time

import pytest

from repro.cluster import protocol as P
from repro.cluster.coordinator import ClusterHandle, ClusterJobFailed
from repro.cluster.worker import ClusterWorker
from repro.core.kernel import search_subtree
from repro.core.ordered import ordered_frontier, ordered_reference_search
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.instances.library import library_spec_factory
from repro.verify.generators import instance_spec

from tests.cluster.test_coordinator import (
    ENUM_PAYLOAD,
    OPT_PAYLOAD,
    FakeWorker,
    refused_hello,
    result_frame,
)

STEAL_ENUM = dict(ENUM_PAYLOAD, coordination="stacksteal")
STEAL_OPT = dict(OPT_PAYLOAD, coordination="stacksteal")

# Tiny seeded maxclique: the ordered frontier at d_cutoff=1 is small
# enough to script every lease by hand.
ORDERED_OPT = {
    "factory": "repro.verify.generators:instance_spec",
    "factory_args": ["maxclique", [6, 50, 1]],
    "stype_kind": "optimisation",
    "stype_kwargs": {},
    "coordination": "ordered",
    "d_cutoff": 1,
    "budget": 1000,
    "share_poll": 64,
}


# Its tasks at d_cutoff=1: the root's children.
FRONTIER = len(ordered_frontier(
    instance_spec(*ORDERED_OPT["factory_args"]), make_search_type("optimisation"), d_cutoff=1,
).tasks)


@pytest.fixture
def handle():
    h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
    h.start()
    yield h
    h.shutdown(drain_workers=False)


def stolen_frame(task_msg, nodes, depth=3):
    """A STOLEN frame splitting ``nodes`` off the held lease."""
    return {
        "type": P.STOLEN,
        "job": task_msg["job"],
        "task": task_msg["task"],
        "epoch": task_msg["epoch"],
        "depth": depth,
        "nodes": [P.encode_node(n) for n in nodes],
    }


class TestStealMediation:
    def test_idle_worker_triggers_steal_from_victim(self, handle):
        w1 = FakeWorker(*handle.address, name="victim")
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            # Queue is empty and w2 is idle: the coordinator must ask
            # the one busy worker to split its live stack.
            steal = w1.recv(P.STEAL)
            assert steal["job"] == root["job"]
            w1.send(stolen_frame(root, [(1, 2), (3, 4), (5, 6)]))
            # The answer reaches the thief as one lease, in one frame.
            t2 = w2.recv(P.TASK)
            assert P.decode_node(t2["nodes"]) == [(1, 2), (3, 4), (5, 6)]
            assert t2["depth"] == 3
            w1.send(result_frame(root, knowledge=1))
            w2.send(result_frame(t2, knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 11
            assert res.metrics.steals == 3  # subtrees that crossed
            assert res.workers == 2
        finally:
            w1.close()
            w2.close()

    def test_stolen_work_goes_to_the_thief_not_back_to_the_victim(self, handle):
        """The victim has a free prefetch slot and comes first in the
        worker table: the hand-over must not be leased straight back to
        it while the worker it was stolen for runs nothing."""
        w1 = FakeWorker(*handle.address, name="victim", slots=2)
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            w1.send(stolen_frame(root, [(1,), (2,), (3,), (4,)]))
            t2 = w2.recv(P.TASK)
            assert len(t2["nodes"]) == 4
            w1.assert_no_frame(P.TASK, within=0.3)
            w1.send(result_frame(root, knowledge=1))
            w2.send(result_frame(t2, knowledge=10))
            assert fut.result(timeout=10).value == 11
        finally:
            w1.close()
            w2.close()

    def test_one_answer_is_dealt_to_every_idle_worker(self, handle):
        w1 = FakeWorker(*handle.address, name="victim")
        thieves = [FakeWorker(*handle.address, name=f"thief{i}") for i in range(3)]
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            w1.send(stolen_frame(root, [(n,) for n in range(7)]))
            # Three records, every third node each: big and small
            # subtrees on every thief, the heuristic's order kept.
            leases = [w.recv(P.TASK) for w in thieves]
            assert sorted(P.decode_node(t["nodes"]) for t in leases) == [
                [(0,), (3,), (6,)], [(1,), (4,)], [(2,), (5,)],
            ]
            assert handle.load_stats()["outstanding"] == 4
            w1.send(result_frame(root, knowledge=1))
            for w, t in zip(thieves, leases):
                w.send(result_frame(t, knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 31
            assert res.metrics.steals == 7
        finally:
            w1.close()
            for w in thieves:
                w.close()

    def test_no_second_steal_while_one_is_pending(self, handle):
        w1 = FakeWorker(*handle.address, name="victim")
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # The victim hasn't answered: no duplicate request may
            # arrive no matter how often the pump runs.
            w1.assert_no_frame(P.STEAL, within=0.5)
            w1.send(stolen_frame(root, [(5,)]))
            t2 = w2.recv(P.TASK)
            w1.send(result_frame(root, knowledge=1))
            w2.send(result_frame(t2, knowledge=10))
            assert fut.result(timeout=10).value == 11
        finally:
            w1.close()
            w2.close()

    def test_dry_victim_not_asked_again_until_next_result(self, handle):
        w1 = FakeWorker(*handle.address, name="victim")
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # Empty STOLEN: nothing divisible on the stack right now.
            w1.send({"type": P.STOLEN, "job": root["job"], "nodes": []})
            # A dry victim must not be hammered with more requests...
            w1.assert_no_frame(P.STEAL, within=0.5)
            # ...until new work appears: a RESULT clears the dry flags.
            w1.send(stolen_frame(root, [(8,)]))  # late fruit, still valid
            t2 = w2.recv(P.TASK)
            w2.send(result_frame(t2, knowledge=100))
            w1.recv(P.STEAL)  # w2 went idle again -> fresh request
            w1.send(result_frame(root, knowledge=1))
            assert fut.result(timeout=10).value == 101
        finally:
            w1.close()
            w2.close()

    def test_refused_peer_is_never_victim_or_thief(self, handle):
        # A v2 peer cannot answer STEAL or run coordination-aware
        # leases; it is refused at HELLO, so for a stacksteal job it
        # does not exist: the root goes to the first real worker even
        # though the v2 peer knocked first, and the steal is mediated
        # between the two admitted peers.
        frames = refused_hello(handle.address, 2)
        assert [m["type"] for m in frames] == [P.ERROR]
        w_victim = FakeWorker(*handle.address, name="v3-victim")
        w_thief = FakeWorker(*handle.address, name="v3-thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w_victim.recv(P.TASK)
            w_victim.recv(P.STEAL)  # on behalf of the idle thief
            w_victim.send(stolen_frame(root, [(4,)]))
            t2 = w_thief.recv(P.TASK)
            assert P.decode_node(t2["nodes"]) == [(4,)]
            w_victim.send(result_frame(root, knowledge=1))
            w_thief.send(result_frame(t2, knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 11
            assert res.workers == 2
        finally:
            w_victim.close()
            w_thief.close()

    def test_stolen_racing_retire_drain(self, handle):
        """A STEAL answered after the victim was told to RETIRE.

        The offcuts are still a valid split of a lease the retiring
        worker holds, so they must be accepted and re-leased to the
        survivor — and the drained worker must get no further STEAL.
        """
        w1 = FakeWorker(*handle.address, name="w1")
        w2 = FakeWorker(*handle.address, name="w2")
        try:
            fut = handle.run_job_future(STEAL_OPT, timeout=15)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # The deployment decides to drain w1 while the steal request
            # is in flight.
            assert handle.retire_worker("w1") is True
            w1.recv(P.RETIRE)
            # The STOLEN answer crosses the RETIRE on the wire.
            w1.send(stolen_frame(root, [("s",)]))
            t2 = w2.recv(P.TASK)
            assert P.decode_node(t2["nodes"]) == [("s",)]
            # The retiring worker finishes its running task and is gone;
            # it must never be asked to split again.
            w1.send(result_frame(root, value=3, node=("r3",)))
            w1.assert_no_frame(P.STEAL, within=0.4)
            w2.send(result_frame(t2, value=7, node=("s7",)))
            res = fut.result(timeout=10)
            assert res.value == 7
            assert res.node == ("s7",)
            assert res.metrics.steals == 1
        finally:
            w1.close()
            w2.close()

    def test_fresh_lease_clears_a_dry_verdict(self, handle):
        """An empty-handed answer is about the stack that gave it.  A
        victim granted a new lease has fresh stack, so it is asked again
        without waiting for somebody's RESULT to clear the flag."""
        w1 = FakeWorker(*handle.address, name="victim", slots=2)
        w2 = FakeWorker(*handle.address, name="busy")
        w3 = None
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            w1.send({"type": P.STOLEN, "job": root["job"], "nodes": []})
            w1.assert_no_frame(P.STEAL, within=0.3)  # dry
            # Late fruit for the thief; then, with nobody idle, a
            # hand-over from the thief lands in the victim's free slot.
            w1.send(stolen_frame(root, [(1,)]))
            t2 = w2.recv(P.TASK)
            w2.send(stolen_frame(t2, [(2,)]))
            extra = w1.recv(P.TASK)
            # A newcomer starves.  The victim holds the most leases and
            # its verdict went with the grant: it is the one asked.
            w3 = FakeWorker(*handle.address, name="newcomer")
            w1.recv(P.STEAL)
            w2.assert_no_frame(P.STEAL, within=0.2)
            for worker, task in ((w1, root), (w1, extra), (w2, t2)):
                worker.send(result_frame(task, knowledge=1))
            assert fut.result(timeout=10).value == 3
        finally:
            w1.close()
            w2.close()
            if w3 is not None:
                w3.close()

    def test_stale_stolen_epoch_rejected(self, handle):
        w1 = FakeWorker(*handle.address, name="victim")
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(STEAL_ENUM, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # Wrong epoch: if accepted, outstanding would overcount and
            # the job below could never finish.
            bad = stolen_frame(root, [(9,)])
            bad["epoch"] = root["epoch"] + 5
            w1.send(bad)
            w2.assert_no_frame(P.TASK, within=0.4)
            w1.send(result_frame(root, knowledge=7))
            res = fut.result(timeout=10)
            assert res.value == 7
            assert res.metrics.steals == 0
        finally:
            w1.close()
            w2.close()


class TestBudgetSteals:
    """Budget jobs are mediated too: a lease is a root and its holder's
    whole pool, and the pool is shared on the same STEAL/STOLEN pair."""

    def test_idle_worker_is_served_from_the_holders_pool(self, handle):
        w1 = FakeWorker(*handle.address, name="holder")
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # A holder never answers empty: with nothing pooled yet the
            # request just waits, and is not repeated meanwhile.
            w1.assert_no_frame(P.STEAL, within=0.4)
            w1.send(dict(stolen_frame(root, [(1, 2), (3, 4)], depth=1), pool=5))
            t2 = w2.recv(P.TASK)
            assert t2["depth"] == 1
            assert P.decode_node(t2["nodes"]) == [(1, 2), (3, 4)]  # pool order kept
            assert handle.load_stats()["queued_tasks"] == 0 + 5
            # One RESULT answers for the root and every subtree its
            # holder ran from its own pool; it split 42 off its stacks,
            # the two that crossed among them.
            w1.send(result_frame(root, knowledge=1, spawns=42))
            w2.send(result_frame(t2, knowledge=10, spawns=7))
            res = fut.result(timeout=10)
            assert res.value == 11
            assert res.metrics.steals == 2  # what crossed
            assert res.metrics.spawns == 42 + 7  # each where it was split
            assert res.workers == 2
        finally:
            w1.close()
            w2.close()

    def test_unserved_request_dies_with_the_lease(self, handle):
        w1 = FakeWorker(*handle.address, name="holder", slots=2)
        w2 = FakeWorker(*handle.address, name="thief")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            w1.recv(P.STEAL)
            # The lease ends unserved (its pool never had anything): the
            # RESULT clears the pending request, and with the job over
            # nothing is asked of anyone again.
            w1.send(result_frame(root, knowledge=5))
            assert fut.result(timeout=10).value == 5
            w1.assert_no_frame(P.STEAL, within=0.3)
        finally:
            w1.close()
            w2.close()


# -- the worker's side, on a worker with no socket ---------------------------

WORKER_INSTANCE = "uts-geo-med"


JOB_FRAME = {
    "type": P.JOB, "job": 1,
    "factory": P.factory_path(library_spec_factory),
    "factory_args": [WORKER_INSTANCE],
    "stype_kind": "enumeration", "stype_kwargs": {},
    "chunked": True, "budget": 100, "share_poll": 32, "best": None,
}


def stub_worker(coordination, *, faults=None, budget=100, share_poll=32):
    """A real :class:`ClusterWorker` with the wire cut out: frames it
    would send are recorded in the returned list, frames it would
    receive are handed straight to its receiver (``_on_message``), in
    the order a socket would deliver them.  It holds one job and the
    lease of the whole tree, and leaves once that lease is answered."""
    worker = ClusterWorker("127.0.0.1", 1, name="stub", faults=faults)
    sent: list = []

    def record(msg):
        sent.append(msg)
        if msg["type"] == P.RESULT:
            worker._retire = True  # nothing more to do: BYE and return

    worker._send = record
    worker._on_message(dict(
        JOB_FRAME, coordination=coordination, budget=budget, share_poll=share_poll,
    ))
    root = worker._ctx.spec.root
    worker._on_message({
        "type": P.TASK, "job": 1,
        "leases": [[1, 0, [P.encode_node(root)], 0]],
    })
    return worker, sent


def subtree_nodes(worker, frame):
    """Nodes under every subtree a hand-over frame carries."""
    ctx = worker._ctx
    return sum(
        search_subtree(
            ctx.spec, ctx.stype, P.decode_node(node), frame["depth"], 0
        )[2].nodes
        for node in frame["nodes"]
    )


def whole_tree():
    return sequential_search(
        library_spec_factory(WORKER_INSTANCE), make_search_type("enumeration")
    ).metrics.nodes


class TestWorkerAnswersSteals:
    def test_steal_behind_a_queued_lease_is_not_declined(self):
        """TASK and STEAL leave the coordinator in one pump, so a STEAL
        can be waiting before the lease in front of it has started.
        Declining it ("idle, nothing on a live stack") marked the victim
        dry before it began, and nothing cleared that until a RESULT."""
        worker, sent = stub_worker("stacksteal")
        worker._on_message({"type": P.STEAL, "job": 1})
        worker.serve()
        stolen = [m for m in sent if m["type"] == P.STOLEN]
        assert len(stolen) == 1
        # Answered from the lease's first poll, with work, in its name.
        assert stolen[0]["nodes"]
        assert (stolen[0]["task"], stolen[0]["epoch"]) == (1, 0)
        assert [m["type"] for m in sent[-2:]] == [P.RESULT, P.BYE]
        assert sent[-2]["nodes"] + subtree_nodes(worker, stolen[0]) == whole_tree()

    def test_idle_worker_lets_a_dead_request_drop(self):
        # Nothing queued and nothing running: every lease this worker
        # was sent has had its RESULT, which cleared the request on the
        # coordinator.  No frame is owed.
        worker, sent = stub_worker("stacksteal")
        worker._local_q.get_nowait()
        worker._on_message({"type": P.STEAL, "job": 1})
        serving = threading.Thread(target=worker.serve, daemon=True)
        serving.start()
        deadline = time.monotonic() + 5.0
        while worker._steal_req is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker._steal_req is None  # dropped by the idle loop
        worker._on_message({"type": P.RETIRE})
        serving.join(timeout=5.0)
        assert not serving.is_alive()
        assert [m["type"] for m in sent] == [P.BYE]

    def test_budget_lease_answers_from_its_pool_once_it_has_one(self):
        worker, sent = stub_worker("budget")
        worker._on_message({"type": P.STEAL, "job": 1})
        worker.serve()
        assert [m["type"] for m in sent] == [P.STOLEN, P.RESULT, P.BYE]
        stolen, result = sent[0], sent[1]
        # The first trip's offcuts are the root's other children: the
        # shallowest level there is.  Every other one of them goes, the
        # rest and the deeper levels pooled by then stay home.
        assert stolen["depth"] == 1 and stolen["nodes"]
        assert stolen["pool"] >= len(stolen["nodes"])
        assert result["spawns"] > 0
        assert result["nodes"] + subtree_nodes(worker, stolen) == whole_tree()

    def test_budget_lease_left_alone_sends_one_result(self):
        started = []

        class Hooks:
            def on_task_start(self, n):
                started.append(n)

            def drop_outbound(self, frame_type):
                return False

        worker, sent = stub_worker("budget", faults=Hooks())
        worker.serve()
        assert [m["type"] for m in sent] == [P.RESULT, P.BYE]
        result = sent[0]
        assert result["nodes"] == whole_tree()
        # Every subtree started is announced to the chaos hooks, lease
        # root and pool pops alike, so ``kill_worker at_task N`` lands
        # inside a lease.
        assert started == list(range(1, result["spawns"] + 2))
        assert worker.tasks_run == result["spawns"] + 1


    def test_a_steal_that_trailed_the_last_job_is_not_answered_in_this_one(self):
        """The coordinator asks for work the moment a worker goes idle,
        which at the end of a job can be after the victim's last RESULT:
        the request then waits in the worker.  Answered out of the next
        job's lease it would be a hand-over nobody is waiting for."""
        worker, sent = stub_worker("stacksteal")
        worker._local_q.get_nowait()  # job 1 is over, its STEAL is late
        worker._on_message({"type": P.STEAL, "job": 1})
        job2 = dict(JOB_FRAME, job=2, coordination="stacksteal")
        worker._on_message(job2)
        worker._on_message({
            "type": P.TASK, "job": 2,
            "leases": [[1, 0, [P.encode_node(worker._ctx.spec.root)], 0]],
        })
        worker.serve()
        assert [m["type"] for m in sent] == [P.RESULT, P.BYE]
        assert sent[0]["nodes"] == whole_tree()


def run_lease(task, children=64):
    """Run lease ``task`` of a d_cutoff=1 job: task ``task - 1`` alone,
    child ``task - 1`` of the root."""
    return [task, 0, [[task - 1, [], children, task - 1, 1]], 0]


def ordered_stub(runs):
    """A socketless worker holding an Ordered job and ``runs`` run
    leases (ids 1, 2, ...) of one task each, all queued."""
    worker = ClusterWorker("127.0.0.1", 1, name="stub")
    sent: list = []
    worker._send = sent.append
    worker._on_message(dict(JOB_FRAME, coordination="ordered", d_cutoff=1))
    worker._on_message({
        "type": P.TASK, "job": 1, "leases": [run_lease(task) for task in range(1, runs + 1)],
    })
    return worker, sent


def depth_bounded_stub(runs, faults):
    """A socketless worker holding a Depth-Bounded job cut at depth 1
    and ``runs`` leases (ids 1, 2, ...) of its whole frontier, with the
    nodes above the frontier: it leaves once a lease is answered."""
    worker = ClusterWorker("127.0.0.1", 1, name="stub", faults=faults)
    sent: list = []

    def record(msg):
        sent.append(msg)
        if msg["type"] == P.RESULT:
            worker._retire = True  # nothing more to do: BYE and return

    worker._send = record
    worker._on_message(dict(JOB_FRAME, coordination="depthbounded", d_cutoff=1))
    walked = ordered_frontier(worker._ctx.spec, make_search_type("enumeration"), d_cutoff=1)
    whole = P.pack_run(walked.tasks.stretches(range(len(walked.tasks))))
    worker._on_message({
        "type": P.TASK, "job": 1, "leases": [[task, 0, whole, None] for task in range(1, runs + 1)],
    })
    return worker, sent, walked.metrics.nodes


def queued(worker):
    """The task ids still in the local queue."""
    return [task_id for _ctx, task_id, _epoch, _work in worker._local_q.queue]


class TestAtomicStealsAreAnsweredWithRelease:
    """An Ordered or Depth-Bounded lease is never split: the receiver
    answers a STEAL at once with a RELEASE of what is still queued."""

    def test_the_queued_run_goes_and_the_run_in_hand_stays(self):
        worker, sent = ordered_stub(runs=2)
        assert worker.next_work()[1][0] == [[0, (), 64, 0, 1]]  # run 1, in hand
        worker._on_message({"type": P.STEAL, "job": 1})
        assert sent == [{"type": P.RELEASE, "job": 1, "tasks": [[2, 0]]}]
        assert queued(worker) == [] and worker._steal_req is None

    def test_nothing_queued_is_answered_empty(self):
        worker, sent = ordered_stub(runs=1)
        worker.next_work()  # the one run, in hand
        worker._on_message({"type": P.STEAL, "job": 1})
        assert sent == [{"type": P.RELEASE, "job": 1, "tasks": []}]

    def test_a_depth_bounded_stack_is_never_split(self):
        stealing = []

        class Hooks:
            """Delivers a STEAL as the lease in hand starts, as the
            receiver thread would mid-lease."""

            def on_task_start(self, n):
                if not stealing:
                    stealing.append(n)
                    worker._on_message({"type": P.STEAL, "job": 1})

            def drop_outbound(self, frame_type):
                return False

        worker, sent, prefix = depth_bounded_stub(runs=2, faults=Hooks())
        worker.serve()
        assert [m["type"] for m in sent] == [P.RELEASE, P.RESULT, P.BYE]
        assert sent[0]["tasks"] == [[2, 0]]
        nodes = whole_tree() - prefix
        assert (sent[1]["task"], sent[1]["nodes"], sent[1]["spawns"]) == (1, nodes, 0)

    def test_a_retiring_depth_bounded_worker_hands_no_root_of_its_run_over(self):
        class Hooks:
            """Delivers a RETIRE as the run's second subtree starts, with
            the rest of its roots unstarted."""

            def on_task_start(self, n):
                if n == 2:
                    worker._on_message({"type": P.RETIRE})

            def on_retire(self):
                pass

            def drop_outbound(self, frame_type):
                return False

        worker, sent, prefix = depth_bounded_stub(runs=1, faults=Hooks())
        worker.serve()
        # The run in hand is finished whole and reported once: no OFFCUT.
        assert [m["type"] for m in sent] == [P.RESULT, P.BYE]
        assert sent[0]["nodes"] == whole_tree() - prefix

    def test_a_lease_is_run_or_released_exactly_once(self):
        """The receiver filters the local queue while the main thread
        dequeues from it: every lease is taken by one of them."""
        worker, sent = ordered_stub(runs=0)
        leases = 3000
        taken: list = []

        def main_thread():
            while worker.next_work() is not None:
                taken.append(worker._lease[0])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        serving = threading.Thread(target=main_thread, daemon=True)
        serving.start()
        try:
            for task in range(1, leases + 1):
                worker._on_message({
                    "type": P.TASK, "job": 1, "leases": [run_lease(task, leases)],
                })
                if task % 3 == 0:
                    worker._on_message({"type": P.STEAL, "job": 1})
            worker._on_message({"type": P.RETIRE})
            serving.join(timeout=10.0)
        finally:
            sys.setswitchinterval(switch)
        assert not serving.is_alive()
        released = [task for m in sent if m["type"] == P.RELEASE for task, _epoch in m["tasks"]]
        assert sorted(taken + released) == list(range(1, leases + 1))
        assert released and taken  # both sides won some


SPECS_BUILT = []


def counting_factory(instance):
    SPECS_BUILT.append(instance)
    return library_spec_factory(instance)


class TestWorkerKeepsItsSpec:
    def test_the_factory_runs_again_only_for_another_factory_or_arguments(self):
        worker = ClusterWorker("127.0.0.1", 1, name="stub")

        def job(number, instance):
            worker._on_message(dict(
                JOB_FRAME, job=number, coordination="budget",
                factory=P.factory_path(counting_factory), factory_args=[instance],
            ))
            return worker._ctx

        del SPECS_BUILT[:]
        first = job(1, WORKER_INSTANCE)
        again = job(2, WORKER_INSTANCE)
        assert again is not first and again.id == 2  # a new job...
        assert again.spec is first.spec  # ...on the spec it already had
        other = job(3, "brock90-1")
        assert other.spec is not first.spec
        assert job(4, WORKER_INSTANCE).spec is first.spec  # kept, one of the last
        assert SPECS_BUILT == [WORKER_INSTANCE, "brock90-1"]


class TestWorkerThatCannotBuildTheJob:
    def test_an_unresolvable_factory_is_answered_with_one_error(self):
        """The coordinator would otherwise keep leasing to a worker that
        drops every lease while it heart-beats, and the job would wait
        for its timeout (forever, by default)."""
        worker = ClusterWorker("127.0.0.1", 1, name="stub")
        sent: list = []
        worker._send = sent.append
        worker._on_message(dict(
            JOB_FRAME, job=7, coordination="budget", factory="no.such.module:spec",
        ))
        worker._on_message({
            "type": P.TASK, "job": 7, "leases": [[1, 0, [P.encode_node(0)], 0]],
        })
        (error,) = sent
        assert error["type"] == P.ERROR and error["job"] == 7
        assert "no.such.module:spec" in error["reason"]
        assert worker._local_q.empty()  # its leases are dropped, never run


def scripted_coordinator():
    """A listening socket standing in for the coordinator, and its
    ``(host, port)``."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    return server, server.getsockname()


def welcome(server):
    """Accept one worker and answer its HELLO; returns the connection."""
    conn, _ = server.accept()
    conn.settimeout(5.0)
    assert P.read_frame(conn)["type"] == P.HELLO
    conn.sendall(P.frame_bytes({
        "type": P.WELCOME, "worker": 1, "heartbeat": 0.5, "codec": "json",
    }))
    return conn


class TestWorkerDrain:
    def test_retire_then_eof_mid_lease_never_reconnects(self):
        """RETIRE is also the coordinator closing.  A worker that sees it
        and then loses the connection before it could say BYE must not
        count as crashed, reconnect, and sit out ``connect_timeout``
        waiting for a WELCOME from a listener that was going away."""
        server, address = scripted_coordinator()
        stop = threading.Event()
        worker = ClusterWorker(
            *address, name="drainer", stop_event=stop, reconnect_initial=0.05,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            conn = welcome(server)
            # A lease long enough to still be running below: the whole
            # tree, ~3 s, and nobody steals from it.
            factory_args = ["uts", [4, 12, 1330772960]]
            conn.sendall(P.frame_bytes({
                "type": P.JOB, "job": 1,
                "factory": "repro.verify.generators:instance_spec",
                "factory_args": factory_args,
                "stype_kind": "enumeration", "stype_kwargs": {},
                "coordination": "stacksteal", "chunked": True,
                "share_poll": 64, "best": None,
            }))
            root = instance_spec(*factory_args).root
            conn.sendall(P.frame_bytes({
                "type": P.TASK, "job": 1,
                "leases": [[1, 0, [P.encode_node(root)], 0]],
            }))
            time.sleep(0.1)  # mid-lease
            conn.sendall(P.frame_bytes({"type": P.RETIRE}))
            conn.close()
            server.close()
            thread.join(timeout=2.0)
            assert not thread.is_alive()
            assert worker.sessions == 1
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5.0)

    def test_retire_then_close_when_idle_ends_the_run(self):
        """WELCOME, RETIRE, close: the worker's ``run()`` returns after
        that one session.  The receiver may see the EOF before the lease
        loop sees the RETIRE; the worker leaves either way."""
        server, address = scripted_coordinator()
        stop = threading.Event()
        worker = ClusterWorker(
            *address, name="retiree", stop_event=stop, reconnect_initial=0.05,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            conn = welcome(server)
            conn.sendall(P.frame_bytes({"type": P.RETIRE}))
            conn.close()
            thread.join(timeout=1.5)
            assert not thread.is_alive()
            assert worker.sessions == 1
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5.0)


def run_leases(raw):
    """The run leases of one raw ordered TASK frame, as dicts (``seqs``
    the sequence numbers its stretches name)."""
    return [
        {"job": raw["job"], "task": tid, "epoch": epoch, "stretches": stretches,
         "seqs": [seq + k for seq, _path, _children, _index, count in stretches
                  for k in range(count)],
         "bound": bound}
        for tid, epoch, stretches, bound in raw["leases"]
    ]


def blocks_frame(lease, blocks, *, more=False):
    """A RESULT frame reporting ``blocks`` for a run lease."""
    msg = {
        "type": P.RESULT,
        "job": lease["job"],
        "task": lease["task"],
        "epoch": lease["epoch"],
        "blocks": blocks,
    }
    if more:
        msg["more"] = True
    return msg


def block(seqs, bound, **fields):
    """A wire block: every task of ``seqs`` ran 5 nodes from ``bound``."""
    n = len(seqs)
    out = {"seqs": P.pack_seqs(seqs), "bound": bound, "nodes": [5] * n,
           "prunes": [0] * n, "backtracks": [4] * n, "max_depth": [2] * n}
    out.update(fields)
    return out


class TestOrderedLeases:
    def test_leases_carry_bounds_and_reissue_on_stale_bound(self, handle):
        """The replicable-BnB speculation loop at the wire level.

        An ordered lease is a run of tasks named by path — ``[id,
        epoch, stretches, bound]`` — cut under the finalised-prefix
        best; no lease carries a node.  A block searched from a bound that is stale by
        finalisation time is discarded and its tasks leased again, first
        in line, under the bound the ledger now requires.
        """
        w = FakeWorker(*handle.address, slots=1)
        try:
            fut = handle.run_job_future(ORDERED_OPT, timeout=20)
            job = w.recv(P.JOB)
            assert job["coordination"] == "ordered"
            assert job["d_cutoff"] == 1  # a parent's path is d_cutoff - 1 long
            base = job["best"]  # the search type's identity bound

            raw = w.recv_raw(P.TASK)
            # One stretch: task 0, child 0 of the root, which has
            # FRONTIER children.
            assert raw["leases"][0][2] == [[0, [], FRONTIER, 0, 1]]
            (first,) = run_leases(raw)
            assert (first["seqs"], first["bound"]) == ([0], base)  # sizing starts at 1
            frontier = FRONTIER
            # An improvement to 1 prunes no other task at its root (the
            # least bound that does is 2), so every one is leased.
            w.send(blocks_frame(first, [block(
                [0], base, value=1, node=P.encode_node(("w1",)),
            )]))
            assert w.recv(P.INCUMBENT)["value"] == 1  # finalised, broadcast

            answered_stale = set()
            while not fut.done():
                try:
                    raw = w.recv_raw(P.TASK, timeout=2.0)
                except (AssertionError, TimeoutError):
                    break  # job completed while we waited
                for lease in run_leases(raw):
                    # Every lease after the improvement is cut under it,
                    # each task child ``seq`` of the root.
                    assert lease["bound"] == 1
                    assert all(
                        (path, children, index) == ([], frontier, seq)
                        for seq, path, children, index, _count in lease["stretches"]
                    )
                    fresh = [s for s in lease["seqs"] if s not in answered_stale]
                    again = [s for s in lease["seqs"] if s in answered_stale]
                    # Deliberately answer from the stale identity bound
                    # first, so the ledger must reject the block and
                    # lease its tasks again.
                    answered_stale.update(fresh)
                    w.send(blocks_frame(lease, [
                        block(seqs, bound)
                        for seqs, bound in ((fresh, base), (again, 1)) if seqs
                    ]))
            res = fut.result(timeout=10)
            assert res.value == 1
            assert res.node == ("w1",)
            assert answered_stale == set(range(1, frontier))
            assert res.metrics.reassigned == len(answered_stale)
            assert res.metrics.broadcasts == 1  # best=1, once
        finally:
            w.close()

    def test_early_flush_keeps_the_lease_and_bad_records_are_dropped(self, handle):
        w = FakeWorker(*handle.address, slots=1)
        try:
            fut = handle.run_job_future(ORDERED_OPT, timeout=20)
            base = w.recv(P.JOB)["best"]
            (lease,) = run_leases(w.recv_raw(P.TASK))
            good = block([0], base)
            # An early flush: seq 0's block arrives, the run goes on.
            # The lease stays live, so with slots=1 nothing new is cut.
            w.send(blocks_frame(lease, [
                block([1], base, value=99, node=P.encode_node(("bogus",))),  # not in this run
                dict(good, prunes=[0, 0]),               # a column too long
                dict(good, nodes=["5"]),                 # not an int
                dict(good, bound=None),                  # no bound at all
                dict(good, seqs=[0]),                    # half a stretch
                {k: v for k, v in good.items() if k != "max_depth"},
                "garbage",
                good,
            ], more=True))
            with pytest.raises((AssertionError, TimeoutError)):
                w.recv_raw(P.TASK, timeout=0.5)
            stats = handle.load_stats()
            # Seq 0 finalised off the flush; everything else still
            # waits for a lease, behind the one that is held.
            assert stats["outstanding"] == stats["queued_tasks"] == FRONTIER - 1
            assert stats["leased_tasks"] == 1
            w.send(blocks_frame(lease, []))  # the run's last message
            while not fut.done():
                try:
                    raw = w.recv_raw(P.TASK, timeout=2.0)
                except (AssertionError, TimeoutError):
                    break
                for nxt in run_leases(raw):
                    w.send(blocks_frame(nxt, [block(nxt["seqs"], nxt["bound"])]))
            res = fut.result(timeout=10)
            assert res.metrics.reassigned == 0
            assert res.value == base  # the bogus improvement never landed
        finally:
            w.close()

    def test_ordered_enum_survives_worker_death(self, handle):
        """Ordered enumeration tasks are pure functions of (root,
        bound), so a worker death re-leases the seqs it owed instead of
        failing the job — the one enumeration flow where that is sound."""
        enum_payload = dict(ORDERED_OPT, stype_kind="enumeration",
                            factory_args=["uts", [2, 3, 7]])
        w1 = FakeWorker(*handle.address, name="doomed")
        w2 = FakeWorker(*handle.address, name="survivor", slots=4)
        try:
            fut = handle.run_job_future(enum_payload, timeout=20)
            (doomed,) = run_leases(w1.recv_raw(P.TASK))
            assert doomed["bound"] is None  # enumeration has no bound
            w1.stop_heartbeat()  # dies holding an ordered lease
            seen = {}
            while not fut.done():
                try:
                    raw = w2.recv_raw(P.TASK, timeout=2.0)
                except (AssertionError, TimeoutError):
                    break  # job completed while we waited
                for lease in run_leases(raw):
                    for seq in lease["seqs"]:
                        seen[seq] = seen.get(seq, 0) + 1
                    w2.send(blocks_frame(lease, [block(
                        lease["seqs"], None, knowledge=[3] * len(lease["seqs"]),
                    )]))
            res = fut.result(timeout=10)
            # The doomed worker's tasks were re-run by the survivor, once.
            assert all(seen[seq] == 1 for seq in doomed["seqs"])
            assert set(seen.values()) == {1}
            assert res.metrics.reassigned >= len(doomed["seqs"])
            # Every task's accumulator counted exactly once, on top of
            # the coordinator's own phase-1 prefix contribution.
            assert res.value >= 3 * len(seen)
            assert (res.value - 3 * len(seen)) < 3  # no double count
        finally:
            w1.close()
            w2.close()

    def test_a_queued_run_moves_to_the_idle_worker(self, handle):
        """A holds two runs and B reports its last one: with nothing
        left to lease, A is asked for the run queued behind the one it
        runs.  It reaches B under a new lease id, and A's late report on
        it is refused."""
        a = FakeWorker(*handle.address, name="a", slots=2)
        b = FakeWorker(*handle.address, name="b", slots=2)
        try:
            fut = handle.run_job_future(ORDERED_OPT, timeout=20)
            running, behind = run_leases(a.recv_raw(P.TASK))
            ids = {running["task"], behind["task"]}
            while True:
                try:
                    raw = b.recv_raw(P.TASK, timeout=0.5)
                except (AssertionError, TimeoutError):
                    break  # B holds nothing, and nothing is left to lease
                for lease in run_leases(raw):
                    ids.add(lease["task"])
                    b.send(blocks_frame(lease, [block(lease["seqs"], lease["bound"])]))
            a.recv(P.STEAL)
            a.send({"type": P.RELEASE, "job": behind["job"],
                    "tasks": [[behind["task"], behind["epoch"]]]})
            (moved,) = run_leases(b.recv_raw(P.TASK))
            assert moved["seqs"] == behind["seqs"] and moved["task"] not in ids
            # A's report on the run it gave back would land a bogus best.
            a.send(blocks_frame(behind, [block(
                behind["seqs"], behind["bound"], value=99, node=P.encode_node(("bogus",)),
            )]))
            b.send(blocks_frame(moved, [block(moved["seqs"], moved["bound"])]))
            a.send(blocks_frame(running, [block(running["seqs"], running["bound"])]))
            res = fut.result(timeout=10)
            assert res.value == running["bound"]
            assert res.metrics.reassigned == len(behind["seqs"])
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("frame_type", [P.OFFCUT, P.STOLEN])
    def test_a_hand_over_naming_a_run_is_a_protocol_violation(self, handle, frame_type):
        """A run is never split, so an OFFCUT or STOLEN naming one is
        answered as a protocol violation: its sender is dropped and the
        run cut again for another worker.  Queued as records, its nodes
        would never be leased in a run job, and would stop every later
        STEAL of it."""
        a = FakeWorker(*handle.address, name="a", slots=1)
        b = None
        try:
            fut = handle.run_job_future(ORDERED_OPT, timeout=20)
            (lease,) = run_leases(a.recv_raw(P.TASK))
            a.send({
                "type": frame_type, "job": lease["job"], "task": lease["task"],
                "epoch": lease["epoch"], "depth": 2, "nodes": [P.encode_node((1,))],
            })
            assert a.recv_raw(P.ERROR)["reason"] == "protocol violation"
            b = FakeWorker(*handle.address, name="b", slots=1)
            while not fut.done():
                try:
                    raw = b.recv_raw(P.TASK, timeout=2.0)
                except (AssertionError, TimeoutError):
                    break
                for nxt in run_leases(raw):
                    b.send(blocks_frame(nxt, [block(nxt["seqs"], nxt["bound"])]))
            res = fut.result(timeout=10)
            assert res.metrics.reassigned == len(lease["seqs"])
        finally:
            a.close()
            if b is not None:
                b.close()

    @pytest.mark.parametrize("d_cutoff", [0, -1])
    def test_d_cutoff_zero_is_finished_by_the_coordinator_alone(self, handle, d_cutoff):
        """Phase 1 is the whole search: no JOB is posted, and no lease."""
        w = FakeWorker(*handle.address, slots=1)
        try:
            payload = dict(ORDERED_OPT, d_cutoff=d_cutoff)
            res = handle.run_job(payload, timeout=20)
            spec = instance_spec("maxclique", [6, 50, 1])
            want = ordered_reference_search(
                spec, make_search_type("optimisation"), d_cutoff=d_cutoff
            )
            assert (res.value, res.metrics.nodes) == (want.value, want.metrics.nodes)
            assert res.metrics.spawns == 0
            assert _heard_until(w, P.JOB_DONE) == [P.JOB_DONE]  # told nothing else
        finally:
            w.close()

    def test_goal_in_phase_one_releases_the_workers_with_no_lease(self, handle):
        w = FakeWorker(*handle.address, slots=1)
        try:
            # Any single vertex is a 1-clique: met at depth 1, above the cutoff.
            payload = dict(ORDERED_OPT, stype_kind="decision",
                           stype_kwargs={"target": 1}, d_cutoff=2)
            res = handle.run_job(payload, timeout=20)
            assert res.found and res.metrics.spawns == 0
            assert _heard_until(w, P.JOB_DONE) == [P.JOB, P.JOB_DONE]  # never leased
        finally:
            w.close()

    def test_a_worker_that_cannot_run_a_lease_fails_the_job(self, handle):
        """A worker whose tree lacks what a lease names says so, and the
        job fails with its reason."""
        w = FakeWorker(*handle.address, slots=1)
        try:
            fut = handle.run_job_future(ORDERED_OPT, timeout=20)
            (lease,) = run_leases(w.recv_raw(P.TASK))
            w.send({
                "type": P.ERROR, "job": lease["job"],
                "reason": f"ValueError: the parent at path [] has 5 children here; "
                          f"its lease says {FRONTIER} and names child 0",
            })
            failed = rf"has 5 children here; its lease says {FRONTIER}"
            with pytest.raises(ClusterJobFailed, match=failed):
                fut.result(timeout=10)
        finally:
            w.close()

    def test_a_real_worker_checks_the_lease_against_its_own_tree(self):
        """The worker half of the same check, on a scripted coordinator:
        a lease naming a parent with another child count, or a child its
        parent lacks, is answered with ERROR and never run."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        stop = threading.Event()
        worker = ClusterWorker(
            *server.getsockname(), name="walker", stop_event=stop, give_up_after=5.0,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            conn, _ = server.accept()
            conn.settimeout(5.0)
            assert P.read_frame(conn)["type"] == P.HELLO
            conn.sendall(P.frame_bytes({
                "type": P.WELCOME, "worker": 1, "heartbeat": 5.0, "codec": "json",
            }))
            conn.sendall(P.frame_bytes(dict(ORDERED_OPT, type=P.JOB, job=1, best=0)))
            # The right tree: a block of columns comes back, no node in it.
            conn.sendall(P.frame_bytes({
                "type": P.TASK, "job": 1, "leases": [[1, 0, [[0, [], FRONTIER, 0, 2]], 0]],
            }))
            result = _next_frame(conn, P.RESULT)
            (first, *_rest) = result["blocks"]
            assert first["seqs"][0] == 0 and first["bound"] == 0
            assert len(first["nodes"]) == len(first["prunes"]) == first["seqs"][1]
            # Another child count: ERROR naming both, and no RESULT.
            conn.sendall(P.frame_bytes({
                "type": P.TASK, "job": 1, "leases": [[2, 0, [[2, [], FRONTIER + 1, 2, 1]], 0]],
            }))
            error = _next_frame(conn, P.ERROR)
            assert error["job"] == 1
            said = f"has {FRONTIER} children here; its lease says {FRONTIER + 1}"
            assert said in error["reason"]
            # A child the root lacks, in a job cut one level deeper.
            conn.sendall(P.frame_bytes(dict(ORDERED_OPT, type=P.JOB, job=2, best=0, d_cutoff=2)))
            conn.sendall(P.frame_bytes({
                "type": P.TASK, "job": 2, "leases": [[1, 0, [[0, [FRONTIER], 1, 0, 1]], 0]],
            }))
            error = _next_frame(conn, P.ERROR)
            assert error["job"] == 2
            assert f"names child {FRONTIER} of a node with {FRONTIER} here" in error["reason"]
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def _heard_until(fake, last):
    """The types of the frames a FakeWorker is sent, up to ``last``."""
    heard = []
    fake.sock.settimeout(5.0)
    while not heard or heard[-1] != last:
        heard.append(P.read_frame(fake.sock)["type"])
    return heard


def _next_frame(conn, want):
    while True:
        msg = P.read_frame(conn)
        assert msg is not None, f"EOF while waiting for {want}"
        if msg["type"] == want:
            return msg
