"""Coordinator protocol-level tests, driven by scripted fake workers.

A :class:`FakeWorker` speaks the raw wire protocol over a real TCP
connection, so every lease/epoch/rebroadcast decision the coordinator
makes is observable deterministically — no real search involved.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import protocol as P
from repro.cluster.coordinator import (
    ClusterError,
    ClusterHandle,
    ClusterJobFailed,
    ClusterJobTimeout,
)
from repro.cluster.faults import CoordinatorFaults

ENUM_PAYLOAD = {
    "factory": "repro.instances.library:library_spec_factory",
    "factory_args": ["uts-geo-med"],
    "stype_kind": "enumeration",
    "stype_kwargs": {},
    "budget": 1000,
    "share_poll": 64,
}

OPT_PAYLOAD = {
    "factory": "repro.instances.library:library_spec_factory",
    "factory_args": ["brock90-1"],
    "stype_kind": "optimisation",
    "stype_kwargs": {},
    "budget": 1000,
    "share_poll": 64,
}


# The fields each frame type is fuzzed in, and what they may hold:
# anything a codec carries, node tags with payloads that do not decode.
FUZZED_FIELDS = {
    P.RESULT: ("nodes", "prunes", "backtracks", "max_depth", "spawns", "knowledge", "value",
               "node", "goal"),
    P.OFFCUT: ("nodes", "depth"),
    P.STOLEN: ("nodes", "depth"),
    P.INCUMBENT: ("value", "node"),
}
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(
        st.sampled_from(["__tuple__", "__set__", "__pickle__", "k"]),
        st.one_of(st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2)),
        max_size=2,
    ),
)


class FakeWorker:
    """A hand-driven protocol peer: HELLOs, heartbeats, scripted frames.

    By default it offers no ``codecs`` in HELLO, so the coordinator
    negotiates JSON for it; pass ``codecs=["binary", "json"]`` to get
    binary frames back (reads auto-detect either way).  The
    coordinator sends batched TASK frames — ``recv`` decomposes each
    ``leases`` batch into one pseudo-frame per lease (``nodes`` are its
    roots) so scripted tests address one lease at a time; ``recv_raw``
    returns frames as they actually arrived.
    """

    def __init__(self, host, port, name="fake", slots=1, codecs=None):
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.settimeout(5.0)
        self._lock = threading.Lock()
        self._beating = threading.Event()
        self._beating.set()
        self._closed = threading.Event()
        self._pending = deque()
        self._send_codec = None
        hello = {"type": P.HELLO, "version": P.PROTOCOL_VERSION,
                 "name": name, "slots": slots}
        if codecs is not None:
            hello["codecs"] = codecs
        self.send(hello)
        welcome = P.read_frame(self.sock)
        assert welcome["type"] == P.WELCOME
        self.id = welcome["worker"]
        self.codec = welcome.get("codec")
        if self.codec is not None:
            self._send_codec = P.get_codec(self.codec)
        self._hb = threading.Thread(target=self._beat, daemon=True)
        self._hb.start()

    def _beat(self):
        while not self._closed.wait(0.1):
            if not self._beating.is_set():
                continue
            try:
                self.send({"type": P.HEARTBEAT})
            except OSError:
                return

    def send(self, msg):
        with self._lock:
            self.sock.sendall(P.frame_bytes(msg, self._send_codec))

    @staticmethod
    def _decompose(msg):
        """A batched TASK frame becomes one pseudo-frame per lease.

        (Ordered jobs lease *runs*, a different entry shape; their
        scripted tests read frames with ``recv_raw``.)
        """
        if msg["type"] == P.TASK and "leases" in msg:
            return [
                {"type": P.TASK, "job": msg["job"], "task": tid,
                 "epoch": epoch, "nodes": nodes, "depth": depth}
                for tid, epoch, nodes, depth in msg["leases"]
            ]
        return [msg]

    def recv_raw(self, want_type, timeout=5.0):
        """Next frame of ``want_type`` exactly as it arrived (batched
        TASK frames are NOT decomposed; other types are skipped)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(f"no {want_type} frame within {timeout}s")
            self.sock.settimeout(remaining)
            msg = P.read_frame(self.sock)
            if msg is None:
                raise AssertionError(f"EOF while waiting for {want_type}")
            if msg["type"] == want_type:
                return msg

    def recv(self, want_type, timeout=5.0):
        """Next frame of ``want_type`` (other types are skipped)."""
        deadline = time.monotonic() + timeout
        while True:
            while self._pending:
                msg = self._pending.popleft()
                if msg["type"] == want_type:
                    return msg
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(f"no {want_type} frame within {timeout}s")
            self.sock.settimeout(remaining)
            msg = P.read_frame(self.sock)
            if msg is None:
                raise AssertionError(f"EOF while waiting for {want_type}")
            self._pending.extend(self._decompose(msg))

    def assert_no_frame(self, want_type, within=0.4):
        """Fail if a ``want_type`` frame arrives within the window."""
        while self._pending:
            msg = self._pending.popleft()
            if msg["type"] == want_type:
                raise AssertionError(f"unexpected {want_type}: {msg}")
        deadline = time.monotonic() + within
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self.sock.settimeout(remaining)
            try:
                msg = P.read_frame(self.sock)
            except (TimeoutError, socket.timeout):
                return
            if msg is None:
                return
            for piece in self._decompose(msg):
                if piece["type"] == want_type:
                    raise AssertionError(f"unexpected {want_type}: {piece}")

    def stop_heartbeat(self):
        self._beating.clear()

    def close(self):
        self._closed.set()
        try:
            self.sock.close()
        except OSError:
            pass


def refused_hello(address, version, **fields):
    """Every frame a HELLO with ``version`` (None: no version field) and
    ``fields`` is answered with before the coordinator closes the
    connection."""
    hello = {"type": P.HELLO, "name": "down-level", "slots": 1, **fields}
    if version is not None:
        hello["version"] = version
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(P.frame_bytes(hello))
        frames = []
        while (msg := P.read_frame(sock)) is not None:
            frames.append(msg)
        return frames


@pytest.fixture
def handle():
    h = ClusterHandle(heartbeat_interval=0.1, heartbeat_timeout=0.6)
    h.start()
    yield h
    h.shutdown(drain_workers=False)


def result_frame(task_msg, *, knowledge=None, value=None, node=None, **extra):
    """A minimal RESULT frame answering a TASK lease."""
    msg = {
        "type": P.RESULT,
        "job": task_msg["job"],
        "task": task_msg["task"],
        "epoch": task_msg["epoch"],
        "nodes": 5,
        "prunes": 0,
        "backtracks": 4,
        "max_depth": 2,
        "goal": False,
    }
    if knowledge is not None:
        msg["knowledge"] = knowledge
    if value is not None:
        msg["value"] = value
        msg["node"] = P.encode_node(node)
    msg.update(extra)
    return msg


class TestLeasing:
    def test_job_and_root_task_reach_worker(self, handle):
        w = FakeWorker(*handle.address)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            job = w.recv(P.JOB)
            assert job["factory"] == ENUM_PAYLOAD["factory"]
            task = w.recv(P.TASK)
            assert task["epoch"] == 0
            assert task["depth"] == 0
            assert len(task["nodes"]) == 1  # the whole tree: one root
            w.send(result_frame(task, knowledge=17))
            res = fut.result(timeout=10)
            assert res.value == 17
            assert res.metrics.nodes == 5
            assert res.workers == 1
        finally:
            w.close()

    def test_late_joiner_receives_active_job(self, handle):
        w1 = FakeWorker(*handle.address, name="first")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            task = w1.recv(P.TASK)
            # A worker joining mid-job is sent the JOB immediately.
            w2 = FakeWorker(*handle.address, name="late")
            try:
                assert w2.recv(P.JOB)["job"] == task["job"]
            finally:
                w2.close()
            w1.send(result_frame(task, knowledge=1))
            fut.result(timeout=10)
        finally:
            w1.close()

    def test_the_last_spec_is_kept_for_the_next_job(self, handle, monkeypatch):
        """The coordinator builds a job's spec for its root and identity
        knowledge; a later job naming the same factory and arguments as
        one of the last gets the same one, any other job a fresh one."""
        built = []
        resolve = P.resolve_factory

        def counting(path):
            factory = resolve(path)
            return lambda *args: built.append(args) or factory(*args)

        monkeypatch.setattr(P, "resolve_factory", counting)
        w = FakeWorker(*handle.address)
        try:
            for payload in (ENUM_PAYLOAD, dict(ENUM_PAYLOAD), OPT_PAYLOAD, ENUM_PAYLOAD):
                fut = handle.run_job_future(payload, timeout=10)
                w.send(result_frame(w.recv(P.TASK), knowledge=1, value=1, node=(1,)))
                fut.result(timeout=10)
        finally:
            w.close()
        assert built == [("uts-geo-med",), ("brock90-1",)]

    def test_offcut_fans_out_to_other_workers(self, handle):
        w1 = FakeWorker(*handle.address, name="w1")
        w2 = FakeWorker(*handle.address, name="w2")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            task = w1.recv(P.TASK)
            w1.send({
                "type": P.OFFCUT,
                "job": task["job"],
                "task": task["task"],
                "epoch": task["epoch"],
                "depth": 3,
                "nodes": [P.encode_node((1, 2)), P.encode_node((3, 4))],
            })
            # The hand-over is one lease for the one idle worker (w1
            # still holds its root lease; slots=1), in the order given.
            t2 = w2.recv(P.TASK)
            assert t2["depth"] == 3
            assert P.decode_node(t2["nodes"]) == [(1, 2), (3, 4)]
            # Subtrees are counted where they were split off a stack.
            w1.send(result_frame(task, knowledge=1, spawns=2))
            w1.assert_no_frame(P.TASK, within=0.2)  # nothing was left queued
            w2.send(result_frame(t2, knowledge=100))
            res = fut.result(timeout=10)
            assert res.value == 101  # both accumulators combined
            assert res.metrics.spawns == 2
            assert res.workers == 2
        finally:
            w1.close()
            w2.close()


class TestEpochs:
    def test_stale_frames_are_dropped(self, handle):
        w = FakeWorker(*handle.address)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            task = w.recv(P.TASK)
            # Stale OFFCUT: wrong epoch.  If accepted it would bump the
            # outstanding counter and the job below could never finish.
            w.send({
                "type": P.OFFCUT,
                "job": task["job"],
                "task": task["task"],
                "epoch": task["epoch"] + 7,
                "depth": 1,
                "nodes": [P.encode_node((9,))],
            })
            # Stale RESULT: wrong epoch.  If accepted the job would
            # complete with the wrong accumulator.
            w.send(result_frame(task, knowledge=999, epoch=task["epoch"] + 7))
            assert not fut.done()
            # The correctly-epoched RESULT completes the job; its being
            # the completion proves both stale frames were dropped.
            w.send(result_frame(task, knowledge=5))
            res = fut.result(timeout=10)
            assert res.value == 5
        finally:
            w.close()

    def test_dead_worker_task_reassigned_with_bumped_epoch(self, handle):
        # Optimisation payload: re-running a dead worker's subtree is
        # idempotent under max-merge (enumeration instead fails loudly,
        # tested below).
        w1 = FakeWorker(*handle.address, name="doomed")
        w2 = FakeWorker(*handle.address, name="survivor")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=15)
            task1 = w1.recv(P.TASK)
            assert task1["epoch"] == 0
            w1.stop_heartbeat()  # silence -> watchdog declares w1 dead
            task2 = w2.recv(P.TASK, timeout=5.0)
            assert task2["task"] == task1["task"]
            assert task2["epoch"] == 1  # re-lease under a fresh epoch
            w2.send(result_frame(task2, value=9, node=("n9",)))
            res = fut.result(timeout=10)
            assert res.value == 9
            assert res.node == ("n9",)
            assert res.metrics.reassigned == 1
            assert res.workers == 1  # only the survivor contributed
        finally:
            w1.close()
            w2.close()

    def test_a_link_that_lost_a_frame_to_a_partition_stays_severed(self):
        """A partition window of one frame, then the link would heal.
        TCP never loses a frame and delivers the next, so the worker's
        later frames (its RESULT too) do not count either: though it
        keeps beating, the watchdog re-leases its work as for a cut
        cable, and the lost frame cannot strand the job."""
        h = ClusterHandle(
            heartbeat_interval=0.1, heartbeat_timeout=0.6,
            faults=CoordinatorFaults([
                {"kind": "partition", "worker": "cut", "after_frames": 0, "count": 1},
            ]),
        )
        h.start()
        w1 = FakeWorker(*h.address, name="cut")
        w2 = FakeWorker(*h.address, name="survivor")
        try:
            fut = h.run_job_future(OPT_PAYLOAD, timeout=15)
            task1 = w1.recv(P.TASK)
            w1.send(result_frame(task1, value=3, node=("n3",)))
            task2 = w2.recv(P.TASK, timeout=5.0)
            assert (task2["task"], task2["epoch"]) == (task1["task"], 1)
            w2.send(result_frame(task2, value=9, node=("n9",)))
            assert fut.result(timeout=10).value == 9
        finally:
            w1.close()
            w2.close()
            h.shutdown(drain_workers=False)

    @pytest.mark.parametrize("payload", [OPT_PAYLOAD, ENUM_PAYLOAD], ids=["opt", "enum"])
    def test_dead_holder_of_a_lease_of_siblings(self, handle, payload):
        """Nothing is acknowledged per root: a dead holder's lease goes
        back whole under a bumped epoch (optimisation), or fails the job
        (enumeration, whose partial accumulator died with it)."""
        w1 = FakeWorker(*handle.address, name="survivor")
        w2 = FakeWorker(*handle.address, name="doomed")
        try:
            fut = handle.run_job_future(payload, timeout=15)
            root = w1.recv(P.TASK)
            w1.send(offcut_frame(root, [("a",), ("b",), ("c",)]))
            lease = w2.recv(P.TASK)
            assert len(lease["nodes"]) == 3
            w2.stop_heartbeat()
            if payload is ENUM_PAYLOAD:
                with pytest.raises(ClusterJobFailed, match="enumeration"):
                    fut.result(timeout=10)
                return
            w1.send(result_frame(root, value=3, node=("r3",)))
            again = w1.recv(P.TASK, timeout=5.0)
            assert again["task"] == lease["task"] and again["epoch"] == 1
            assert again["nodes"] == lease["nodes"]
            # The dead holder's word on it is stale by now.
            w2.send(result_frame(lease, value=99, node=("ghost",)))
            w1.send(result_frame(again, value=9, node=("n9",)))
            res = fut.result(timeout=10)
            assert (res.value, res.node) == (9, ("n9",))
            assert res.metrics.reassigned == 1
        finally:
            w1.close()
            w2.close()

    def test_enumeration_job_fails_loudly_on_worker_death(self, handle):
        # An enumeration task's partial accumulator dies with its
        # worker; completing anyway would silently miscount.
        w = FakeWorker(*handle.address)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=15)
            w.recv(P.TASK)
            w.stop_heartbeat()
            with pytest.raises(ClusterJobFailed, match="enumeration"):
                fut.result(timeout=10)
        finally:
            w.close()


class TestIncumbent:
    def test_only_strict_improvements_rebroadcast(self, handle):
        w1 = FakeWorker(*handle.address, name="finder")
        w2 = FakeWorker(*handle.address, name="listener")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=15)
            task = w1.recv(P.TASK)
            job_id = task["job"]

            def publish(value):
                w1.send({
                    "type": P.INCUMBENT,
                    "job": job_id,
                    "value": value,
                    "node": P.encode_node((value,)),
                })

            publish(5)
            assert w2.recv(P.INCUMBENT)["value"] == 5
            publish(5)  # tie: no rebroadcast
            publish(4)  # regression: no rebroadcast
            w2.assert_no_frame(P.INCUMBENT, within=0.4)
            publish(6)  # strict improvement again
            assert w2.recv(P.INCUMBENT)["value"] == 6
            w1.send(result_frame(task, value=6, node=(6,)))
            res = fut.result(timeout=10)
            assert res.value == 6
            assert res.node == (6,)
            assert res.metrics.broadcasts == 2
        finally:
            w1.close()
            w2.close()

    def test_witness_survives_publisher_death(self, handle):
        # The witness travels with the INCUMBENT publish, so the best
        # value keeps its witness even if the finder dies before its
        # RESULT and the re-run prunes the witness subtree away.
        w1 = FakeWorker(*handle.address, name="finder")
        w2 = FakeWorker(*handle.address, name="survivor")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=15)
            task1 = w1.recv(P.TASK)
            w1.send({
                "type": P.INCUMBENT,
                "job": task1["job"],
                "value": 50,
                "node": P.encode_node(("witness-50",)),
            })
            w2.recv(P.INCUMBENT)  # broadcast seen cluster-wide
            w1.stop_heartbeat()  # finder dies before sending RESULT
            task2 = w2.recv(P.TASK, timeout=5.0)
            assert task2["epoch"] == 1
            # The re-run prunes everything (stale bound 50): its RESULT
            # carries no witness at all.
            w2.send(result_frame(task2))
            res = fut.result(timeout=10)
            assert res.value == 50
            assert res.node == ("witness-50",)
            assert res.metrics.reassigned == 1
        finally:
            w1.close()
            w2.close()

    def test_a_result_that_raises_the_best_is_broadcast(self, handle):
        # The finder's INCUMBENT was lost (a frame the chaos plans may
        # drop): its RESULT is the first the coordinator hears of 7, and
        # the peers and the observer must hear of it too.
        seen = []
        handle.coordinator.on_incumbent = seen.append
        w1 = FakeWorker(*handle.address, name="finder")
        w2 = FakeWorker(*handle.address, name="listener")
        try:
            fut = handle.run_job_future(OPT_PAYLOAD, timeout=15)
            root = w1.recv(P.TASK)
            w1.send(offcut_frame(root, [("a",), ("b",)]))
            lease = w2.recv(P.TASK)
            w1.send(result_frame(root, value=7, node=("w7",)))
            assert w2.recv(P.INCUMBENT)["value"] == 7
            w2.send(result_frame(lease))
            res = fut.result(timeout=10)
            assert (res.value, res.node) == (7, ("w7",))
            assert res.metrics.broadcasts == 1 and seen == [7]
        finally:
            w1.close()
            w2.close()


def test_a_knob_below_one_is_refused(handle):
    """As on the process backend: a ValueError, and no JOB goes out."""
    w = FakeWorker(*handle.address)
    try:
        for knob in ("budget", "share_poll"):
            with pytest.raises(ValueError, match=knob):
                handle.run_job(dict(ENUM_PAYLOAD, **{knob: 0}), timeout=10)
        w.assert_no_frame(P.JOB)
    finally:
        w.close()


def test_the_cluster_does_not_import_the_process_backend():
    """Importing the process backend builds its fleet and registers exit
    and fork hooks: no coordinator or cluster worker process wants them."""
    code = (
        "import sys, repro.cluster.worker, repro.cluster.coordinator; "
        "sys.exit('repro.runtime.processes' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def offcut_frame(task_msg, nodes, depth=3):
    """An OFFCUT frame splitting ``nodes`` off a held lease."""
    return {
        "type": P.OFFCUT,
        "job": task_msg["job"],
        "task": task_msg["task"],
        "epoch": task_msg["epoch"],
        "depth": depth,
        "nodes": [P.encode_node(n) for n in nodes],
    }


def lease_to_task(raw, lease):
    """One ``[id, epoch, nodes, depth]`` entry as a classic TASK dict."""
    task_id, epoch, nodes, depth = lease
    return {"type": P.TASK, "job": raw["job"], "task": task_id,
            "epoch": epoch, "nodes": nodes, "depth": depth}


class TestBatching:
    def test_offcut_batch_leased_in_one_frame(self, handle):
        # A worker with free slots gets all its grants in a single
        # TASK frame, not one frame per lease.  (Nobody is idle, so the
        # hand-over is queued one record per subtree.)
        w = FakeWorker(*handle.address, slots=3)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w.recv(P.TASK)
            w.send(offcut_frame(root, [(1, 2), (3, 4)]))
            raw = w.recv_raw(P.TASK)
            assert [len(lease[2]) for lease in raw["leases"]] == [1, 1]
            w.send(result_frame(root, knowledge=1, spawns=2))
            for lease in raw["leases"]:
                w.send(result_frame(lease_to_task(raw, lease), knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 21
            assert res.metrics.spawns == 2
        finally:
            w.close()

    def test_round_robin_spreads_leases_across_workers(self, handle):
        # Grants rotate one-lease-per-worker-per-pass, so a burst of
        # records cannot all pile onto whichever worker is checked
        # first — that hoarding is what flattens search-order anomalies.
        w1 = FakeWorker(*handle.address, name="w1", slots=2)
        w2 = FakeWorker(*handle.address, name="w2", slots=2)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            # w1 holds the root, w2 is idle: a hand-over is one lease,
            # and it is w2's.
            w1.send(offcut_frame(root, [(1,), (2,)]))
            raw2 = w2.recv_raw(P.TASK)
            assert [len(lease[2]) for lease in raw2["leases"]] == [2]
            w1.assert_no_frame(P.TASK, within=0.2)
            # Now nobody is idle and each has one free slot: the next
            # hand-over is queued per subtree and dealt one each.
            w1.send(offcut_frame(root, [(3,), (4,), (5,)]))
            raw1 = w1.recv_raw(P.TASK)
            raw3 = w2.recv_raw(P.TASK)
            assert len(raw1["leases"]) == len(raw3["leases"]) == 1
            # Completing the root frees a slot of w1: the third lands there.
            w1.send(result_frame(root, knowledge=1, spawns=5))
            raw4 = w1.recv_raw(P.TASK)
            assert len(raw4["leases"]) == 1
            for raw, worker, value in ((raw1, w1, 10), (raw2, w2, 100),
                                       (raw3, w2, 1000), (raw4, w1, 10000)):
                for lease in raw["leases"]:
                    worker.send(
                        result_frame(lease_to_task(raw, lease), knowledge=value)
                    )
            res = fut.result(timeout=10)
            assert res.value == 1 + 10 + 100 + 1000 + 10000
            assert res.metrics.spawns == 5
            assert res.workers == 2
        finally:
            w1.close()
            w2.close()

    def test_down_level_hello_is_refused(self, handle):
        # One protocol version: every coordination needs run leases or
        # STEAL, so a HELLO with any other version gets ERROR and a
        # closed connection — it is never admitted, let alone leased.
        # 5: ordered leases are numbers, reports columns; 6: no SHUTDOWN
        # frame, so the binary codec's type tags after RETIRE moved; 7: a
        # STEAL on a Depth-Bounded job asks for a queued lease back, where
        # a version-6 worker would split its stack; 8: an ordered run names
        # its tasks by child-index path, where a version-7 worker would
        # read positions in a frontier it walked itself; 9: a
        # Depth-Bounded lease is a run named by path, where a version-8
        # worker would decode nodes.
        assert P.PROTOCOL_VERSION == 9
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 10, None):
            frames = refused_hello(handle.address, version)
            assert [m["type"] for m in frames] == [P.ERROR]
            assert str(P.PROTOCOL_VERSION) in frames[0]["reason"]
        w4 = FakeWorker(*handle.address, name="v9")
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            w4.send(result_frame(w4.recv(P.TASK), knowledge=1))
            res = fut.result(timeout=10)
            assert res.value == 1
            assert res.workers == 1
        finally:
            w4.close()

    @pytest.mark.parametrize(
        "fields", [{"slots": None}, {"slots": "x"}, {"codecs": 5}],
        ids=["null-slots", "str-slots", "int-codecs"],
    )
    def test_malformed_hello_is_answered_with_error(self, handle, caplog, fields):
        frames = refused_hello(handle.address, P.PROTOCOL_VERSION, **fields)
        assert [m["type"] for m in frames] == [P.ERROR]
        assert "malformed HELLO" in frames[0]["reason"]
        assert handle.n_workers() == 0
        # Refused, not crashed: no "Unhandled exception in
        # client_connected_cb" from the loop.
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    @pytest.mark.parametrize("mtype", list(FUZZED_FIELDS))
    def test_any_field_value_past_hello_is_handled_or_answered(self, handle, caplog, mtype):
        """A RESULT, OFFCUT, STOLEN or INCUMBENT for a live lease, each
        of its fields anything at all: the coordinator takes it, or
        answers ERROR "protocol violation" and drops the worker — never
        an exception out of its dispatch, which would close the
        connection with no answer (and log it from the loop)."""
        payload = OPT_PAYLOAD if mtype == P.INCUMBENT else ENUM_PAYLOAD

        @settings(max_examples=25, deadline=None)
        @given(fields=st.fixed_dictionaries(
            {}, optional=dict.fromkeys(FUZZED_FIELDS[mtype], FIELD_VALUES),
        ))
        def check(fields):
            w = FakeWorker(*handle.address)
            fut = handle.run_job_future(payload, timeout=30)
            try:
                task = w.recv(P.TASK)
                w.send({
                    "type": mtype, "job": task["job"], "task": task["task"],
                    "epoch": task["epoch"], **fields,
                })
                w.sock.shutdown(socket.SHUT_WR)  # then EOF: the handler ends either way
                frames = []
                while (msg := P.read_frame(w.sock)) is not None:
                    frames.append(msg)
                errors = [m for m in frames if m["type"] == P.ERROR]
                assert errors in ([], [{"type": P.ERROR, "reason": "protocol violation"}])
            finally:
                w.close()
                handle.cancel_job("next example")
                try:
                    fut.result(timeout=10)
                except ClusterError:
                    pass

        check()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_binary_codec_negotiated_end_to_end(self, handle):
        w = FakeWorker(*handle.address, codecs=["binary", "json"])
        try:
            assert w.codec == "binary"
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            task = w.recv(P.TASK)
            w.send(result_frame(task, knowledge=17))
            assert fut.result(timeout=10).value == 17
        finally:
            w.close()

    def test_mixed_codec_workers_share_one_job(self, handle):
        # Negotiation is per-connection: a JSON worker and a binary
        # worker exchange offcuts through the same coordinator.
        w1 = FakeWorker(*handle.address, name="legacy")
        w2 = FakeWorker(*handle.address, name="modern",
                        codecs=["binary", "json"])
        try:
            assert w1.codec == "json" and w2.codec == "binary"
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w1.recv(P.TASK)
            w1.send(offcut_frame(root, [(7, 7)]))
            t2 = w2.recv(P.TASK)
            assert P.decode_node(t2["nodes"]) == [(7, 7)]
            w1.send(result_frame(root, knowledge=1))
            w2.send(result_frame(t2, knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 11
            assert res.workers == 2
        finally:
            w1.close()
            w2.close()

    def test_batched_release_requeues_under_bumped_epoch(self, handle):
        # A RELEASE frame hands several unstarted leases back at once;
        # each re-queues under epoch+1 so anything else the releasing
        # worker says about them is stale by construction.
        w = FakeWorker(*handle.address, slots=3)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=10)
            root = w.recv(P.TASK)
            w.send(offcut_frame(root, [(1,), (2,)]))
            raw = w.recv_raw(P.TASK)
            assert len(raw["leases"]) == 2
            w.send({
                "type": P.RELEASE,
                "job": raw["job"],
                "tasks": [[lease[0], lease[1]] for lease in raw["leases"]],
            })
            # Both come back in a fresh batch with bumped epochs.
            raw2 = w.recv_raw(P.TASK)
            assert len(raw2["leases"]) == 2
            assert sorted(l[0] for l in raw2["leases"]) == \
                sorted(l[0] for l in raw["leases"])
            assert all(l[1] == 1 for l in raw2["leases"])
            w.send(result_frame(root, knowledge=1))
            for lease in raw2["leases"]:
                w.send(result_frame(lease_to_task(raw2, lease), knowledge=10))
            res = fut.result(timeout=10)
            assert res.value == 21
        finally:
            w.close()


class TestTimeout:
    def test_job_timeout_raises_and_notifies_workers(self, handle):
        w = FakeWorker(*handle.address)
        try:
            fut = handle.run_job_future(ENUM_PAYLOAD, timeout=0.5)
            task = w.recv(P.TASK)
            with pytest.raises(ClusterJobTimeout):
                fut.result(timeout=10)
            done = w.recv(P.JOB_DONE)
            assert done["job"] == task["job"]
        finally:
            w.close()
