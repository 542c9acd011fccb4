"""Unit tests for the cluster wire protocol: framing and codecs."""

import pickle
import socket
from typing import NamedTuple

import pytest

from repro.apps.uts import UTSNode
from repro.cluster import codec as C
from repro.cluster import protocol as P
from repro.cluster.worker import ClusterWorker


def _pipe():
    """A connected socket pair (both ends blocking)."""
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = _pipe()
        try:
            a.sendall(P.frame_bytes({"type": P.HELLO, "version": 1, "name": "w"}))
            msg = P.read_frame(b)
            assert msg == {"type": P.HELLO, "version": 1, "name": "w"}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_keep_boundaries(self):
        a, b = _pipe()
        try:
            a.sendall(
                P.frame_bytes({"type": P.HEARTBEAT})
                + P.frame_bytes({"type": P.BYE, "n": 2})
            )
            assert P.read_frame(b)["type"] == P.HEARTBEAT
            assert P.read_frame(b) == {"type": P.BYE, "n": 2}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pipe()
        a.close()
        try:
            assert P.read_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = _pipe()
        try:
            frame = P.frame_bytes({"type": P.HEARTBEAT})
            a.sendall(frame[: len(frame) - 2])  # torn write
            a.close()
            with pytest.raises(ConnectionError):
                P.read_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = _pipe()
        try:
            a.sendall((P.MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(P.ProtocolError):
                P.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = _pipe()
        try:
            import json

            body = json.dumps([1, 2, 3]).encode()
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(P.ProtocolError):
                P.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_body_rejected(self):
        a, b = _pipe()
        try:
            body = b"\xff\xfenot json"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(P.ProtocolError):
                P.read_frame(b)
        finally:
            a.close()
            b.close()


class _SlottedNode:
    """An application-style node class (not JSON-representable)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)


class _PairNode(NamedTuple):
    a: int
    b: int


class TestNodeCodec:
    @pytest.mark.parametrize("node", [_PairNode(1, 2), UTSNode(state=2**63 + 5, depth=3)])
    def test_namedtuple_node_keeps_its_class(self, node):
        """A tuple subclass shipped as ``__tuple__`` arrived as a bare
        tuple and attribute access failed on the worker."""
        encoded = P.encode_node(node)
        assert set(encoded) == {"__pickle__"}
        frame = C.BINARY_CODEC.encode({"type": P.TASK, "node": encoded})
        for wire in (encoded, C.decode_body(frame)["node"]):
            decoded = P.decode_node(wire)
            assert type(decoded) is type(node) and decoded == node
            assert decoded._fields == node._fields and decoded[0] == node[0]
        # Nested inside a plain tuple, which still travels structurally.
        assert type(P.decode_node(P.encode_node((node, 7)))[0]) is type(node)
        assert pickle.loads(pickle.dumps(node)) == node  # process queues

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "text",
            [1, 2, [3]],
            (1, 2, (3, "x")),
            {1, 2, 3},
            frozenset({4, 5}),
            {"k": [1, (2,)], "j": {"nested": {6}}},
            (frozenset({1}), [{"a": (None,)}]),
        ],
    )
    def test_exact_round_trip(self, value):
        encoded = P.encode_node(value)
        decoded = P.decode_node(encoded)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_json_safe_values_stay_readable(self):
        # Plain structures travel structurally, not as opaque pickles.
        import json

        encoded = P.encode_node({"depth": 3, "path": [1, 2]})
        assert json.loads(json.dumps(encoded)) == encoded
        assert "__pickle__" not in json.dumps(encoded)

    def test_app_node_class_round_trips_via_pickle_tag(self):
        node = _SlottedNode(7, (1, 2))
        encoded = P.encode_node(node)
        assert set(encoded) == {"__pickle__"}
        assert P.decode_node(encoded) == node

    def test_tag_collision_in_dict_degrades_to_pickle(self):
        # A user dict that happens to use a tag key must not be
        # misparsed as a tagged value on the way back.
        tricky = {"__tuple__": [1, 2]}
        assert P.decode_node(P.encode_node(tricky)) == tricky


class TestEveryFrameTypeAdversarial:
    """One realistic message per protocol frame type, loaded with the
    payload shapes that break naive codecs: empty sets, nested tuples,
    non-ASCII text, tag-colliding dicts — each must survive a real
    socket round trip byte-exactly."""

    NASTY_NODE = (
        frozenset(),  # empty frozenset
        set(),  # empty set
        ((1, (2, (3,))), ()),  # nested and empty tuples
        {"ключ": ["väärtus", "値", "\N{SNOWMAN}"]},  # non-ASCII both sides
        {"__tuple__": [1]},  # tag collision
        [None, True, -0.0, 2**63],  # JSON edge numerics
    )

    MESSAGES = [
        {"type": P.HELLO, "version": P.PROTOCOL_VERSION, "name": "wörker-0"},
        {"type": P.WELCOME, "worker_id": 3, "heartbeat_interval": 0.5},
        {"type": P.JOB, "job_id": "j-δ", "factory": "m:f",
         "factory_args": None, "stype_kind": "optimisation",
         "stype_kwargs": {}, "budget": 1, "share_poll": 64},
        {"type": P.TASK, "task_id": 9, "epoch": 2, "depth": 4},
        {"type": P.OFFCUT, "task_id": 9, "epoch": 2, "depth": 5},
        {"type": P.INCUMBENT, "job_id": "j", "value": -1},
        {"type": P.RESULT, "task_id": 9, "epoch": 2, "nodes": 0,
         "goal": False},
        {"type": P.HEARTBEAT},
        {"type": P.JOB_DONE, "job_id": "j"},
        {"type": P.RETIRE},
        {"type": P.BYE},
        {"type": P.ERROR, "reason": "нет — 不行 — ❌"},
    ]

    @pytest.mark.parametrize(
        "msg", MESSAGES, ids=lambda m: m["type"].lower()
    )
    def test_frame_round_trips_with_nasty_payload(self, msg):
        loaded = dict(msg, payload=P.encode_node(self.NASTY_NODE))
        a, b = _pipe()
        try:
            a.sendall(P.frame_bytes(loaded))
            got = P.read_frame(b)
        finally:
            a.close()
            b.close()
        decoded = P.decode_node(got.pop("payload"))
        assert decoded == self.NASTY_NODE
        assert [type(x) for x in decoded] == [type(x) for x in self.NASTY_NODE]
        assert got == msg

    def test_oversized_body_rejected_at_send_time(self):
        # The sender refuses to emit a frame the receiver would reject:
        # a loud ProtocolError, never a silent truncation.
        blob = "x" * (P.MAX_FRAME + 1)
        with pytest.raises(P.ProtocolError, match="exceeds MAX_FRAME"):
            P.frame_bytes({"type": P.OFFCUT, "payload": blob})

    def test_empty_collections_keep_their_types(self):
        for value in (set(), frozenset(), (), {}):
            decoded = P.decode_node(P.encode_node(value))
            assert decoded == value and type(decoded) is type(value)

    def test_non_ascii_survives_utf8_framing(self):
        msg = {"type": P.INCUMBENT, "witness": "π≈3.14159 — ﷽ — 🧩"}
        a, b = _pipe()
        try:
            a.sendall(P.frame_bytes(msg))
            assert P.read_frame(b) == msg
        finally:
            a.close()
            b.close()


def _top_level_factory():
    """A factory the wire can name."""
    return 42


class TestSpecTransport:
    def test_factory_path_round_trip(self):
        path = P.factory_path(_top_level_factory)
        assert path == "tests.cluster.test_protocol:_top_level_factory"
        assert P.resolve_factory(path) is _top_level_factory

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            P.factory_path(lambda: None)

    def test_nested_function_rejected(self):
        def nested():
            return None

        with pytest.raises(ValueError, match="top-level"):
            P.factory_path(nested)

    def test_unresolvable_path_raises_protocol_error(self):
        with pytest.raises(P.ProtocolError):
            P.resolve_factory("no.such.module:fn")
        with pytest.raises(P.ProtocolError):
            P.resolve_factory("repro.cluster.protocol:no_such_attr")
        with pytest.raises(P.ProtocolError):
            P.resolve_factory("not-a-path")

    def test_library_factory_is_wireable(self):
        from repro.instances.library import library_spec_factory

        path = P.factory_path(library_spec_factory)
        assert P.resolve_factory(path) is library_spec_factory


class TestOrderedRuns:
    """Sequence numbers as flat stretches, reports as checked columns."""

    @pytest.mark.parametrize("seqs, wire", [
        (range(7, 19), [7, 12]),
        ([3], [3, 1]),
        ([3, 5, 6, 7, 40], [3, 1, 5, 3, 40, 1]),
        ([0, 1, 2], [0, 3]),
    ])
    def test_seqs_round_trip(self, seqs, wire):
        assert P.pack_seqs(seqs) == wire
        back = P.unpack_seqs(wire, of=41)
        assert list(back) == list(seqs)
        assert isinstance(back, range) == (len(wire) == 2)  # one stretch: no list

    @pytest.mark.parametrize("wire", [
        None, [], [3], [3, 1, 5], [3, 0], [-1, 2], [5, 2, 6, 1], [5, 2, 3, 1],
        [40, 2], [0, 10**12, 10**13, 1], [True, 1], [1.0, 1], ["1", 1], {"first": 1},
    ])
    def test_malformed_seqs_are_refused(self, wire):
        with pytest.raises(P.ProtocolError):
            P.unpack_seqs(wire, of=41)
        with pytest.raises(P.ProtocolError):
            P.unpack_seqs([0, 1], of=None)

    def test_run_round_trip(self):
        stretches = [[4, (2, 0), 3, 1, 2], [6, (2, 5), 9, 0, 4]]
        wire = C.decode_body(C.BINARY_CODEC.encode(
            {"type": P.TASK, "leases": [[1, 0, P.pack_run(stretches), 7]]}
        ))["leases"][0][2]
        assert wire == [[4, [2, 0], 3, 1, 2], [6, [2, 5], 9, 0, 4]]
        assert P.unpack_run(wire, d_cutoff=3) == stretches
        assert P.unpack_run([[0, [], 5, 0, 5]], d_cutoff=1) == [[0, (), 5, 0, 5]]

    @pytest.mark.parametrize("wire", [
        None, [], "garbage", [[0, [1], 3, 0]], [[0, 1, 3, 0, 1]],
        [[0, [1.0], 3, 0, 1]], [[0, [1], 3, "0", 1]], [[0, [True], 3, 0, 1]],  # not ints
        [[0, [-1], 3, 0, 1]], [[0, [1], 3, -1, 1]], [[-1, [1], 3, 0, 1]],  # negative
        [[0, [1, 0], 3, 0, 1]], [[0, [], 3, 0, 1]],  # a path of another length
        [[0, [1], 3, 0, 0]], [[0, [1], 3, 0, -2]],  # empty
        [[5, [1], 3, 0, 2], [6, [2], 3, 0, 1]],  # not ascending
    ], ids=lambda wire: repr(wire)[:40])
    def test_malformed_runs_are_refused(self, wire):
        with pytest.raises(P.ProtocolError):
            P.unpack_run(wire, d_cutoff=2)
        # A worker refuses the TASK that carries one, and queues nothing.
        worker = ClusterWorker("127.0.0.1", 1, name="stub")
        worker._send = lambda msg: pytest.fail(f"answered {msg}")
        worker._on_message({
            "type": P.JOB, "job": 1, "factory": "repro.verify.generators:instance_spec",
            "factory_args": ["maxclique", [6, 50, 1]], "stype_kind": "optimisation",
            "coordination": "ordered", "d_cutoff": 2, "best": 0,
        })
        with pytest.raises(P.ProtocolError):
            worker._on_message({"type": P.TASK, "job": 1, "leases": [[1, 0, wire, 0]]})
        assert worker._local_q.empty()

    def _block(self, **fields):
        block = {"seqs": [4, 5, 9], "bound": 7, "nodes": [1, 1, 30],
                 "prunes": [1, 1, 12], "backtracks": [0, 0, 9], "max_depth": [0, 0, 5]}
        block.update(fields)
        return block

    def test_block_round_trip(self):
        plain = self._block()
        assert P.unpack_block(P.pack_block(plain), enum=False, of=10) == dict(
            plain, value=None, node=None, goal=False
        )
        improving = self._block(value=9, node=(1, _PairNode(2, 3)), goal=True)
        wire = C.decode_body(C.BINARY_CODEC.encode(
            {"type": P.RESULT, "blocks": [P.pack_block(improving)]}
        ))["blocks"][0]
        assert wire["seqs"] == [4, 2, 9, 1]
        assert P.unpack_block(wire, enum=False, of=10) == improving
        counted = self._block(bound=None, knowledge=[1, 1, 30])
        assert P.unpack_block(P.pack_block(counted), enum=True, of=10) == counted

    @pytest.mark.parametrize("fields", [
        {"nodes": [1, 1]}, {"prunes": [1, 1, 12, 0]}, {"backtracks": None},
        {"max_depth": [0, 0, "5"]}, {"nodes": [1, True, 30]}, {"bound": None},
        {"bound": "7"}, {"value": 9.5}, {"seqs": [4, 2, 9]}, {"seqs": [4, 5, 11]},
    ])
    def test_malformed_blocks_are_refused(self, fields):
        wire = dict(P.pack_block(self._block()), **{
            k: v for k, v in fields.items() if k != "seqs"
        })
        if "seqs" in fields:
            wire["seqs"] = fields["seqs"] if len(fields["seqs"]) % 2 else P.pack_seqs(fields["seqs"])
        with pytest.raises(P.ProtocolError):
            P.unpack_block(wire, enum=False, of=10)
        with pytest.raises(P.ProtocolError):
            P.unpack_block("garbage", enum=False, of=10)
        with pytest.raises(P.ProtocolError):  # an enumeration block needs its accumulators
            P.unpack_block(P.pack_block(self._block()), enum=True, of=10)
