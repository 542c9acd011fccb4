"""Binary wire codec: fuzz roundtrips, cross-codec equivalence, strictness.

The contract under test is the one everything downstream relies on:
``decode_body(binary(m)) == decode_body(json(m)) == m`` for every
JSON-safe message ``m``, with every malformed body — truncated,
trailing bytes, unknown tags, lying length fields — rejected as
:class:`ProtocolError`, never a crash or a silently-wrong decode.

The fuzz suite is generator-driven off :class:`SplitMix64`, so every
run covers the same structured message space deterministically; a
failing seed is a complete bug report.
"""

import base64
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import codec as C
from repro.cluster import protocol as P
from repro.util.rng import SplitMix64

FRAME_TYPES = C.FRAME_TYPES

# Interned keys usable as *dict keys* in a generated message: the node
# collection tags ("__tuple__" etc.) would turn the message into a
# tagged node and change its decode, so they are filtered by name (the
# tags sit mid-tuple now that newer keys append after them).
_PLAIN_KEYS = tuple(k for k in C._KEYS if not k.startswith("__"))


# -- seeded message generator ------------------------------------------------


def _gen_value(rng: SplitMix64, depth: int):
    """One JSON-safe value, biased toward the shapes real frames carry."""
    roll = rng.randrange(14 if depth < 3 else 8)
    if roll == 0:
        return None
    if roll == 1:
        return bool(rng.randrange(2))
    if roll == 2:
        # Ints across widths and signs: zigzag varints must cover all.
        magnitude = rng.randrange(1 << (1 + rng.randrange(63)))
        return magnitude if rng.randrange(2) else -magnitude
    if roll == 3:
        return rng.randrange(1000) / 8.0  # exactly representable
    if roll == 4:
        return "k-" * rng.randrange(4) + str(rng.randrange(1000))
    if roll == 5:
        return "αβγ-" + str(rng.randrange(100))  # non-ASCII strings
    if roll == 6:
        # Interned strings hit the T_KEY value path.
        return C._KEYS[rng.randrange(len(C._KEYS))]
    if roll == 7:
        return "" if rng.randrange(2) else "x"
    if roll == 8:
        return [_gen_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if roll == 9:
        return {
            f"f{i}": _gen_value(rng, depth + 1)
            for i in range(rng.randrange(4))
        }
    if roll == 10:
        return {"__tuple__": [_gen_value(rng, depth + 1)
                              for _ in range(rng.randrange(3))]}
    if roll == 11:
        tag = "__set__" if rng.randrange(2) else "__frozenset__"
        return {tag: [rng.randrange(100) for _ in range(rng.randrange(3))]}
    if roll == 12:
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
        return {"__pickle__": base64.b64encode(payload).decode("ascii")}
    # A tagged key with the *wrong* inner shape must round-trip as a
    # plain dict, not corrupt into a collection tag.
    return {"__tuple__": _gen_value(rng, depth + 1)} \
        if rng.randrange(2) else {"__pickle__": rng.randrange(100)}


def _gen_message(rng: SplitMix64) -> dict:
    mtype = (
        FRAME_TYPES[rng.randrange(len(FRAME_TYPES))]
        if rng.randrange(4)
        else f"X_{rng.randrange(10)}"  # unregistered type: escape path
    )
    msg = {"type": mtype}
    for i in range(rng.randrange(6)):
        key = (
            _PLAIN_KEYS[rng.randrange(len(_PLAIN_KEYS))]
            if rng.randrange(2)
            else f"field_{i}"
        )
        if key == "type":
            continue
        msg[key] = _gen_value(rng, 0)
    return msg


# -- roundtrip + equivalence -------------------------------------------------


class TestFuzzRoundtrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_binary_matches_json_decode(self, seed):
        rng = SplitMix64(0xC0DEC + seed)
        for _ in range(200):
            msg = _gen_message(rng)
            via_binary = C.decode_body(C.BINARY_CODEC.encode(msg))
            via_json = C.decode_body(C.JSON_CODEC.encode(msg))
            assert via_binary == via_json == msg, msg

    @pytest.mark.parametrize("seed", range(4))
    def test_every_truncation_rejected(self, seed):
        rng = SplitMix64(0x7A7A + seed)
        for _ in range(25):
            body = C.BINARY_CODEC.encode(_gen_message(rng))
            for cut in range(len(body)):
                with pytest.raises(P.ProtocolError):
                    C.decode_body(body[:cut])

    @pytest.mark.parametrize("seed", range(4))
    def test_trailing_bytes_rejected(self, seed):
        rng = SplitMix64(0xBEEF + seed)
        for _ in range(50):
            body = C.BINARY_CODEC.encode(_gen_message(rng))
            with pytest.raises(P.ProtocolError):
                C.decode_body(body + b"\x00")

    def test_every_frame_type_tag_roundtrips(self):
        for name in FRAME_TYPES:
            body = C.BINARY_CODEC.encode({"type": name})
            assert C.decode_body(body) == {"type": name}
            # Registered types cost exactly magic + tag + field count.
            assert len(body) == 3

    def test_nodes_roundtrip_through_binary_frames(self):
        nodes = [
            (1, 2, 3),
            frozenset({5, 9}),
            {"s", "t"},
            [(1, frozenset({2})), None, True],
            ("nested", (set(), (0,))),
            {"plain": ["dict", 7]},
        ]
        for node in nodes:
            msg = {"type": P.TASK, "node": P.encode_node(node)}
            out = C.decode_body(C.BINARY_CODEC.encode(msg))
            assert P.decode_node(out["node"]) == node

    def test_pickle_fallback_roundtrips_raw(self):
        # Application node classes travel as T_PICKLE raw bytes and must
        # decode back to the exact tagged-base64 form JSON produces.
        payload = pickle.dumps(("opaque", 42))
        tagged = {"__pickle__": base64.b64encode(payload).decode("ascii")}
        msg = {"type": P.TASK, "node": tagged}
        assert C.decode_body(C.BINARY_CODEC.encode(msg)) == msg
        assert P.decode_node(tagged) == ("opaque", 42)

    def test_non_canonical_base64_survives_generic_path(self):
        # "ab" decodes but does not re-encode to itself; the T_PICKLE
        # shortcut must refuse it or the roundtrip would corrupt.
        msg = {"type": P.TASK, "node": {"__pickle__": "ab"}}
        assert C.decode_body(C.BINARY_CODEC.encode(msg)) == msg

    def test_extreme_ints(self):
        for v in (0, -1, 1, 2**63, -(2**63), 2**200, -(2**200) + 1):
            msg = {"type": P.RESULT, "value": v}
            assert C.decode_body(C.BINARY_CODEC.encode(msg)) == msg


class TestStealFrames:
    """STEAL/STOLEN (protocol v3) across both codecs.

    These frames are the stack-stealing coordination's entire wire
    surface, so they get targeted adversarial coverage on top of the
    generic fuzz: registered-tag compactness, node payload fidelity,
    and the empty-STOLEN ("dry") shape the coordinator keys off.
    """

    def test_steal_and_stolen_are_registered_frame_types(self):
        assert P.STEAL in C.FRAME_TYPES
        assert P.STOLEN in C.FRAME_TYPES
        # Registered: one byte of type tag, not an escaped string.
        assert len(C.BINARY_CODEC.encode({"type": P.STEAL})) == 3

    def test_steal_request_roundtrips_both_codecs(self):
        msg = {"type": P.STEAL, "job": 7}
        assert C.decode_body(C.BINARY_CODEC.encode(msg)) == msg
        assert C.decode_body(C.JSON_CODEC.encode(msg)) == msg

    def test_stolen_offcuts_roundtrip_identically(self):
        nodes = [
            P.encode_node((3, frozenset({1, 4}), "partial")),
            P.encode_node((5, frozenset(), "leaf")),
        ]
        msg = {
            "type": P.STOLEN, "job": 2, "task": 11, "epoch": 1,
            "depth": 4, "nodes": nodes,
        }
        via_binary = C.decode_body(C.BINARY_CODEC.encode(msg))
        via_json = C.decode_body(C.JSON_CODEC.encode(msg))
        assert via_binary == via_json == msg
        assert [P.decode_node(n) for n in via_binary["nodes"]] == [
            (3, frozenset({1, 4}), "partial"), (5, frozenset(), "leaf"),
        ]

    def test_empty_stolen_is_dry_not_malformed(self):
        # A victim with nothing to give answers with an empty node list
        # and no task/epoch — that exact shape must survive the wire.
        msg = {"type": P.STOLEN, "job": 2, "nodes": []}
        assert C.decode_body(C.BINARY_CODEC.encode(msg)) == msg
        assert C.decode_body(C.JSON_CODEC.encode(msg)) == msg

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_stolen_bodies_match_across_codecs(self, seed):
        rng = SplitMix64(0x57EA1 + seed)
        for _ in range(100):
            msg = {
                "type": P.STOLEN,
                "job": rng.randrange(1 << 32),
                "task": rng.randrange(1 << 48),
                "epoch": rng.randrange(1 << 16),
                "depth": rng.randrange(64),
                "nodes": [_gen_value(rng, 1) for _ in range(rng.randrange(5))],
            }
            assert (
                C.decode_body(C.BINARY_CODEC.encode(msg))
                == C.decode_body(C.JSON_CODEC.encode(msg))
                == msg
            )

    def test_truncated_stolen_rejected_at_every_cut(self):
        msg = {"type": P.STOLEN, "job": 1, "task": 2, "epoch": 0,
               "depth": 3, "nodes": [P.encode_node((1, 2))]}
        body = C.BINARY_CODEC.encode(msg)
        for cut in range(len(body)):
            with pytest.raises(P.ProtocolError):
                C.decode_body(body[:cut])

    def test_ordered_lease_bound_key_is_interned(self):
        # Ordered leases are runs of numbers — [id, epoch, seqs, bound,
        # of] — and their RESULT frames carry blocks of counter columns;
        # every block key must be in the intern table (one byte each)
        # and round-trip exactly.
        for key in ("bound", "blocks", "seqs", "more"):
            assert key in C._KEYS
        lease = {"type": P.TASK, "job": 1, "leases": [
            [4, 0, [17, 2, 40, 1], 9, 2159],
        ]}
        assert C.decode_body(C.BINARY_CODEC.encode(lease)) == lease
        result = {"type": P.RESULT, "job": 1, "task": 4, "epoch": 0,
                  "more": True, "blocks": [
                      P.pack_block({
                          "seqs": [17, 18, 40], "bound": 9,
                          "nodes": [1, 1, 400], "prunes": [1, 1, 310],
                          "backtracks": [0, 0, 64], "max_depth": [0, 0, 6],
                          "value": 11, "node": (2, 5), "goal": False,
                      }),
                  ]}
        body = C.BINARY_CODEC.encode(result)
        assert C.decode_body(body) == result
        assert C.decode_body(C.JSON_CODEC.encode(result)) == result
        assert len(body) < len(C.JSON_CODEC.encode(result)) / 2
        (block,) = C.decode_body(body)["blocks"]
        assert P.unpack_block(block, enum=False, of=41)["seqs"] == [17, 18, 40]

    @pytest.mark.parametrize("column", [
        [], [0], [63], [64], [1, 63, 64, 127, 128, 1 << 40], [-1, 0, 1],
        [True, 1], [1, None, "x", [2, 3]],
    ])
    def test_int_columns_take_the_inline_path_and_everything_else_does_not(self, column):
        # Lists of small non-negative ints are encoded and decoded
        # without a call per item; the bytes and the values are the
        # ones the general path produces.
        msg = {"type": P.RESULT, "nodes": column}
        body = C.BINARY_CODEC.encode(msg)
        general = bytearray()
        for item in column:
            C._encode_value(general, item)
        assert bytes(general) in body
        decoded = C.decode_body(body)["nodes"]
        assert decoded == column
        assert [type(v) for v in decoded] == [type(v) for v in column]


class TestStrictDecode:
    def test_empty_body_rejected(self):
        with pytest.raises(P.ProtocolError):
            C.decode_body(b"")

    def test_unknown_value_tag_rejected(self):
        body = bytearray(C.BINARY_CODEC.encode({"type": P.HEARTBEAT}))
        body += bytes([C._KEY_INDEX["value"], 0x7F])
        body[2] = 1  # field count now claims one pair
        with pytest.raises(P.ProtocolError, match="unknown value tag"):
            C.decode_body(bytes(body))

    def test_unknown_frame_type_code_rejected(self):
        with pytest.raises(P.ProtocolError, match="frame-type"):
            C.decode_body(bytes([C.MAGIC, 0xE0, 0]))

    def test_unknown_key_code_rejected(self):
        with pytest.raises(P.ProtocolError, match="interned-key"):
            C.decode_body(bytes([C.MAGIC, 0, 1, 0xF0]))

    def test_oversized_counts_rejected(self):
        # A length/count field larger than the remaining bytes must be
        # rejected up front, not allocate or scan past the frame.
        for body in (
            # string claiming 2**20 bytes with 1 present
            bytes([C.MAGIC, 0, 1, C._KEY_INDEX["name"], C.T_STR,
                   0x80, 0x80, 0x40, ord("x")]),
            # list claiming 2**20 items with none present
            bytes([C.MAGIC, 0, 1, C._KEY_INDEX["nodes"], C.T_LIST,
                   0x80, 0x80, 0x40]),
            # field count claiming more pairs than bytes remain
            bytes([C.MAGIC, 0, 0x80, 0x80, 0x40]),
        ):
            with pytest.raises(P.ProtocolError):
                C.decode_body(body)

    def test_unbounded_varint_rejected(self):
        body = bytes([C.MAGIC, 0]) + b"\xff" * 200 + b"\x01"
        with pytest.raises(P.ProtocolError, match="varint"):
            C.decode_body(body)

    def test_invalid_utf8_rejected(self):
        body = bytes([C.MAGIC, C._TYPE_ESCAPE, 2, 0xFF, 0xFE, 0])
        with pytest.raises(P.ProtocolError, match="UTF-8"):
            C.decode_body(body)

    def test_json_body_still_validated(self):
        with pytest.raises(P.ProtocolError):
            C.decode_body(b"[1, 2]")  # not a message object
        with pytest.raises(P.ProtocolError):
            C.decode_body(b"{\"no_type\": 1}")
        with pytest.raises(P.ProtocolError):
            C.decode_body(b"not json at all")

    def test_magic_never_collides_with_json(self):
        # 0xB1 is an invalid UTF-8 lead byte: no JSON text starts with
        # it, so auto-detection cannot misroute a JSON body.
        assert C.JSON_CODEC.encode({"type": "X", "k": "αβ"})[0] != C.MAGIC

    def test_unencodable_value_rejected(self):
        with pytest.raises(P.ProtocolError, match="cannot encode"):
            C.BINARY_CODEC.encode({"type": "X", "v": object()})
        with pytest.raises(P.ProtocolError, match="string dict keys"):
            C.BINARY_CODEC.encode({"type": "X", "v": {1: 2}})


class TestHostileBodies:
    """Whatever bytes arrive, decoding answers a dict or ProtocolError:
    both the coordinator's connection handler and the worker's receiver
    catch nothing else."""

    @pytest.mark.parametrize("body", [
        b'{"type": "RESULT", "nodes": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        bytes([C.MAGIC, C._TYPE_INDEX[P.RESULT], 1, C._KEY_INDEX["nodes"]])
        + bytes([C.T_LIST, 1]) * 5000 + bytes([C.T_LIST, 0]),
    ], ids=["json", "binary"])
    def test_deep_nesting_is_a_protocol_error(self, body):
        # 5 000 nested lists in about 10 KB.
        assert len(body) < 11_000
        with pytest.raises(P.ProtocolError, match="nests too deeply"):
            C.decode_body(body)

    @staticmethod
    def _decodes_or_refuses(body: bytes) -> None:
        try:
            assert isinstance(C.decode_body(body), dict)
        except P.ProtocolError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, body):
        self._decodes_or_refuses(body)
        self._decodes_or_refuses(bytes([C.MAGIC]) + body)

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        codec=st.sampled_from([C.JSON_CODEC, C.BINARY_CODEC]),
        edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4),
    )
    def test_mutated_valid_frames(self, seed, codec, edits):
        body = bytearray(codec.encode(_gen_message(SplitMix64(seed))))
        for at, byte in edits:
            body[at % len(body)] = byte
        self._decodes_or_refuses(bytes(body))
        self._decodes_or_refuses(bytes(body[: edits[0][0] % len(body)]))


class TestNegotiation:
    def test_get_codec(self):
        assert C.get_codec("json") is C.JSON_CODEC
        assert C.get_codec("binary") is C.BINARY_CODEC
        with pytest.raises(P.ProtocolError, match="unknown wire codec"):
            C.get_codec("msgpack")

    def test_offered_codecs(self):
        assert C.offered_codecs("binary") == ["binary", "json"]
        assert C.offered_codecs("json") == ["json"]  # the debugging veto
        with pytest.raises(P.ProtocolError):
            C.offered_codecs("nope")

    def test_negotiate_prefers_coordinator_choice(self):
        assert C.negotiate(["binary", "json"], "binary") == "binary"
        assert C.negotiate(["binary", "json"], "json") == "json"
        assert C.negotiate(["json"], "binary") == "json"

    def test_negotiate_v1_peer_gets_json(self):
        assert C.negotiate(None, "binary") == "json"
        assert C.negotiate([], "binary") == "json"

    def test_negotiate_unknown_offers_fall_back(self):
        assert C.negotiate(["zstd"], "binary") == "json"
        assert C.negotiate(["zstd", "binary"], "binary") == "binary"
        assert C.negotiate([3, None, "json"], "binary") == "json"


class TestFraming:
    def test_frame_bytes_accepts_codec_names_and_objects(self):
        msg = {"type": P.HEARTBEAT}
        assert P.frame_bytes(msg, "binary") == P.frame_bytes(msg, C.BINARY_CODEC)
        assert P.frame_bytes(msg) == P.frame_bytes(msg, "json")

    def test_binary_frames_are_smaller_on_real_shapes(self):
        node = P.encode_node((1, frozenset({2, 3}), "state"))
        task = {"type": P.TASK, "job": 1,
                "leases": [[i, 0, node, 3] for i in range(4)]}
        assert len(C.BINARY_CODEC.encode(task)) < len(C.JSON_CODEC.encode(task))
