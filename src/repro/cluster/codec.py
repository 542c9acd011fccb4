"""Wire body codecs: the JSON baseline and a compact binary format.

A *frame* on the cluster wire is a 4-byte length prefix followed by a
*body* (see :mod:`repro.cluster.protocol` for framing).  This module
owns what the body looks like.  Two codecs implement the same message
space — plain dicts with a ``"type"`` field and JSON-safe values (nodes
are pre-encoded by ``encode_node`` before they reach a codec):

- ``json`` — UTF-8 JSON, the v1 format: human-readable on the wire,
  C-accelerated, the compatibility floor every peer speaks.
- ``binary`` — struct-packed: a magic byte, a 1-byte frame-type tag, a
  varint field count, then interned-key/tagged-value pairs.  Ints are
  zigzag LEB128 varints, strings are length-prefixed UTF-8, and the
  tagged node shapes ``encode_node`` emits (``__tuple__`` / ``__set__``
  / ``__frozenset__`` lists, the base64 ``__pickle__`` fallback) get
  dedicated tags — the pickle payload travels as raw bytes, not
  base64, which is where most of the size win on application node
  classes comes from.

**Encoding is negotiated, decoding is self-describing.**  The first
body byte discriminates: a binary body always starts with ``MAGIC``
(0xB1 — an invalid leading UTF-8 byte, so no JSON text can begin with
it), anything else is parsed as JSON.  ``decode_body`` therefore
accepts either format regardless of what was negotiated, which is what
lets a handshake *itself* travel as JSON before any agreement exists:

- the worker's HELLO (always JSON) carries ``"codecs": [...]`` — the
  formats it speaks, preferred first; a v1 peer sends no such field
  and is treated as offering ``["json"]``;
- the coordinator picks via :func:`negotiate` (its own preference if
  offered, else the worker's best known offer, else JSON) and names
  the choice in the WELCOME (also always JSON) as ``"codec"``;
- every frame after the handshake, in both directions, uses the
  negotiated codec — but because decoding auto-detects, a peer that
  keeps sending JSON anyway still interoperates.

Both decoders are strict: truncated bodies, trailing bytes, unknown
tags/key codes and malformed UTF-8 all raise :class:`ProtocolError`
(defined here so the codec layer has no protocol dependency;
:mod:`repro.cluster.protocol` re-exports it).

The binary decode returns *exactly* what the JSON decode of the
equivalent message returns — ``decode_body(binary(m)) ==
decode_body(json(m))`` for every JSON-safe ``m`` — so everything
downstream (``decode_node``, lease accounting, fault injection keyed
on frame type) is codec-oblivious.  The tag tables below are
append-only: new codes may be added, existing codes never renumbered.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
from typing import Any, Optional

__all__ = [
    "ProtocolError",
    "MAGIC",
    "WireCodec",
    "JSON_CODEC",
    "BINARY_CODEC",
    "CODECS",
    "get_codec",
    "offered_codecs",
    "negotiate",
    "decode_body",
]


class ProtocolError(Exception):
    """A malformed or oversized frame / message."""


# First byte of every binary body.  0xB1 is a UTF-8 continuation byte,
# which can never start valid UTF-8 text — so no JSON body collides.
MAGIC = 0xB1

# Frame-type codes: index into this tuple is the 1-byte type tag.
# Renumbering breaks mixed-version clusters: it takes a
# ``PROTOCOL_VERSION`` bump, so that HELLO refuses the other version.
FRAME_TYPES = (
    "HELLO", "WELCOME", "JOB", "TASK", "OFFCUT", "INCUMBENT", "RESULT",
    "RELEASE", "HEARTBEAT", "JOB_DONE", "RETIRE", "BYE", "ERROR",
    "STEAL", "STOLEN",
)
_TYPE_INDEX = {name: i for i, name in enumerate(FRAME_TYPES)}
_TYPE_ESCAPE = 0xFE  # unregistered type: escape byte + raw string

# Interned strings: field names, node tags and common string values get
# a 1-byte code on the wire (key position: the code itself; value
# position: T_KEY + code).  Append-only, at most 255 entries (0xFF is
# the raw-key escape).
_KEYS = (
    "type", "job", "task", "epoch", "node", "nodes", "depth", "value",
    "version", "name", "slots", "worker", "heartbeat", "factory",
    "factory_args", "stype_kind", "stype_kwargs", "budget", "share_poll",
    "best", "knowledge", "prunes", "backtracks", "max_depth", "goal",
    "tasks", "reason", "leases", "codec", "codecs",
    "json", "binary", "enumeration", "optimisation", "decision",
    "__tuple__", "__set__", "__frozenset__", "__pickle__",
    "coordination", "chunked", "d_cutoff", "bound",
    "stacksteal", "ordered",
    "blocks", "seqs", "more",
    "spawns", "pool",
)
_KEY_INDEX = {name: i for i, name in enumerate(_KEYS)}
_RAW_KEY = 0xFF
assert len(_KEYS) < _RAW_KEY

# Value tags.  Append-only.
T_NONE = 0x00
T_TRUE = 0x01
T_FALSE = 0x02
T_INT = 0x03      # zigzag LEB128 varint (arbitrary precision)
T_FLOAT = 0x04    # 8 bytes, network-order IEEE double
T_STR = 0x05      # varint byte length + UTF-8
T_KEY = 0x06      # 1-byte index into _KEYS (interned string value)
T_LIST = 0x07     # varint count + values
T_DICT = 0x08     # varint count + (key, value) pairs; string keys only
T_TUPLE = 0x09    # varint count + values -> {"__tuple__": [...]}
T_SET = 0x0A      # varint count + values -> {"__set__": [...]}
T_FSET = 0x0B     # varint count + values -> {"__frozenset__": [...]}
T_PICKLE = 0x0C   # varint byte length + raw pickle -> {"__pickle__": b64}

_TAG_CODES = {
    "__tuple__": T_TUPLE,
    "__set__": T_SET,
    "__frozenset__": T_FSET,
    "__pickle__": T_PICKLE,
}
_TAG_NAMES = {T_TUPLE: "__tuple__", T_SET: "__set__", T_FSET: "__frozenset__"}

_F8 = struct.Struct("!d")

# Bound on varint width: 700 bits covers any counter, seed or key this
# runtime ships while refusing the pathological all-continuation-bytes
# body that would otherwise build a multi-megabyte integer.
_MAX_VARINT_SHIFT = 700


# -- binary encoding ---------------------------------------------------------


def _append_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _append_uvarint(out, len(data))
    out += data


def _encode_key(out: bytearray, key: Any) -> None:
    if type(key) is not str:
        raise ProtocolError(
            f"binary codec requires string dict keys, got {type(key).__name__}"
        )
    code = _KEY_INDEX.get(key)
    if code is not None:
        out.append(code)
    else:
        out.append(_RAW_KEY)
        _append_str(out, key)


def _encode_dict(out: bytearray, value: dict) -> None:
    if len(value) == 1:
        # The node-tag shapes encode_node emits get dedicated tags; the
        # pickle tag additionally sheds its base64 armour (raw bytes on
        # the wire).  Anything shaped differently — including a
        # non-canonical base64 string, which would not round-trip —
        # falls through to the generic dict encoding.
        (key, inner), = value.items()
        code = _TAG_CODES.get(key)
        if code is not None:
            if code == T_PICKLE:
                if type(inner) is str:
                    try:
                        raw = base64.b64decode(inner, validate=True)
                    except binascii.Error:
                        raw = None
                    if raw is not None and base64.b64encode(raw).decode("ascii") == inner:
                        out.append(T_PICKLE)
                        _append_uvarint(out, len(raw))
                        out += raw
                        return
            elif type(inner) is list:
                out.append(code)
                _append_uvarint(out, len(inner))
                for item in inner:
                    _encode_value(out, item)
                return
    out.append(T_DICT)
    _append_uvarint(out, len(value))
    for key, item in value.items():
        _encode_key(out, key)
        _encode_value(out, item)


def _encode_value(out: bytearray, value: Any) -> None:
    tv = type(value)
    if tv is int:
        out.append(T_INT)
        _append_uvarint(
            out, (value << 1) if value >= 0 else ((-value << 1) - 1)
        )
    elif tv is str:
        code = _KEY_INDEX.get(value)
        if code is not None:
            out.append(T_KEY)
            out.append(code)
        else:
            out.append(T_STR)
            _append_str(out, value)
    elif tv is dict:
        _encode_dict(out, value)
    elif tv is list:
        out.append(T_LIST)
        _append_uvarint(out, len(value))
        for item in value:
            if type(item) is int and 0 <= item < 64:
                # A counter column of an ordered block is thousands of
                # these: two bytes, no call.
                out.append(T_INT)
                out.append(item << 1)
            else:
                _encode_value(out, item)
    elif value is None:
        out.append(T_NONE)
    elif tv is bool:
        out.append(T_TRUE if value else T_FALSE)
    elif tv is float:
        out.append(T_FLOAT)
        out += _F8.pack(value)
    elif isinstance(value, bool):  # bool subclasses, before int
        out.append(T_TRUE if value else T_FALSE)
    elif isinstance(value, int):  # IntEnum and friends
        out.append(T_INT)
        v = int(value)
        _append_uvarint(out, (v << 1) if v >= 0 else ((-v << 1) - 1))
    elif isinstance(value, float):
        out.append(T_FLOAT)
        out += _F8.pack(value)
    elif isinstance(value, str):
        out.append(T_STR)
        _append_str(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(T_LIST)
        _append_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        _encode_dict(out, value)
    else:
        raise ProtocolError(
            f"binary codec cannot encode {type(value).__name__} "
            "(wire messages carry JSON-safe values; run nodes through "
            "encode_node first)"
        )


def _binary_encode(msg: dict) -> bytes:
    if not isinstance(msg, dict):
        raise ProtocolError("a wire message must be a dict")
    mtype = msg.get("type")
    out = bytearray()
    out.append(MAGIC)
    code = _TYPE_INDEX.get(mtype)
    if code is not None:
        out.append(code)
    else:
        if not isinstance(mtype, str):
            raise ProtocolError("a wire message needs a string 'type'")
        out.append(_TYPE_ESCAPE)
        _append_str(out, mtype)
    _append_uvarint(out, len(msg) - 1)
    for key, value in msg.items():
        if key == "type":
            continue
        _encode_key(out, key)
        _encode_value(out, value)
    return bytes(out)


# -- binary decoding ---------------------------------------------------------


def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_VARINT_SHIFT:
            raise ProtocolError("varint exceeds the supported width")


def _read_str(buf: bytes, pos: int) -> tuple[str, int]:
    length, pos = _read_uvarint(buf, pos)
    if length > len(buf) - pos:
        raise ProtocolError("string length exceeds the frame")
    end = pos + length
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in binary frame: {exc}") from None


def _read_key(buf: bytes, pos: int) -> tuple[str, int]:
    code = buf[pos]
    pos += 1
    if code == _RAW_KEY:
        return _read_str(buf, pos)
    if code < len(_KEYS):
        return _KEYS[code], pos
    raise ProtocolError(f"unknown interned-key code 0x{code:02x}")


def _decode_value(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == T_INT:
        u, pos = _read_uvarint(buf, pos)
        return ((u >> 1) if not u & 1 else -((u + 1) >> 1)), pos
    if tag == T_KEY:
        code = buf[pos]
        if code >= len(_KEYS):
            raise ProtocolError(f"unknown interned-key code 0x{code:02x}")
        return _KEYS[code], pos + 1
    if tag == T_STR:
        return _read_str(buf, pos)
    if tag == T_LIST:
        count, pos = _read_uvarint(buf, pos)
        if count > len(buf) - pos:
            raise ProtocolError("collection count exceeds the frame")
        items = []
        append = items.append
        for _ in range(count):
            if buf[pos] == T_INT and not (byte := buf[pos + 1]) & 0x81:
                append(byte >> 1)  # a one-byte non-negative int, inline
                pos += 2
            else:
                item, pos = _decode_value(buf, pos)
                append(item)
        return items, pos
    if tag == T_DICT:
        count, pos = _read_uvarint(buf, pos)
        if count > len(buf) - pos:
            raise ProtocolError("collection count exceeds the frame")
        result: dict = {}
        for _ in range(count):
            key, pos = _read_key(buf, pos)
            result[key], pos = _decode_value(buf, pos)
        return result, pos
    if tag in _TAG_NAMES:
        count, pos = _read_uvarint(buf, pos)
        if count > len(buf) - pos:
            raise ProtocolError("collection count exceeds the frame")
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            append(item)
        return {_TAG_NAMES[tag]: items}, pos
    if tag == T_PICKLE:
        length, pos = _read_uvarint(buf, pos)
        if length > len(buf) - pos:
            raise ProtocolError("pickle length exceeds the frame")
        end = pos + length
        b64 = base64.b64encode(buf[pos:end]).decode("ascii")
        return {"__pickle__": b64}, end
    if tag == T_NONE:
        return None, pos
    if tag == T_TRUE:
        return True, pos
    if tag == T_FALSE:
        return False, pos
    if tag == T_FLOAT:
        if len(buf) - pos < 8:
            raise ProtocolError("truncated float in binary frame")
        return _F8.unpack_from(buf, pos)[0], pos + 8
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def _binary_decode(body: bytes) -> dict:
    try:
        code = body[1]
        pos = 2
        if code == _TYPE_ESCAPE:
            mtype, pos = _read_str(body, pos)
        elif code < len(FRAME_TYPES):
            mtype = FRAME_TYPES[code]
        else:
            raise ProtocolError(f"unknown frame-type code 0x{code:02x}")
        count, pos = _read_uvarint(body, pos)
        if count > len(body) - pos:
            raise ProtocolError("field count exceeds the frame")
        msg = {"type": mtype}
        for _ in range(count):
            key, pos = _read_key(body, pos)
            msg[key], pos = _decode_value(body, pos)
    except IndexError:
        raise ProtocolError("truncated binary frame") from None
    if pos != len(body):
        raise ProtocolError(
            f"{len(body) - pos} trailing byte(s) after binary frame"
        )
    return msg


# -- the codec objects -------------------------------------------------------


def decode_body(body: bytes) -> dict:
    """Decode one frame body, auto-detecting the codec by its first
    byte.  Raises :class:`ProtocolError` on anything malformed."""
    if not body:
        raise ProtocolError("empty frame body")
    try:
        if body[0] == MAGIC:
            return _binary_decode(body)
        msg = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    except RecursionError:
        # Both decoders recurse per level: a few kilobytes of nesting
        # exhaust the interpreter's stack.
        raise ProtocolError("frame nests too deeply") from None
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError("frame is not a message object with a 'type'")
    return msg


class WireCodec:
    """One body format: ``encode`` is format-specific, ``decode`` is the
    shared auto-detecting reader (see the module docstring)."""

    name: str = "?"

    def encode(self, msg: dict) -> bytes:
        """Serialise one message dict to a frame body."""
        raise NotImplementedError

    @staticmethod
    def decode(body: bytes) -> dict:
        """Decode one frame body (delegates to :func:`decode_body`)."""
        return decode_body(body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WireCodec {self.name}>"


class JsonWireCodec(WireCodec):
    name = "json"

    def encode(self, msg: dict) -> bytes:
        """Serialise to compact UTF-8 JSON (the v1 wire format)."""
        return json.dumps(msg, separators=(",", ":")).encode("utf-8")


class BinaryWireCodec(WireCodec):
    name = "binary"

    def encode(self, msg: dict) -> bytes:
        """Serialise to the struct-packed binary format (v2)."""
        return _binary_encode(msg)


JSON_CODEC = JsonWireCodec()
BINARY_CODEC = BinaryWireCodec()
CODECS: dict[str, WireCodec] = {"json": JSON_CODEC, "binary": BINARY_CODEC}
CODEC_NAMES = tuple(CODECS)


def get_codec(name: str) -> WireCodec:
    """The codec registered under ``name`` (ProtocolError if unknown)."""
    try:
        return CODECS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown wire codec {name!r}; expected one of {CODEC_NAMES}"
        ) from None


def offered_codecs(preferred: str = "binary") -> list[str]:
    """The ``codecs`` list a worker puts in its HELLO, preferred first.

    ``preferred="json"`` offers JSON *only* — the switch a deliberately
    down-level worker (or an operator debugging with tcpdump) uses to
    veto the binary format for its own connection.
    """
    get_codec(preferred)  # validate
    if preferred == "json":
        return ["json"]
    return [preferred] + [n for n in CODEC_NAMES if n != preferred]


def negotiate(offered: Optional[list], preferred: str = "binary") -> str:
    """Pick the codec for one connection from a HELLO's ``codecs``.

    The coordinator's ``preferred`` wins if the worker offered it; else
    the worker's first offer this side knows; else JSON — which is also
    what a v1 HELLO (no ``codecs`` field at all) negotiates, keeping
    old JSON peers talking to a new coordinator.
    """
    names = [n for n in (offered or ()) if isinstance(n, str)]
    if not names:
        return "json"
    if preferred in names and preferred in CODECS:
        return preferred
    for name in names:
        if name in CODECS:
            return name
    return "json"
