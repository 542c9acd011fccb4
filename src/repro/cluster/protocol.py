"""The cluster wire protocol: framing, messages, and payload codecs.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of *body*.  Two body formats exist, both
encoding one object with a ``"type"`` field:

- **json** (the handshake and debugging format): UTF-8 JSON.  Human-readable on the wire (``tcpdump`` shows readable
  traffic), with message boundaries explicit from the length prefix —
  no sentinel scanning, no partial-line ambiguity.
- **binary** (the default): the struct-packed format in
  :mod:`repro.cluster.codec` — 1-byte type tag, varint ints,
  length-prefixed UTF-8 strings, dedicated tags for the node shapes
  :func:`encode_node` emits (the pickle fallback travels as raw bytes
  instead of base64).  Decoding auto-detects the format from the first
  body byte, so a connection can carry a mix; *encoding* follows the
  codec negotiated per connection in HELLO/WELCOME (the worker offers
  ``codecs`` in its HELLO, the coordinator answers with ``codec`` in
  the WELCOME; both handshake frames always travel as JSON, and a
  peer that offers nothing negotiates JSON).

Message types
-------------

========== =========== ====================================================
type       direction   meaning
========== =========== ====================================================
HELLO      w -> c      join the cluster (protocol version, name, codecs)
WELCOME    c -> w      assigned worker id + heartbeat interval + codec
JOB        c -> w      search definition: spec factory, search type, knobs
TASK       c -> w      lease subtrees: up to ``slots`` ``[id, epoch, [node,
                       ...], depth]`` entries — sibling roots at one
                       depth, one hand-over — batched in one ``leases``
                       list; a run job's entries are *runs*, ``[id, epoch,
                       stretches, bound]`` (see *Runs*)
OFFCUT     w -> c      unsolicited hand-over: the unstarted subtrees of a
                       retiring worker's pool, one frame per depth (one
                       naming a run, as a STOLEN, is a ProtocolError)
STEAL      c -> w      an idle worker needs work: give some away.  Budget
                       and stacksteal answer with a STOLEN frame; ordered
                       and depthbounded never split a lease, and answer at
                       once with a RELEASE of the leases still queued
                       (empty if the one queued was started meanwhile)
STOLEN     w -> c      steal answer: every other node of the shallowest
                       level of the worker's pool (a lone node whole).
                       Budget never answers empty (an unservable request
                       waits, or dies with the lease's RESULT); stacksteal
                       splits its live stack into an empty pool first, and
                       answers empty when that has nothing to give
INCUMBENT  both        a strictly better bound value (broadcast downstream)
RESULT     w -> c      a lease finished: counters + local best.  A lease
                       is its roots and every subtree its holder ran from
                       its own pool; ``spawns`` is how many subtrees it
                       split off its stacks, wherever they then ran.  For
                       an ordered run, ``blocks``: columns of counters per
                       stretch of the run, with ``more`` set on an early
                       flush that leaves the lease live
RELEASE    w -> c      unstarted leases returned for re-lease: a retire
                       handback, or an ordered or depthbounded STEAL answer
HEARTBEAT  w -> c      liveness (any frame also refreshes the deadline, so
                       workers suppress it while other traffic flows), and
                       ``pool``: the subtrees in the worker's own pool
JOB_DONE   c -> w      job over (result known / cancelled): drop its state
RETIRE     c -> w      leave (scale-down, or the coordinator closing): hand
                       the pool back (OFFCUT), finish the subtree in hand,
                       RELEASE the leases not started, say BYE, exit for
                       good (no new leases arrive, never reconnect)
BYE        w -> c      orderly goodbye; the connection closes after it
ERROR      both        c -> w: protocol violation report before disconnect;
                       w -> c, with ``job``: this worker cannot run that job
                       correctly (it cannot build it, a lease raised, a
                       lease names a child or a child count its tree
                       lacks), so fail it
========== =========== ====================================================

A retiring worker hands the leases it holds but has not *started* back
in a ``RELEASE`` frame (``tasks: [[id, epoch], ...]``) so the
coordinator can re-lease them under a bumped epoch — the same epoch
machinery that recovers a crashed worker's leases, but initiated
cooperatively, before any partial state exists.  That makes retirement
safe even for enumeration jobs, where losing a *started* task is fatal:
the task in flight runs to its RESULT, and everything else was never
touched.  An ordered or depthbounded holder answers a STEAL the same
way, with what sits in its prefetch slot, so its late report on it is
stale.

Runs
----

An ordered or depthbounded job ships no nodes to its workers: a run
names its tasks by their parent's child-index path, ``[seq, path,
children, index, count]`` per stretch (:func:`pack_run`), which a
worker replays from the root.  A depthbounded run is answered by one
plain RESULT, an ordered run's ``blocks`` entry (:func:`pack_block`) is ``{seqs,
bound, nodes, prunes, backtracks, max_depth}`` — ``seqs`` flat
``[first, count, ...]`` stretches (:func:`pack_seqs`), the counters as
lists, one int per task, all run from ``bound`` — plus ``knowledge`` (a
list) for enumeration, and ``value`` / ``node`` / ``goal`` for the
block's last task when that task improved the bound.

Node transport
--------------

Search-tree nodes are application-defined Python objects (slotted
dataclasses, plain ``__slots__`` classes …), so pure JSON cannot carry
them.  :func:`encode_node` keeps JSON-native values readable on the
wire (ints, strings, lists; tuples and sets via the same tags the
result serialiser uses) and falls back to a tagged base64 pickle for
anything richer.  Cluster peers are *trusted by construction* — they
run the same code base on machines you control, exactly like the
multiprocessing backend's queue (which pickles everything); do not
expose a coordinator port to untrusted networks.

Spec transport stays pickling-free: a spec travels as the dotted path
of a top-level factory plus plain arguments (the same factories the
multiprocessing backend uses), and each worker rebuilds the spec
locally — instances are deterministic, so every node constructs the
identical search space.
"""

from __future__ import annotations

import base64
import importlib
import pickle
import socket
import struct
import threading
from typing import Any, Callable, Optional, Union

from repro.runtime.worker import JOB_KNOBS, WorkerJob, make_stype

from .codec import (
    BINARY_CODEC,
    CODECS,
    JSON_CODEC,
    ProtocolError,
    WireCodec,
    decode_body,
    get_codec,
    negotiate,
    offered_codecs,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "WireCodec",
    "JSON_CODEC",
    "BINARY_CODEC",
    "CODECS",
    "get_codec",
    "offered_codecs",
    "negotiate",
    "decode_body",
    "frame_bytes",
    "read_frame",
    "recv_exact",
    "encode_node",
    "decode_node",
    "pack_seqs",
    "unpack_seqs",
    "pack_run",
    "unpack_run",
    "pack_block",
    "unpack_block",
    "factory_path",
    "resolve_factory",
    "decode_job",
    "HELLO",
    "WELCOME",
    "JOB",
    "TASK",
    "OFFCUT",
    "STEAL",
    "STOLEN",
    "INCUMBENT",
    "RESULT",
    "RELEASE",
    "HEARTBEAT",
    "JOB_DONE",
    "RETIRE",
    "BYE",
    "ERROR",
]

# The one version both sides speak: coordination-aware JOBs, batched
# TASK leases of several roots each (or runs of tasks named by path,
# an ordered one answered in column blocks), STEAL/STOLEN, a STEAL on a
# run job answered with RELEASE, codec negotiation, and RETIRE as the
# one way a worker is sent away.  A HELLO with any other version is
# refused.
PROTOCOL_VERSION = 9

# One frame must hold a message-sized payload (a task node, an offcut
# batch), never a bulk transfer; anything bigger than this is a protocol
# violation, not data.
MAX_FRAME = 64 * 1024 * 1024

HELLO = "HELLO"
WELCOME = "WELCOME"
JOB = "JOB"
TASK = "TASK"
OFFCUT = "OFFCUT"
STEAL = "STEAL"
STOLEN = "STOLEN"
INCUMBENT = "INCUMBENT"
RESULT = "RESULT"
RELEASE = "RELEASE"
HEARTBEAT = "HEARTBEAT"
JOB_DONE = "JOB_DONE"
RETIRE = "RETIRE"
BYE = "BYE"
ERROR = "ERROR"


# -- framing -----------------------------------------------------------------

_LEN = struct.Struct("!I")

CodecLike = Union[WireCodec, str, None]


def _resolve_codec(codec: CodecLike) -> WireCodec:
    if codec is None:
        return JSON_CODEC
    if isinstance(codec, str):
        return get_codec(codec)
    return codec


def frame_bytes(msg: dict, codec: CodecLike = None) -> bytes:
    """Serialise one message dict into a length-prefixed frame.

    ``codec`` is a :class:`~repro.cluster.codec.WireCodec`, a codec
    name, or None for the JSON default — callers pass whatever was
    negotiated for their connection.
    """
    body = _resolve_codec(codec).encode(msg)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


# recv_exact reuses one growable receive buffer per thread (each
# receiver thread owns its socket, so thread-local is the natural
# scope): no per-frame chunk list, no b"".join.  Buffers above the cap
# — a rare near-MAX_FRAME message — are not retained.
_RECV_BUF_CAP = 1 << 20
_recv_local = threading.local()


def recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes from a blocking socket.

    Returns None on a clean EOF *before any byte*; raises
    ``ConnectionError`` on EOF mid-message (a torn frame is a failure,
    an empty read between frames is a normal close).
    """
    buf = getattr(_recv_local, "buf", None)
    if buf is None or len(buf) < n:
        buf = bytearray(max(n, 4096))
        if len(buf) <= _RECV_BUF_CAP:
            _recv_local.buf = buf
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:n])
        if not read:
            if got == 0:
                return None
            raise ConnectionError("connection closed mid-frame")
        got += read
    return bytes(view[:n])


def read_frame(sock: socket.socket, codec: CodecLike = None) -> Optional[dict]:
    """Read one framed message from a blocking socket (None on clean EOF).

    ``codec`` is accepted for symmetry with :func:`frame_bytes`, but
    decoding always auto-detects the body format from its first byte
    (see :func:`~repro.cluster.codec.decode_body`), so mixed-codec
    traffic — e.g. a JSON HELLO on an otherwise binary connection —
    just works.
    """
    header = recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"peer announced a {length}-byte frame")
    body = recv_exact(sock, length)
    if body is None:
        raise ConnectionError("connection closed mid-frame")
    return decode_body(body)


# -- node payload codec ------------------------------------------------------

_TUPLE_TAG = "__tuple__"
_SET_TAG = "__set__"
_FROZENSET_TAG = "__frozenset__"
_PICKLE_TAG = "__pickle__"
_TAGS = (_TUPLE_TAG, _SET_TAG, _FROZENSET_TAG, _PICKLE_TAG)


def encode_node(value: Any) -> Any:
    """Encode an arbitrary search node into a JSON-safe structure.

    JSON primitives, lists and string-keyed dicts pass through
    structurally; tuples/sets/frozensets are tagged so they round-trip
    *exactly* (unlike the lossy result serialiser, task transport must
    reconstruct the identical object).  Anything else — application
    node classes, tuple subclasses such as NamedTuples included —
    becomes a tagged base64 pickle (trusted peers only; see the module
    docstring).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if type(value) is tuple:
        return {_TUPLE_TAG: [encode_node(v) for v in value]}
    if isinstance(value, list):
        return [encode_node(v) for v in value]
    if isinstance(value, (set, frozenset)):
        tag = _FROZENSET_TAG if isinstance(value, frozenset) else _SET_TAG
        try:
            ordered = sorted(value)
        except TypeError:
            ordered = sorted(value, key=repr)
        return {tag: [encode_node(v) for v in ordered]}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and not any(
            t in value for t in _TAGS
        ):
            return {k: encode_node(v) for k, v in value.items()}
    return {_PICKLE_TAG: base64.b64encode(pickle.dumps(value)).decode("ascii")}


def decode_node(value: Any) -> Any:
    """Inverse of :func:`encode_node` (exact round trip).  A tag whose
    payload does not decode — a tuple of an int, a pickle of garbage —
    is a :class:`ProtocolError`."""
    try:
        return _decode_node(value)
    except Exception as exc:
        raise ProtocolError(f"undecodable node: {type(exc).__name__}: {exc}") from None


def _decode_node(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_node(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if _TUPLE_TAG in value:
                return tuple(_decode_node(v) for v in value[_TUPLE_TAG])
            if _SET_TAG in value:
                return set(_decode_node(v) for v in value[_SET_TAG])
            if _FROZENSET_TAG in value:
                return frozenset(_decode_node(v) for v in value[_FROZENSET_TAG])
            if _PICKLE_TAG in value:
                return pickle.loads(base64.b64decode(value[_PICKLE_TAG]))
        return {k: _decode_node(v) for k, v in value.items()}
    return value


# -- runs: stretches by path, sequence numbers and column blocks -------------

_COUNTERS = ("nodes", "prunes", "backtracks", "max_depth")


def _ints(items: Any, length: Optional[int] = None) -> bool:
    """Is ``items`` a list of ints proper (no bools), ``length`` long?"""
    return (
        isinstance(items, list)
        and (length is None or len(items) == length)
        and set(map(type, items)) <= {int}
    )


def pack_seqs(seqs: Any) -> list:
    """Ascending sequence numbers as flat ``[first, count, ...]``
    stretches (a ``range`` is one stretch)."""
    if isinstance(seqs, range):
        return [seqs.start, len(seqs)] if seqs else []
    out: list = []
    for seq in seqs:
        if out and seq == out[-2] + out[-1]:
            out[-1] += 1
        else:
            out += [seq, 1]
    return out


def unpack_seqs(wire: Any, of: Any) -> Any:
    """Inverse of :func:`pack_seqs`: a ``range`` for one stretch, a list
    for several.  Anything but strictly ascending stretches of the
    positions ``0 .. of - 1`` is a :class:`ProtocolError`."""
    if not _ints(wire) or not wire or len(wire) % 2 or type(of) is not int:
        raise ProtocolError("sequence numbers must be [first, count, ...] ints")
    stretches = []
    floor = 0
    for first, count in zip(wire[::2], wire[1::2]):
        if first < floor or count < 1 or first + count > of:
            raise ProtocolError(f"sequence-number stretches must ascend below {of}")
        floor = first + count
        stretches.append(range(first, floor))
    if len(stretches) == 1:
        return stretches[0]
    return [seq for stretch in stretches for seq in stretch]


def pack_run(stretches: Any) -> list:
    """A run's :meth:`~repro.core.ordered.FrontierTasks.stretches` for
    the wire: ``[seq, path, children, index, count]`` each."""
    return [[seq, list(path), *rest] for seq, path, *rest in stretches]


def unpack_run(wire: Any, d_cutoff: int) -> list:
    """Inverse of :func:`pack_run` for a job cut at ``d_cutoff``:
    non-empty stretches of non-negative ints ascending by ``seq``, each
    path ``d_cutoff - 1`` long, or a :class:`ProtocolError`.  Whether an
    index names a child is the tree's to say, when the run executes."""
    if not isinstance(wire, list) or not wire:
        raise ProtocolError("a run is a list of stretches")
    stretches: list = []
    floor = 0
    for stretch in wire:
        if not (isinstance(stretch, list) and len(stretch) == 5 and isinstance(stretch[1], list)):
            raise ProtocolError("a stretch is [seq, path, children, index, count]")
        seq, path, children, index, count = stretch
        ints = [seq, children, index, count, *path]
        if not (
            _ints(ints) and min(ints) >= 0 and len(path) == d_cutoff - 1
            and floor <= seq < seq + count
        ):
            raise ProtocolError(
                f"stretches are non-negative ints, non-empty and ascending, "
                f"each path {d_cutoff - 1} long"
            )
        floor = seq + count
        stretches.append([seq, tuple(path), children, index, count])
    return stretches


def pack_block(block: dict) -> dict:
    """One :func:`~repro.core.ordered.execute_run` block for the wire:
    its ``seqs`` packed, its witness (if any) node-encoded."""
    out = dict(block, seqs=pack_seqs(block["seqs"]))
    if out.get("node") is not None:
        out["node"] = encode_node(out["node"])
    return out


def unpack_block(wire: Any, enum: bool, of: int) -> dict:
    """Inverse of :func:`pack_block`, checked: ``seqs`` of a frontier of
    ``of`` tasks, every column a list of ints as long as ``seqs``, an
    int ``bound`` and an int-or-absent ``value`` unless ``enum``.
    :class:`ProtocolError` otherwise."""
    if not isinstance(wire, dict):
        raise ProtocolError("a block must be an object")
    seqs = unpack_seqs(wire.get("seqs"), of)
    block: dict = {"seqs": seqs, "bound": None}
    for name in _COUNTERS:
        block[name] = column = wire.get(name)
        if not _ints(column, len(seqs)):
            raise ProtocolError(f"block column {name!r} does not match its seqs")
    if enum:
        knowledge = wire.get("knowledge")
        if not isinstance(knowledge, list) or len(knowledge) != len(seqs):
            raise ProtocolError("block column 'knowledge' does not match its seqs")
        block["knowledge"] = knowledge
        return block
    bound, value = wire.get("bound"), wire.get("value")
    if type(bound) is not int or not (value is None or type(value) is int):
        raise ProtocolError("a block needs an int bound and an int or no value")
    block.update(
        bound=bound, value=value,
        node=decode_node(wire.get("node")), goal=bool(wire.get("goal")),
    )
    return block


# -- spec transport ----------------------------------------------------------


def factory_path(fn: Callable) -> str:
    """``module:qualname`` form of a top-level factory, for the wire."""
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", None))
    module = getattr(fn, "__module__", None)
    if not name or not module or "." in name or "<" in name:
        raise ValueError(
            f"spec factory {fn!r} must be a top-level named function so "
            "worker nodes can import it by dotted path"
        )
    return f"{module}:{name}"


def resolve_factory(path: str) -> Callable:
    """Import a factory from its ``module:qualname`` wire form."""
    if ":" not in path:
        raise ProtocolError(f"malformed factory path {path!r}")
    module_name, attr = path.split(":", 1)
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ProtocolError(f"cannot resolve factory {path!r}: {exc}") from None
    if not callable(fn):
        raise ProtocolError(f"factory {path!r} is not callable")
    return fn


def decode_job(job_id: int, payload: dict, specs: Any) -> WorkerJob:
    """The job a JOB frame or job payload describes, numbered
    ``job_id``: its spec from ``specs`` (a
    :class:`~repro.runtime.worker.SpecCache`) while it names a recent
    job's factory and wire arguments, its search type rebuilt by name,
    its knobs checked (a ValueError below 1)."""
    key = (payload["factory"], payload.get("factory_args") or [])
    return WorkerJob(
        job_id,
        specs.get(key, lambda: resolve_factory(key[0])(*decode_node(key[1]))),
        make_stype(payload["stype_kind"], dict(payload.get("stype_kwargs") or {})),
        str(payload.get("coordination") or "budget"),
        **{knob: payload[knob] for knob in JOB_KNOBS if knob in payload},
    )
