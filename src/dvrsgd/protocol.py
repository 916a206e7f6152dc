"""Message vocabulary and wire format for scheduler, server, and workers.

Every message encodes to one self-delimiting frame: a fixed-width head and at
most one trailing vector,

    [u32 body length][u8 tag][fixed-width fields][pad][u64 count][count * f64]

little-endian throughout, with IEEE-754 binary64 floats.  The message table
below (``TaskAssign = _message(1, ...)`` and so on) is the one description of
each frame: its tag and its ``name:kind`` fields in constructor order.  The
fixed-width fields go on the wire in that order and the vector, if any,
follows them.  The four field kinds are

    u32   unsigned 32-bit integer
    f64   binary64 float
    task  task id: ``u64 timestamp`` + ``u8 kind`` (0 update, 1 evaluation)
    vec   ``u64 count`` followed by the raw float64 values, so real payloads
          survive the wire bit-exactly

A message with a vector has zero pad bytes (0 to 7) before its count, as many
as put the vector's first value at a multiple of 8 in the frame; ``decode``
rejects a nonzero pad byte.  ``_message`` compiles each table entry once, at
import, into one ``struct.Struct`` for the head and a generated encode and
decode, so a frame costs one ``pack`` (plus the vector's bytes) or one
``unpack_from`` (plus one ``np.frombuffer`` view); equality and repr walk the
table.  Messages are immutable values; handlers never mutate a received
payload, and ``decode`` enforces it: a decoded vector is a read-only, 8-byte
aligned view over the frame's bytes.  An ``UpdatePush`` carries ``delta``
alone: the server forms w_bar itself.

Over TCP every stream opens with one HELLO frame from the end that dialed
it, which is outside the message table and never passes through
``encode``/``decode``: tag 0, then the dialer's endpoint name in UTF-8
(``hello`` and ``read_hello``).  The accepting end sends no HELLO: it answers
on the same stream.
"""

import struct
from dataclasses import make_dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

__all__ = [
    "TaskKind", "TaskId", "update_stage", "eval_stage", "TaskAssign", "PullRequest",
    "PullResponse", "UpdatePush", "EvalPush", "Stop", "SnapshotBroadcast",
    "Message", "DecodeError", "encode", "decode", "FRAME_HEAD", "hello", "read_hello",
]


class DecodeError(Exception):
    """Raised for truncated frames, bad tags, bad task ids, nonzero pad bytes, or
    trailing bytes."""


class TaskKind(IntEnum):
    UPDATE = 0
    EVALUATION = 1


class TaskId(NamedTuple):
    """A task: timestamps start at 1, which ``decode`` checks on the wire."""

    timestamp: int
    kind: TaskKind


def update_stage(task: TaskId, m: int) -> int:
    """Stage s of an update task: timestamps (s-1)*m+1 .. s*m."""
    return (task.timestamp - 1) // m + 1


def eval_stage(task: TaskId, m: int) -> int:
    """Stage s of an evaluation task: timestamp s*m + 1."""
    return (task.timestamp - 1) // m


FRAME_HEAD = struct.Struct("<I")  # every frame's header: the body length
_CODES = {"u32": "I", "f64": "d", "task": "QB"}  # struct codes of the fixed-width kinds
_F8 = np.dtype("<f8")  # every vector's wire type, parsed once


def _check_length(buf):
    """Raise unless the frame's u32 header gives its body length."""
    (body_len,) = FRAME_HEAD.unpack_from(buf)
    if body_len != len(buf) - 4:
        raise DecodeError(f"frame length mismatch: header says {body_len}, got {len(buf) - 4}")


class _Message:
    """Equality and repr shared by every message, driven by ``_wire``."""

    __slots__ = ()
    _tag = 0    # set per message by _message
    _wire = ()  # (field name, kind), in wire order

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) if kind == "vec"
                   else getattr(self, name) == getattr(other, name)
                   for name, kind in self._wire)

    def __repr__(self):
        shown = (f"{name}=<{len(getattr(self, name))}>" if kind == "vec"
                 else f"{name}={getattr(self, name)!r}" for name, kind in self._wire)
        return f"{type(self).__name__}({', '.join(shown)})"


_BY_TAG: dict = {}


def _message(tag: int, name: str, spec: str = ""):
    """A message class for ``tag`` whose fields are the ``name:kind`` words of
    ``spec`` in constructor order.  On the wire the fixed-width fields keep
    that order and the one vector, if any, comes last."""
    fields = [tuple(word.split(":")) for word in spec.split()]
    wire = tuple(sorted(fields, key=lambda f: f[1] == "vec"))  # stable: the vector last
    assert [kind for _, kind in wire].count("vec") <= 1, f"{name}: more than one vector"
    cls = make_dataclass(name, fields, bases=(_Message,), eq=False, repr=False, slots=True,
                         namespace={"__module__": __name__, "_tag": tag, "_wire": wire})
    cls._encode, cls._decode = _compile(cls, [f for f, _ in fields])
    _BY_TAG[tag] = cls
    return cls


def _compile(cls, order):
    """The encode method and decode function of message ``cls``, whose
    constructor takes its fields in ``order``, generated from its ``_wire``
    table the way ``dataclasses`` generates ``__init__``.

    The frame's head, ``<IB``, the fixed-width fields, and for a message with
    a vector the zero pad bytes and the u64 count, is one ``struct.Struct``,
    so each frame costs one ``pack`` or one ``unpack_from``.  The pad puts the
    vector's first byte at a multiple of 8 in the frame, so a decoded vector
    is an aligned view."""
    fixed = [(f, kind) for f, kind in cls._wire if kind != "vec"]
    vec = next((f for f, kind in cls._wire if kind == "vec"), None)
    fmt = "<IB" + "".join(_CODES[kind] for _, kind in fixed)
    pad = -(struct.calcsize(fmt) + 8) % 8 if vec else 0
    head = struct.Struct(fmt + f"{pad}s" * bool(pad) + "Q" * bool(vec))
    size = head.size

    # what encode packs, what decode unpacks and checks, and the value that
    # decode passes to the constructor for each field
    packed, unpacked, checks, value = [str(size - 4), str(cls._tag)], ["body", "_"], [], {}
    for f, kind in fixed:
        if kind == "task":
            packed += [f"self.{f}.timestamp", f"self.{f}.kind"]
            unpacked += [f"{f}_ts", f"{f}_kind"]
            checks += [f"if {f}_kind > 1: raise DecodeError(f'invalid task kind {{{f}_kind}}')",
                       f"if {f}_ts < 1: raise DecodeError('task timestamp must be >= 1')"]
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            value[f] = f"new_task(TaskId, ({f}_ts, TASK_KINDS[{f}_kind]))"
        else:
            packed.append(f"self.{f}")
            unpacked.append(f)
            value[f] = f
    encode, sized, end = [], [], str(size)
    if vec:
        packed[0] += " + 8 * len(v)"
        packed += ['b""'] * bool(pad) + ["len(v)"]
        unpacked += ["pad"] * bool(pad) + ["n"]
        sized += ["if pad != PAD: raise DecodeError('nonzero pad byte')"] * bool(pad)
        value[vec] = f"np.frombuffer(buf, F8, n, {size})"
        end += " + 8 * n"
        encode.append(f"v = np.ascontiguousarray(self.{vec}, F8)")
    encode.append(f"return head.pack({', '.join(packed)})" + " + v.tobytes()" * bool(vec))
    # a good frame costs one comparison per size; a bad one runs the checks
    # that its error must come after, so each error is reported in turn
    exceeds = (f"if n > (len(buf) - {size}) // 8: "
               "raise DecodeError('vector length exceeds frame')") if vec else "pass"
    decode = [f"if len(buf) < {size}: check_length(buf); raise DecodeError('truncated frame')",
              f"{', '.join(unpacked)} = head.unpack_from(buf)",
              "if body != len(buf) - 4: check_length(buf)",
              *sized,
              f"if len(buf) != {end}:",
              f"    {exceeds}",
              "    raise DecodeError('trailing bytes after message payload')",
              *checks,
              f"return cls({', '.join(value[f] for f in order)})"]
    source = "\n    ".join(["def encode(self):", *encode]) + "\n" + \
        "\n    ".join(["def decode(buf):", *decode])
    scope = {"head": head, "cls": cls, "np": np, "DecodeError": DecodeError, "TaskId": TaskId,
             "TASK_KINDS": tuple(TaskKind), "PAD": bytes(pad), "F8": _F8,
             "new_task": tuple.__new__, "check_length": _check_length}
    exec(source, scope)
    return scope["encode"], staticmethod(scope["decode"])


TaskAssign = _message(1, "TaskAssign", "task:task")
PullRequest = _message(2, "PullRequest", "worker:u32 task:task")
PullResponse = _message(3, "PullResponse", "task:task w:vec")
UpdatePush = _message(4, "UpdatePush", "worker:u32 task:task delta:vec")
EvalPush = _message(5, "EvalPush", "worker:u32 local_grad:vec local_obj_sum:f64 "
                    "comp_time:f64 comm_time:f64")
Stop = _message(6, "Stop")
SnapshotBroadcast = _message(7, "SnapshotBroadcast", "grad:vec")

Message = tuple(_BY_TAG.values())
_MESSAGES = frozenset(Message)


def encode(msg) -> bytes:
    """Serialize a message into one length-prefixed frame."""
    if type(msg) not in _MESSAGES:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    return msg._encode()


def decode(buf: bytes):
    """Parse one complete frame back into a message.

    Raises DecodeError on truncation, trailing bytes, an unknown tag, a bad
    task id, a nonzero pad byte, or a vector longer than the frame.  Vectors
    are 8-byte aligned views over ``buf``, read-only when ``buf`` is
    ``bytes``.
    """
    if len(buf) < 5:
        raise DecodeError("frame too short")
    cls = _BY_TAG.get(buf[4])
    if cls is None:
        _check_length(buf)  # a length mismatch is the first error to report
        raise DecodeError(f"unknown message tag {buf[4]}")
    return cls._decode(buf)  # which checks the header's length


def hello(name: str) -> bytes:
    """The HELLO frame that opens a stream dialed by endpoint ``name``."""
    body = name.encode("utf-8")
    return FRAME_HEAD.pack(len(body) + 1) + b"\x00" + body


def read_hello(frame: bytes) -> str:
    """The dialer's endpoint name from an accepted stream's first frame,
    which must be a HELLO."""
    if frame[4:5] != b"\x00":
        raise DecodeError("stream does not open with a HELLO frame")
    return frame[5:].decode("utf-8")
