"""Message vocabulary and wire format for scheduler, server, and workers.

Every message encodes to one self-delimiting frame:

    [u32 body length][u8 tag][payload ...]

with little-endian fixed-width integers and IEEE-754 binary64 floats
throughout.  The message table below (``TaskAssign = _message(1, ...)`` and so
on) is the one description of each frame: its tag and its ``name:kind``
fields in wire order.  The four field kinds are

    u32   unsigned 32-bit integer
    f64   binary64 float
    task  task id: ``u64 timestamp`` + ``u8 kind`` (0 update, 1 evaluation)
    vec   ``u64 count`` followed by the raw float64 values, so real payloads
          survive the wire bit-exactly

``encode``, ``decode``, equality and repr all walk that table.  Messages are
immutable values; handlers never mutate a received payload.
"""

import struct
from dataclasses import dataclass, field, make_dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "TaskKind", "TaskId", "TaskAssign", "PullRequest", "PullResponse",
    "UpdatePush", "EvalPush", "Stop", "SnapshotBroadcast",
    "Message", "DecodeError", "encode", "decode",
]


class DecodeError(Exception):
    """Raised for truncated frames, bad tags, bad task ids, or trailing bytes."""


class TaskKind(IntEnum):
    UPDATE = 0
    EVALUATION = 1


@dataclass(frozen=True)
class TaskId:
    timestamp: int
    kind: TaskKind

    def __post_init__(self):
        if self.timestamp < 1:
            raise ValueError("task timestamps start at 1")


_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_TASK = struct.Struct("<QB")


def _pack_vec(out: bytearray, v: np.ndarray):
    v = np.ascontiguousarray(v, dtype=np.float64)
    out += _U64.pack(v.shape[0])
    out += v.tobytes()


def _read_task(buf: bytes, pos: int):
    ts, kind = _TASK.unpack_from(buf, pos)
    if kind not in (0, 1):
        raise DecodeError(f"invalid task kind {kind}")
    if ts < 1:
        raise DecodeError("task timestamp must be >= 1")
    return TaskId(ts, TaskKind(kind)), pos + _TASK.size


def _read_vec(buf: bytes, pos: int):
    (n,) = _U64.unpack_from(buf, pos)
    pos += _U64.size
    if n > (len(buf) - pos) // 8:
        raise DecodeError("vector length exceeds frame")
    return np.frombuffer(buf, "<f8", n, pos).copy(), pos + 8 * n


# field kind -> (append value to a bytearray, read (value, next pos) at a pos);
# the struct readers raise struct.error on truncation, which decode reports
_KINDS = {
    "u32": (lambda out, v: out.extend(_U32.pack(v)),
            lambda buf, pos: (_U32.unpack_from(buf, pos)[0], pos + 4)),
    "f64": (lambda out, v: out.extend(_F64.pack(v)),
            lambda buf, pos: (_F64.unpack_from(buf, pos)[0], pos + 8)),
    "task": (lambda out, t: out.extend(_TASK.pack(t.timestamp, t.kind)), _read_task),
    "vec": (_pack_vec, _read_vec),
}


class _Message:
    """Equality, hashing and repr shared by every message, driven by ``_wire``."""

    __slots__ = ()
    _tag = 0    # set per message by _message
    _wire = ()  # (field name, kind, pack, read), in wire order

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) if kind == "vec"
                   else getattr(self, name) == getattr(other, name)
                   for name, kind, _, _ in self._wire)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name, _, _, _ in self._wire))

    def __repr__(self):
        shown = (f"{name}=<{len(getattr(self, name))}>" if kind == "vec"
                 else f"{name}={getattr(self, name)!r}" for name, kind, _, _ in self._wire)
        return f"{type(self).__name__}({', '.join(shown)})"


_BY_TAG: dict = {}


def _message(tag: int, name: str, spec: str = "", **defaults):
    """A message class for ``tag`` whose fields are the ``name:kind`` words of
    ``spec`` in wire order; ``defaults`` gives default values by field name."""
    wire = tuple((f, kind, *_KINDS[kind]) for f, kind in (w.split(":") for w in spec.split()))
    cls = make_dataclass(
        name, [(f, kind, field(default=defaults[f])) if f in defaults else (f, kind)
               for f, kind, _, _ in wire],
        bases=(_Message,), namespace={"__module__": __name__, "_tag": tag, "_wire": wire},
        eq=False, repr=False, slots=True)
    _BY_TAG[tag] = cls
    return cls


TaskAssign = _message(1, "TaskAssign", "task:task")
PullRequest = _message(2, "PullRequest", "worker:u32 task:task")
PullResponse = _message(3, "PullResponse", "task:task w:vec")
UpdatePush = _message(4, "UpdatePush", "worker:u32 task:task w_bar:vec delta:vec")
EvalPush = _message(5, "EvalPush", "worker:u32 local_grad:vec local_obj_sum:f64 "
                    "comp_time:f64 comm_time:f64", comp_time=0.0, comm_time=0.0)
Stop = _message(6, "Stop")
SnapshotBroadcast = _message(7, "SnapshotBroadcast", "grad:vec")

Message = tuple(_BY_TAG.values())


def encode(msg) -> bytes:
    """Serialize a message into one length-prefixed frame."""
    if type(msg) not in Message:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    body = bytearray(4)
    body.append(msg._tag)
    for name, _, pack, _ in msg._wire:
        pack(body, getattr(msg, name))
    _U32.pack_into(body, 0, len(body) - 4)
    return bytes(body)


def decode(buf: bytes):
    """Parse one complete frame back into a message.

    Raises DecodeError on truncation, trailing bytes, an unknown tag, a bad
    task id, or a vector longer than the frame.
    """
    if len(buf) < 5:
        raise DecodeError("frame too short")
    (body_len,) = _U32.unpack_from(buf)
    if body_len != len(buf) - 4:
        raise DecodeError(f"frame length mismatch: header says {body_len}, got {len(buf) - 4}")
    cls = _BY_TAG.get(buf[4])
    if cls is None:
        raise DecodeError(f"unknown message tag {buf[4]}")
    values, pos = [], 5
    try:
        for _, _, _, read in cls._wire:
            value, pos = read(buf, pos)
            values.append(value)
    except struct.error:
        raise DecodeError("truncated frame") from None
    if pos != len(buf):
        raise DecodeError("trailing bytes after message payload")
    return cls(*values)
