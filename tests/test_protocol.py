import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvrsgd.protocol import (DecodeError, EvalPush, Message, PullRequest, PullResponse,
                             SnapshotBroadcast, Stop, TaskAssign, TaskId, TaskKind,
                             UpdatePush, decode, encode, hello, read_hello)


def rand_vec(rng, n=None):
    n = int(rng.integers(0, 9)) if n is None else n
    v = rng.normal(size=n)
    # sprinkle in awkward but finite values
    if n >= 3:
        v[0] = 0.0
        v[1] = -0.0
        v[2] = 5e-324  # smallest subnormal
    return v


def rand_task(rng):
    return TaskId(int(rng.integers(1, 2**40)), TaskKind(int(rng.integers(0, 2))))


def rand_message(rng):
    which = int(rng.integers(0, 7))
    if which == 0:
        return TaskAssign(rand_task(rng))
    if which == 1:
        return PullRequest(int(rng.integers(0, 1000)), rand_task(rng))
    if which == 2:
        return PullResponse(rand_task(rng), rand_vec(rng))
    if which == 3:
        return UpdatePush(int(rng.integers(0, 1000)), TaskId(int(rng.integers(1, 2**40)), TaskKind.UPDATE),
                          rand_vec(rng))
    if which == 4:
        return EvalPush(int(rng.integers(0, 1000)), rand_vec(rng),
                        float(rng.normal()), float(abs(rng.normal())), float(abs(rng.normal())))
    if which == 5:
        return Stop()
    return SnapshotBroadcast(rand_vec(rng))


# One frame per tag, hex split at field boundaries: the documented byte layout.
# A vector trails its message's fixed-width fields, after zero pad bytes that
# put its first value at a multiple of 8 in the frame.
GOLDEN_FRAMES = [
    (TaskAssign(TaskId(5, TaskKind.UPDATE)),
     "0a000000" "01" "0500000000000000" "00"),
    (PullRequest(3, TaskId(258, TaskKind.EVALUATION)),
     "0e000000" "02" "03000000" "0201000000000000" "01"),
    (PullResponse(TaskId(7, TaskKind.UPDATE), np.array([1.0, -2.0])),
     "24000000" "03" "0700000000000000" "00" "0000"
     "0200000000000000" "000000000000f03f" "00000000000000c0"),
    (UpdatePush(2, TaskId(17, TaskKind.UPDATE), np.array([0.25, 0.0])),
     "2c000000" "04" "02000000" "1100000000000000" "00" "000000000000"
     "0200000000000000" "000000000000d03f" "0000000000000000"),
    (EvalPush(1, np.array([2.0]), 0.125, 3.5, 0.75),
     "34000000" "05" "01000000" "000000000000c03f" "0000000000000c40" "000000000000e83f"
     "00000000000000" "0100000000000000" "0000000000000040"),
    (Stop(),
     "01000000" "06"),
    (SnapshotBroadcast(np.array([-1.0])),
     "14000000" "07" "000000" "0100000000000000" "000000000000f0bf"),
]

# the pad bytes of each vector message's frame, by offset
PAD_BYTES = {PullResponse: range(14, 16), UpdatePush: range(18, 24), EvalPush: range(33, 40),
             SnapshotBroadcast: range(5, 8)}


@pytest.mark.parametrize("msg, frame", GOLDEN_FRAMES,
                         ids=[type(m).__name__ for m, _ in GOLDEN_FRAMES])
def test_golden_frames(msg, frame):
    assert encode(msg).hex() == frame
    assert decode(bytes.fromhex(frame)) == msg


def test_hello_frame_bytes():
    # the frame that opens every TCP stream, outside the message table
    frame = hello("worker:3")
    assert frame.hex() == "09000000" "00" + b"worker:3".hex()
    assert read_hello(frame) == "worker:3"
    with pytest.raises(DecodeError, match="HELLO"):
        read_hello(encode(Stop()))


def test_update_push_round_trip_d3():
    msg = UpdatePush(2, TaskId(17, TaskKind.UPDATE), np.array([0.125, 0.0, -1e-300]))
    out = decode(encode(msg))
    assert out == msg
    assert out.delta.dtype == np.float64


def test_decoded_vectors_are_read_only_views_with_the_same_bits():
    rng = np.random.default_rng(1)
    for _ in range(200):
        msg = rand_message(rng)
        out = decode(encode(msg))
        for name, kind in msg._wire:
            if kind == "vec":
                got = getattr(out, name)
                assert got.flags.writeable is False
                assert got.tobytes() == getattr(msg, name).tobytes()
                with pytest.raises(ValueError):
                    got[:1] = 0.0


def sample_message(cls, n=2, task=TaskId(1, TaskKind.UPDATE)):
    """A ``cls`` whose vector, if it has one, holds ``n`` values, and whose
    task, if it has one, is ``task``."""
    values = {"u32": 1, "f64": 0.5, "task": task, "vec": np.arange(n, dtype=np.float64)}
    return cls(*(values[f.type] for f in dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", list(PAD_BYTES), ids=lambda cls: cls.__name__)
def test_decoded_vectors_are_8_byte_aligned(cls):
    assert set(PAD_BYTES) == {m for m in Message if "vec" in (k for _, k in m._wire)}
    for n in (0, 1, 3, 50, 2000):
        msg = sample_message(cls, n)
        out = decode(encode(msg))
        assert out == msg
        for name, kind in out._wire:
            if kind == "vec":
                assert getattr(out, name).flags.aligned


@pytest.mark.parametrize("cls", list(PAD_BYTES), ids=lambda cls: cls.__name__)
def test_nonzero_pad_byte_rejected(cls):
    frame = encode(sample_message(cls, 2))
    assert decode(frame) == sample_message(cls, 2)
    for pos in PAD_BYTES[cls]:
        assert frame[pos] == 0
        for byte in (0x01, 0x80):
            bad = bytearray(frame)
            bad[pos] = byte
            with pytest.raises(DecodeError, match="nonzero pad byte"):
                decode(bytes(bad))


def test_empty_bytes_rejected():
    with pytest.raises(DecodeError):
        decode(b"")


def test_round_trip_random_messages():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        msg = rand_message(rng)
        assert decode(encode(msg)) == msg


def test_floats_preserved_bit_exactly():
    v = np.array([0.1, -0.0, 1e308, 5e-324, 2.0**-1074, np.pi])
    msg = SnapshotBroadcast(v)
    out = decode(encode(msg))
    assert out.grad.tobytes() == v.tobytes()
    assert out.grad.shape == v.shape


# one strategy per wire field kind; a message's field types name its kinds
FIELD_VALUES = {
    "u32": st.integers(0, 2**32 - 1),
    "f64": st.floats(width=64),
    "task": st.builds(TaskId, st.integers(1, 2**64 - 1), st.sampled_from(TaskKind)),
    "vec": st.lists(st.floats(width=64), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.float64)),
}


def messages(cls):
    return st.builds(cls, *(FIELD_VALUES[f.type] for f in dataclasses.fields(cls)))


def with_header(frame: bytes) -> bytes:
    """``frame`` with its length header rewritten to match its length."""
    return (len(frame) - 4).to_bytes(4, "little") + frame[4:] if len(frame) >= 4 else frame


@given(st.data())
def test_truncation_rejected(data):
    # every message round-trips bit-exactly (NaN payloads and -0.0 included);
    # every strict prefix and every one-byte extension of its frame is
    # rejected, both with the frame's own length header and with a header
    # that matches the new length, which reaches the field-level checks
    assert len(Message) == 7
    for cls in Message:
        msg = data.draw(messages(cls))
        frame = encode(msg)
        out = decode(frame)
        assert type(out) is cls
        assert encode(out) == frame
        extended = frame + bytes([data.draw(st.integers(0, 255))])
        for bad in [frame[:cut] for cut in range(len(frame))] + [extended]:
            for candidate in (bad, with_header(bad)):
                with pytest.raises(DecodeError):
                    decode(candidate)


def test_bad_tag_rejected():
    frame = bytearray(encode(Stop()))
    frame[4] = 99
    with pytest.raises(DecodeError):
        decode(bytes(frame))


def test_vector_length_lie_rejected():
    frame = bytearray(encode(SnapshotBroadcast(np.zeros(4))))
    frame[5:13] = (2**50).to_bytes(8, "little")  # claim a giant vector
    with pytest.raises(DecodeError):
        decode(bytes(frame))


TASK_MESSAGES = [TaskAssign, PullRequest, PullResponse, UpdatePush]


@pytest.mark.parametrize("timestamp, kind", [(0, 0), (1, 2), (1, 255)],
                         ids=["timestamp-0", "kind-2", "kind-255"])
@pytest.mark.parametrize("cls", TASK_MESSAGES, ids=lambda cls: cls.__name__)
def test_bad_task_id_rejected(cls, timestamp, kind):
    # TaskId is a plain value; the wire is where a task id is checked
    assert set(TASK_MESSAGES) == {m for m in Message if "task" in (k for _, k in m._wire)}
    frame = encode(sample_message(cls, task=TaskId(timestamp, kind)))
    with pytest.raises(DecodeError, match="task timestamp must be >= 1|invalid task kind"):
        decode(frame)


@pytest.mark.parametrize("tag", [*(cls._tag for cls in Message), 0, 99],
                         ids=[*(cls.__name__ for cls in Message), "tag-0", "tag-99"])
def test_length_header_disagreeing_with_the_frame_rejected(tag):
    # the compiled decoders check the header; a tag outside the table is
    # still reported as a length mismatch first when the header is wrong
    cls = next((m for m in Message if m._tag == tag), Stop)
    frame = encode(sample_message(cls, 3))
    frame = frame[:4] + bytes([tag]) + frame[5:]
    for body_len in (0, len(frame) - 5, len(frame) - 3, 2**32 - 1):
        bad = body_len.to_bytes(4, "little") + frame[4:]
        with pytest.raises(DecodeError, match=f"^frame length mismatch: header says "
                           f"{body_len}, got {len(frame) - 4}$"):
            decode(bad)


def test_message_equality_and_repr():
    task = TaskId(1, TaskKind.UPDATE)
    assert PullRequest(0, task) == PullRequest(0, task)
    assert PullRequest(0, task).__eq__(PullResponse(task, np.zeros(3))) is NotImplemented
    assert Stop() != "stop"
    assert repr(PullResponse(task, np.zeros(3))) == f"PullResponse(task={task!r}, w=<3>)"
    assert repr(Stop()) == "Stop()"


def test_encode_rejects_a_non_message():
    with pytest.raises(TypeError, match="^not a protocol message: tuple$"):
        encode((0, TaskId(1, TaskKind.UPDATE)))
