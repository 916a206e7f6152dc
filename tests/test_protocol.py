import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvrsgd.protocol import (DecodeError, EvalPush, Message, PullRequest, PullResponse,
                             SnapshotBroadcast, Stop, TaskAssign, TaskId, TaskKind,
                             UpdatePush, decode, encode)


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
                          rand_vec(rng), rand_vec(rng))
    if which == 4:
        return EvalPush(int(rng.integers(0, 1000)), rand_vec(rng),
                        float(rng.normal()), float(abs(rng.normal())), float(abs(rng.normal())))
    if which == 5:
        return Stop()
    return SnapshotBroadcast(rand_vec(rng))


# One frame per tag, hex split at field boundaries: the documented byte layout.
GOLDEN_FRAMES = [
    (TaskAssign(TaskId(5, TaskKind.UPDATE)),
     "0a000000" "01" "0500000000000000" "00"),
    (PullRequest(3, TaskId(258, TaskKind.EVALUATION)),
     "0e000000" "02" "03000000" "0201000000000000" "01"),
    (PullResponse(TaskId(7, TaskKind.UPDATE), np.array([1.0, -2.0])),
     "22000000" "03" "0700000000000000" "00"
     "0200000000000000" "000000000000f03f" "00000000000000c0"),
    (UpdatePush(2, TaskId(17, TaskKind.UPDATE), np.array([1.0, -0.5]), np.array([0.25, 0.0])),
     "3e000000" "04" "02000000" "1100000000000000" "00"
     "0200000000000000" "000000000000f03f" "000000000000e0bf"
     "0200000000000000" "000000000000d03f" "0000000000000000"),
    (EvalPush(1, np.array([2.0]), 0.125, 3.5, 0.75),
     "2d000000" "05" "01000000" "0100000000000000" "0000000000000040"
     "000000000000c03f" "0000000000000c40" "000000000000e83f"),
    (Stop(),
     "01000000" "06"),
    (SnapshotBroadcast(np.array([-1.0])),
     "11000000" "07" "0100000000000000" "000000000000f0bf"),
]


@pytest.mark.parametrize("msg, frame", GOLDEN_FRAMES,
                         ids=[type(m).__name__ for m, _ in GOLDEN_FRAMES])
def test_golden_frames(msg, frame):
    assert encode(msg).hex() == frame
    assert decode(bytes.fromhex(frame)) == msg


def test_update_push_round_trip_d3():
    msg = UpdatePush(2, TaskId(17, TaskKind.UPDATE),
                     np.array([1.0, -2.5, 3.25]), np.array([0.125, 0.0, -1e-300]))
    out = decode(encode(msg))
    assert out == msg
    assert out.w_bar.dtype == np.float64


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


def test_task_id_requires_positive_timestamp():
    with pytest.raises(ValueError):
        TaskId(0, TaskKind.UPDATE)
