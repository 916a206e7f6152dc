import socket
import threading
import time

import numpy as np
import pytest

from dvrsgd import protocol, transport
from dvrsgd.harness import run_cluster_socket
from dvrsgd.losses import make_synthetic
from dvrsgd.protocol import PullResponse, TaskKind, UpdatePush
from dvrsgd.server import HyperParams
from dvrsgd.transport import (LatencyModel, LivelockError, Node, SimCluster, SocketCluster,
                              TransportError)
from dvrsgd.worker import WorkerNode
from helpers import check_pair_fifo


class Recorder(Node):
    """Collects (time, src, msg) for everything delivered to it."""

    def __init__(self):
        self.seen = []

    def handle(self, src, msg):
        self.seen.append((self.now, src, msg))


class Chatter(Node):
    """Sends a fixed script of messages on start."""

    def __init__(self, script):
        self.script = script

    def handle(self, src, msg):
        pass

    def on_start(self):
        for dst, msg in self.script:
            self.send(dst, msg)


def test_constant_latency_delivery_time():
    sim = SimCluster(LatencyModel("constant", value=1.0))
    a, b = Chatter([]), Recorder()
    sim.register("a", a)
    sim.register("b", b)
    sim.now = 5.0
    sim.send("a", "b", "ping")
    sim.run_until_quiescent()
    assert b.seen == [(6.0, "a", "ping")]


def test_pair_fifo_under_constant_latency():
    sim = SimCluster(LatencyModel("constant", value=2.0))
    sim.register("a", Chatter([("b", 1), ("b", 2), ("b", 3)]))
    rec = Recorder()
    sim.register("b", rec)
    sim.run_until_quiescent()
    assert [m for _, _, m in rec.seen] == [1, 2, 3]


def test_pair_fifo_under_random_latency():
    # adversarial jitter would reorder without the FIFO clamp
    sim = SimCluster(LatencyModel("adversarial", seed=3))
    sim.register("a", Chatter([("b", k) for k in range(50)]))
    rec = Recorder()
    sim.register("b", rec)
    trace = sim.run_until_quiescent()
    assert [m for _, _, m in rec.seen] == list(range(50))
    check_pair_fifo(trace)


def test_deterministic_replay():
    def run():
        sim = SimCluster(LatencyModel("uniform", lo=0.0, hi=4.0, seed=11))
        sim.register("a", Chatter([("b", k) for k in range(20)]))
        sim.register("b", Recorder())
        trace = sim.run_until_quiescent()
        return [(e.action, e.time, e.seq, e.src, e.dst, e.msg) for e in trace]

    assert run() == run()


def test_empty_queue_gives_empty_trace():
    sim = SimCluster()
    sim.register("a", Recorder())
    assert sim.run_until_quiescent() == []


def test_single_message_trace():
    sim = SimCluster()
    sim.register("a", Chatter([("b", "x")]))
    sim.register("b", Recorder())
    trace = sim.run_until_quiescent()
    # one delivery; its matching send record precedes it
    assert [(e.action, e.msg) for e in trace if e.action == "deliver"] == [("deliver", "x")]
    assert [(e.action, e.msg) for e in trace] == [("send", "x"), ("deliver", "x")]


def test_unknown_endpoint_rejected():
    sim = SimCluster()
    sim.register("a", Chatter([]))
    with pytest.raises(TransportError):
        sim.send("a", "ghost", "boo")


def test_livelock_detection():
    class PingPong(Node):
        def handle(self, src, msg):
            self.send(src, msg)

        def on_start(self):
            if self.endpoint == "a":
                self.send("b", "ball")

    sim = SimCluster(max_events=100)
    sim.register("a", PingPong())
    sim.register("b", PingPong())
    with pytest.raises(LivelockError):
        sim.run_until_quiescent()


def test_latency_model_determinism_and_domain():
    for kind, kwargs in [("uniform", dict(lo=1, hi=5)), ("exponential", dict(mean=2)),
                         ("adversarial", {}), ("trace", dict(trace=[1, 9, 2]))]:
        a = LatencyModel(kind, seed=5, **kwargs)
        b = LatencyModel(kind, seed=5, **kwargs)
        xs = [a.sample() for _ in range(40)]
        assert xs == [b.sample() for _ in range(40)]
        assert all(x >= 0 for x in xs)
    assert LatencyModel("trace", trace=[1, 9]).sample() == 1.0
    with pytest.raises(ValueError):
        LatencyModel("warp")
    with pytest.raises(ValueError):
        LatencyModel("trace", trace=[])


@pytest.mark.parametrize("kind,kwargs,draw", [
    ("uniform", dict(lo=1.0, hi=5.0), lambda g: g.uniform(1.0, 5.0)),
    ("exponential", dict(mean=2.0), lambda g: g.exponential(2.0)),
    ("adversarial", {}, lambda g: g.choice([0.0, 1.0, 5.0, 25.0, 125.0],
                                           p=[0.3, 0.3, 0.2, 0.15, 0.05])),
])
def test_block_drawn_latencies_equal_scalar_draws(kind, kwargs, draw):
    # three block edges and a partial block, against one Generator call per sample
    n = 3 * transport._LATENCY_BLOCK + 7
    model = LatencyModel(kind, seed=9, **kwargs)
    got = [model.sample() for _ in range(n)]
    ref = np.random.default_rng(9)
    assert got == [float(draw(ref)) for _ in range(n)]
    assert all(type(x) is float for x in got)


def test_constant_and_trace_latencies_unchanged():
    n = transport._LATENCY_BLOCK + 7
    constant = LatencyModel("constant", value=2.5, seed=9)
    assert [constant.sample() for _ in range(n)] == [2.5] * n
    cycle = LatencyModel("trace", trace=[1, 9, 2], seed=9)
    assert [cycle.sample() for _ in range(n)] == [[1.0, 9.0, 2.0][i % 3] for i in range(n)]


def test_timers_fire_at_requested_time():
    class Sleeper(Node):
        def __init__(self):
            self.fired = None

        def on_start(self):
            self.after(3.5, "alarm")

        def handle(self, src, msg):
            self.fired = (self.now, msg)

    sim = SimCluster(LatencyModel("constant", value=1.0))
    s = Sleeper()
    sim.register("s", s)
    sim.run_until_quiescent()
    assert s.fired == (3.5, "alarm")


def test_connection_accepted_while_closing_is_closed():
    cluster = SocketCluster({"a": ("127.0.0.1", 0)})
    ours, theirs = socket.socketpair()

    class Listener:
        """Hands out one connection, with close() starting in between."""

        def settimeout(self, _):
            pass

        def accept(self):
            cluster._stopping.set()
            return ours, None

    cluster._listeners["a"] = Listener()
    cluster._accept_loop("a")
    assert cluster._accepted == []
    assert ours.fileno() == -1
    assert theirs.recv(1) == b""  # the peer sees the close
    theirs.close()


@pytest.mark.parametrize("closing", [False, True])
def test_reader_error_fails_the_run_unless_closing(closing):
    cluster = SocketCluster({"a": ("127.0.0.1", 0)})
    cluster.register("a", Recorder())
    ours, theirs = socket.socketpair()
    ours.close()  # as close() may do before the reader's first recv
    if closing:
        cluster._stopping.set()
    cluster._reader("a", ours)
    theirs.close()
    if closing:
        assert cluster._failure is None
    else:
        assert cluster._failure[0] == "a"
        assert isinstance(cluster._failure[1], OSError)
        assert cluster._stopping.is_set()


def test_close_closes_accepted_connections():
    cluster = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=5.0)
    cluster.register("a", Recorder())
    cluster.start()
    try:
        client = socket.create_connection(("127.0.0.1", cluster.bound_port("a")), timeout=5.0)
        deadline = time.monotonic() + 5.0
        while not cluster._accepted and time.monotonic() < deadline:
            time.sleep(0.01)
        accepted = list(cluster._accepted)
    finally:
        cluster.close()
    assert accepted and cluster._accepted == []
    assert all(conn.fileno() == -1 for conn in accepted)
    assert client.recv(1) == b""
    client.close()


def _run_with_fault(expect: str):
    """Run a small socket cluster with a 30 s timeout, which a patched-in
    fault must end within 3 s with the ``expect``ed error and no thread left
    running; return the error."""
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=40, S=3, P=2)
    roles = ["scheduler", "server", "worker:0", "worker:1"]
    before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(TransportError, match=expect) as info:
        run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3, timeout=30.0)
    assert time.monotonic() - t0 < 3.0
    for t in set(threading.enumerate()) - before:
        t.join(5.0)
        assert not t.is_alive(), f"{t.name} outlived the failed run"
    return info.value


def test_socket_node_error_fails_fast_naming_the_role(monkeypatch):
    handle = WorkerNode.handle
    updates = []

    def faulty(self, src, msg):
        if self.worker_id == 1 and isinstance(msg, PullResponse) \
                and msg.task.kind == TaskKind.UPDATE:
            updates.append(msg.task)
            if len(updates) == 3:  # mid-way through stage 1
                raise RuntimeError("injected fault")
        return handle(self, src, msg)

    monkeypatch.setattr(WorkerNode, "handle", faulty)
    err = _run_with_fault(r"^worker:1: RuntimeError\('injected fault'\)$")
    assert isinstance(err.__cause__, RuntimeError)


def test_socket_corrupt_frame_fails_fast_naming_the_reader(monkeypatch):
    encode = protocol.encode
    pushes = []

    def corrupting(msg):
        frame = encode(msg)
        if isinstance(msg, UpdatePush) and msg.worker == 0:
            pushes.append(msg)
            if len(pushes) == 3:
                return frame[:4] + b"\xff" + frame[5:]  # no message has tag 255
        return frame

    monkeypatch.setattr(protocol, "encode", corrupting)
    err = _run_with_fault(r"^server <- worker:0: DecodeError\('unknown message tag 255'\)$")
    assert isinstance(err.__cause__, protocol.DecodeError)
