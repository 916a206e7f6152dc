import socket
import time

import pytest

from dvrsgd.transport import (LatencyModel, LivelockError, Node, SimCluster, SocketCluster,
                              TransportError)
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
