import select
import socket
import struct
import threading
import time

import numpy as np
import pytest

from dvrsgd import protocol, transport
from dvrsgd.harness import run_cluster_socket
from dvrsgd.losses import make_synthetic
from dvrsgd.protocol import PullResponse, Stop, TaskId, TaskKind, UpdatePush
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


class Sink(Recorder):
    """A Recorder that can shut down once it holds ``expect`` frames, so a
    socket loop hosting only sinks returns by itself after that."""

    def __init__(self, expect):
        super().__init__()
        self.expect = expect

    def can_shutdown(self):
        return len(self.seen) >= self.expect


class Gate(Sink):
    """Holds the loop inside its handler until ``release`` is set."""

    def __init__(self, expect):
        super().__init__(expect)
        self.release = threading.Event()

    def handle(self, src, msg):
        super().handle(src, msg)
        self.release.wait(5.0)


class Talker(Sink):
    """A Sink that sends a fixed script of messages on start."""

    def __init__(self, script, expect):
        super().__init__(expect)
        self.script = script

    on_start = Chatter.on_start


def _started(**nodes):
    cluster = SocketCluster({ep: ("127.0.0.1", 0) for ep in nodes}, timeout=5.0)
    for ep, node in nodes.items():
        cluster.register(ep, node)
    cluster.start()
    return cluster


def _raw_client(cluster, endpoint, name="peer"):
    """A TCP client of ``endpoint`` that has sent its HELLO as ``name``."""
    sock = socket.create_connection(("127.0.0.1", cluster.bound_port(endpoint)), timeout=5.0)
    hello = name.encode()
    sock.sendall(struct.pack("<I", len(hello) + 1) + b"\x00" + hello)
    return sock


def _reset(sock):
    """Close with an RST, so the peer's next recv raises."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _sees_close(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    finally:
        sock.close()


def _until(cond, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.001)
    return cond()


def test_close_closes_accepted_connections():
    sink = Sink(expect=2)
    cluster = _started(a=sink)
    clients = []
    try:
        for name in ("p", "q"):
            clients.append(_raw_client(cluster, "a", name))
            clients[-1].sendall(protocol.encode(Stop()))
        assert _until(lambda: len(sink.seen) == 2)
        cluster.wait()  # the loop returns by itself once the sink is done
        assert sorted(src for _, src, _ in sink.seen) == ["p", "q"]  # both accepted
    finally:
        cluster.close()
    for client in clients:
        assert client.recv(1) == b""  # an EOF, not a reset: the stream was ours
        client.close()


def test_reset_stream_fails_the_run_naming_the_reader():
    gate = Gate(expect=2)  # still live after the first frame
    cluster = _started(a=gate)
    try:
        client = _raw_client(cluster, "a")
        client.sendall(protocol.encode(Stop()))
        assert _until(lambda: gate.seen)  # the loop is held in the handler
        _reset(client)
        gate.release.set()
        with pytest.raises(TransportError, match=r"^a <- peer: ConnectionResetError"):
            cluster.wait()
    finally:
        gate.release.set()
        cluster.close()


@pytest.mark.parametrize("closing", [False, True])
def test_unreadable_stream_fails_the_run_unless_closing(closing):
    # close() may begin on another thread while the loop reads a reset
    # stream; that read is driven here directly, with and without close()
    # begun
    cluster = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=5.0)
    with socket.create_server(("127.0.0.1", 0)) as srv:
        client = socket.create_connection(srv.getsockname(), timeout=5.0)
        sock, _ = srv.accept()
    sock.setblocking(False)
    _reset(client)
    assert select.select([sock], [], [], 5.0)[0]
    if closing:
        cluster._stopping.set()
    try:
        cluster._read(transport._Connection(sock, "a", "a <- peer"))
    finally:
        sock.close()
    if closing:
        assert cluster._failure is None
    else:
        where, exc = cluster._failure
        assert where == "a <- peer" and isinstance(exc, ConnectionResetError)
        assert cluster._stopping.is_set()


def test_connection_arriving_while_closing_is_closed():
    gate = Gate(expect=2)  # live, so only close() stops the loop
    cluster = _started(a=gate)
    closer = threading.Thread(target=cluster.close)
    try:
        first = _raw_client(cluster, "a")
        first.sendall(protocol.encode(Stop()))
        assert _until(lambda: gate.seen)
        late = _raw_client(cluster, "a", "late")  # queued while the loop is held
        closer.start()
        _until(cluster._stopping.is_set)
        gate.release.set()
        closer.join(5.0)
        assert not closer.is_alive()
    finally:
        gate.release.set()
        cluster.close()
    assert _sees_close(first)
    assert _sees_close(late)


def test_truncated_frame_fails_fast_naming_the_reader():
    cluster = _started(a=Sink(expect=1))
    try:
        client = _raw_client(cluster, "a")
        client.sendall(struct.pack("<I", 100) + bytes(10))
        client.close()
        t0 = time.monotonic()
        with pytest.raises(TransportError,
                           match=r"^a <- peer: DecodeError\('stream ended inside a frame'\)$"):
            cluster.wait()
        assert time.monotonic() - t0 < 1.0
    finally:
        cluster.close()


def test_peer_closing_while_live_fails_fast_naming_the_reader():
    # an EOF at a frame boundary before every node can shut down is a
    # vanished peer, not the end of the run
    sink = Sink(expect=2)
    cluster = _started(a=sink)
    try:
        client = _raw_client(cluster, "a")
        client.sendall(protocol.encode(Stop()))
        client.close()
        t0 = time.monotonic()
        with pytest.raises(TransportError, match=r"^a <- peer: ConnectionError\(") as info:
            cluster.wait()
        assert time.monotonic() - t0 < 1.0
        assert isinstance(info.value.__cause__, ConnectionError)
        assert [(src, msg) for _, src, msg in sink.seen] == [("peer", Stop())]
    finally:
        cluster.close()


def test_loop_returns_by_itself_once_every_node_can_shut_down():
    a, b = Talker([("b", Stop())], expect=1), Talker([("a", Stop())], expect=1)
    cluster = _started(a=a, b=b)
    try:
        cluster.wait()
        assert not cluster._thread.is_alive()
    finally:
        cluster.close()
    assert [(src, msg) for _, src, msg in a.seen] == [("b", Stop())]
    assert [(src, msg) for _, src, msg in b.seen] == [("a", Stop())]


def test_loop_stopped_before_quiescence_is_an_error():
    cluster = _started(a=Sink(expect=1))
    try:
        cluster._stopping.set()  # as close() does, but with the run still live
        cluster._wake[1].send(b"\x00")
        with pytest.raises(TransportError, match="stopped before every node could shut down"):
            cluster.wait()
    finally:
        cluster.close()


def test_unreachable_endpoint_fails_within_the_connect_timeout():
    # a backlog-0 listener holding one unaccepted connection drops the next
    # SYN, so a connect to it hangs
    blackhole = socket.create_server(("127.0.0.1", 0), backlog=0)
    filler = socket.create_connection(blackhole.getsockname(), timeout=5.0)
    cluster = SocketCluster({"a": ("127.0.0.1", 0), "b": blackhole.getsockname()},
                            timeout=30.0)
    cluster.register("a", Chatter([("b", Stop())]))
    t0 = time.monotonic()
    try:
        cluster.start()
        with pytest.raises(TransportError, match=r"^a: TransportError\('cannot connect a -> b"):
            cluster.wait()
    finally:
        cluster.close()
        filler.close()
        blackhole.close()
    assert time.monotonic() - t0 < 2.0


def test_frame_larger_than_socket_buffers_arrives_bit_exact():
    # a 16 MiB frame is more than loopback TCP buffers hold, so the one loop
    # must interleave writing it with reading it, here also to itself
    big = PullResponse(TaskId(1, TaskKind.UPDATE),
                       np.random.default_rng(0).standard_normal(2**21))
    a, b = Talker([("b", big), ("b", Stop()), ("a", big)], expect=1), Sink(expect=2)
    cluster = _started(a=a, b=b)
    try:
        assert _until(lambda: (len(a.seen), len(b.seen)) == (1, 2), timeout=10.0)
        cluster.wait()  # raises a recorded failure
    finally:
        cluster.close()
    assert [(src, type(msg)) for _, src, msg in b.seen] == [("a", PullResponse), ("a", Stop)]
    assert [(src, type(msg)) for _, src, msg in a.seen] == [("a", PullResponse)]
    for got in (b.seen[0][2], a.seen[0][2]):
        assert got.task == big.task
        assert np.array_equal(got.w, big.w)


def test_socket_run_starts_one_thread_and_leaves_none():
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=40, S=3, P=2)
    roles = ["scheduler", "server", "worker:0", "worker:1"]
    before = set(threading.enumerate())
    during = []

    def note_threads(records):
        during.append(set(threading.enumerate()) - before)
        return False

    run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3,
                       stop_rule=note_threads, timeout=30.0)
    assert during and all(len(new) == 1 for new in during)
    assert [t for t in threading.enumerate() if t not in before] == []


def test_socket_run_with_hundreds_of_workers_completes():
    # every worker dials the server in the same pass of the loop, which is
    # itself blocked in a connect meanwhile; the listener must queue them all
    P = 200
    p = make_synthetic("quadratic", 2 * P, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=1, m=P, S=1, P=P)
    roles = ["scheduler", "server", *(f"worker:{k}" for k in range(P))]
    before = set(threading.enumerate())
    result = run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3,
                                timeout=30.0)
    assert [r.stage for r in result.records] == [0, 1]
    assert [t for t in threading.enumerate() if t not in before] == []


def test_close_joins_the_loop_of_an_idle_cluster():
    before = set(threading.enumerate())
    cluster = _started(a=Sink(expect=1))
    assert len(set(threading.enumerate()) - before) == 1
    cluster.close()
    assert set(threading.enumerate()) - before == set()
    cluster.close()  # a second close is harmless


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
