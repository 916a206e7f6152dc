import select
import socket
import struct
import threading
import time

import numpy as np
import pytest

from dvrsgd import protocol, transport
from dvrsgd.baselines import algo_config
from dvrsgd.harness import run_cluster_socket
from dvrsgd.losses import make_synthetic
from dvrsgd.protocol import (PullRequest, PullResponse, Stop, TaskAssign, TaskId, TaskKind,
                             UpdatePush)
from dvrsgd.scheduler import SchedulerNode
from dvrsgd.server import HyperParams, ParamServer
from dvrsgd.transport import (LatencyModel, LivelockError, Node, SimCluster, SocketCluster,
                              TransportError)
from dvrsgd.worker import WorkerNode
from helpers import check_pair_fifo


class Recorder(Node):
    """Collects (time, src, msg) for everything delivered to it."""

    def __init__(self):
        self.seen = []

    def handle(self, src, msg):
        self.seen.append((self.transport.now, src, msg))


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
    sim = SimCluster(LatencyModel("adversarial", seed=3), collect_trace=True)
    sim.register("a", Chatter([("b", k) for k in range(50)]))
    rec = Recorder()
    sim.register("b", rec)
    trace = sim.run_until_quiescent()
    assert [m for _, _, m in rec.seen] == list(range(50))
    check_pair_fifo(trace)


def test_deterministic_replay():
    def run():
        sim = SimCluster(LatencyModel("uniform", lo=0.0, hi=4.0, seed=11), collect_trace=True)
        sim.register("a", Chatter([("b", k) for k in range(20)]))
        sim.register("b", Recorder())
        trace = sim.run_until_quiescent()
        return [(e.action, e.time, e.seq, e.src, e.dst, e.msg) for e in trace]

    assert run() == run()


def test_empty_queue_gives_empty_trace():
    sim = SimCluster(collect_trace=True)
    sim.register("a", Recorder())
    assert sim.run_until_quiescent() == []


def test_single_message_trace():
    sim = SimCluster(collect_trace=True)
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


@pytest.mark.parametrize("make", [
    SimCluster, lambda: SocketCluster({"a": ("127.0.0.1", 0)}, timeout=5.0),
], ids=["sim", "socket"])
def test_duplicate_endpoint_rejected(make):
    cluster, first = make(), Node()
    cluster.register("a", first)
    with pytest.raises(ValueError, match="endpoint 'a' already registered"):
        cluster.register("a", Node())
    assert cluster.nodes == {"a": first} and first.transport is cluster


def test_livelock_detection(monkeypatch):
    monkeypatch.setattr(transport, "_MAX_EVENTS", 100)

    class PingPong(Node):
        def handle(self, src, msg):
            self.send(src, msg)

        def on_start(self):
            if self.endpoint == "a":
                self.send("b", "ball")

    sim = SimCluster()
    sim.register("a", PingPong())
    sim.register("b", PingPong())
    with pytest.raises(LivelockError):
        sim.run_until_quiescent()


def test_latency_model_determinism_and_domain():
    for kind, kwargs in [("uniform", dict(lo=1, hi=5)), ("exponential", dict(mean=2)),
                         ("adversarial", {})]:
        a = LatencyModel(kind, seed=5, **kwargs)
        b = LatencyModel(kind, seed=5, **kwargs)
        xs = [a.sample() for _ in range(40)]
        assert xs == [b.sample() for _ in range(40)]
        assert all(x >= 0 for x in xs)
    with pytest.raises(ValueError):
        LatencyModel("warp")


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


def test_constant_latency_unchanged():
    n = transport._LATENCY_BLOCK + 7
    constant = LatencyModel("constant", value=2.5, seed=9)
    assert [constant.sample() for _ in range(n)] == [2.5] * n


def test_timers_fire_at_requested_time():
    class Sleeper(Node):
        def __init__(self):
            self.fired = None

        def on_start(self):
            self.after(3.5, "alarm")

        def handle(self, src, msg):
            self.fired = (self.transport.now, msg)

    sim = SimCluster(LatencyModel("constant", value=1.0))
    s = Sleeper()
    sim.register("s", s)
    sim.run_until_quiescent()
    assert s.fired == (3.5, "alarm")


class Sink(Recorder):
    """A Recorder that can shut down once it holds ``expect`` frames, so a
    socket loop hosting only sinks returns by itself after that.  ``act``
    runs inside the handler after each frame, on the loop."""

    def __init__(self, expect, act=None):
        super().__init__()
        self.expect = expect
        self.act = act

    def handle(self, src, msg):
        super().handle(src, msg)
        if self.act is not None:
            self.act()

    def can_shutdown(self):
        return len(self.seen) >= self.expect


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
    sock = socket.create_connection(("127.0.0.1", cluster.addresses[endpoint][1]), timeout=5.0)
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


def test_close_closes_accepted_connections():
    sink = Sink(expect=2)
    cluster = _started(a=sink)
    try:
        with _raw_client(cluster, "a", "p") as p, _raw_client(cluster, "a", "q") as q:
            for client in (p, q):
                client.sendall(protocol.encode(Stop()))
            cluster.wait()  # the loop returns by itself once the sink is done
            assert sorted(src for _, src, _ in sink.seen) == ["p", "q"]  # both accepted
            cluster.close()
            for client in (p, q):
                assert client.recv(1) == b""  # an EOF, not a reset: the stream was ours
    finally:
        cluster.close()


def test_reset_stream_fails_the_run_naming_the_reader():
    # the sink resets the client from inside its handler, so the loop's next
    # read of that stream meets the RST; it is still live after one frame
    cluster = _started(a=Sink(expect=2, act=lambda: _reset(client)))
    try:
        with _raw_client(cluster, "a") as client:
            client.sendall(protocol.encode(Stop()))
            with pytest.raises(TransportError, match=r"^a <- peer: ConnectionResetError"):
                cluster.wait()
    finally:
        cluster.close()


@pytest.mark.parametrize("closing", [False, True])
def test_unreadable_stream_fails_the_run_unless_closing(closing):
    # a read of a reset stream, driven here directly, is the run's failure
    # unless an earlier failure has already ended the run: the first stands
    cluster = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=5.0)
    first = RuntimeError("first")
    if closing:
        cluster._fail("b", first)
    with socket.create_server(("127.0.0.1", 0)) as srv, \
            socket.create_connection(srv.getsockname(), timeout=5.0) as client:
        sock, _ = srv.accept()
        with sock:
            sock.setblocking(False)
            _reset(client)
            assert select.select([sock], [], [], 5.0)[0]
            cluster._read(transport._Connection(sock, "a", "a <- peer"))
    if closing:
        assert cluster._failure == ("b", first)
    else:
        where, exc = cluster._failure
        assert where == "a <- peer" and isinstance(exc, ConnectionResetError)


def test_connection_arriving_while_closing_is_closed():
    # the sink's handler dials once more and the run then ends, so the late
    # connection is still queued at the listener, never accepted, at close()
    late = []

    def dial():
        late.append(_raw_client(cluster, "a", "late"))

    cluster = _started(a=Sink(expect=1, act=dial))
    try:
        with _raw_client(cluster, "a") as first:
            first.sendall(protocol.encode(Stop()))
            cluster.wait()
            assert len(late) == 1
            cluster.close()
            assert _sees_close(first)
            assert _sees_close(late[0])
    finally:
        for client in late:
            client.close()
        cluster.close()


def test_stream_not_opening_with_a_hello_fails_the_run():
    # without the check, the TaskAssign frame was taken as the sender's name
    # and the Stop delivered from a sender named by its bytes
    sink = Sink(expect=1)
    cluster = _started(a=sink)
    try:
        with socket.create_connection(("127.0.0.1", cluster.addresses["a"][1]),
                                      timeout=5.0) as client:
            client.sendall(protocol.encode(TaskAssign(TaskId(1, TaskKind.UPDATE)))
                           + protocol.encode(Stop()))
            with pytest.raises(TransportError, match=r"^a: DecodeError"):
                cluster.wait()
    finally:
        cluster.close()
    assert sink.seen == []


def test_truncated_frame_fails_fast_naming_the_reader():
    cluster = _started(a=Sink(expect=1))
    try:
        with _raw_client(cluster, "a") as client:
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
        with _raw_client(cluster, "a") as client:
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
    # both dial from on_start, before either accepts, so the pair has two
    # streams, each written from one end; each direction keeps its order
    k = 5
    to_a, to_b = ([TaskAssign(TaskId(i, kind)) for i in range(1, k + 1)]
                  for kind in (TaskKind.UPDATE, TaskKind.EVALUATION))
    a = Talker([("b", msg) for msg in to_b], expect=k)
    b = Talker([("a", msg) for msg in to_a], expect=k)
    cluster = _started(a=a, b=b)
    try:
        cluster.wait()
    finally:
        cluster.close()
    assert [(src, msg) for _, src, msg in a.seen] == [("b", msg) for msg in to_a]
    assert [(src, msg) for _, src, msg in b.seen] == [("a", msg) for msg in to_b]


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
    # must interleave writing it with reading it, here also to itself; b
    # answers on a's stream, so b writes it in parts to a socket it also reads
    big = PullResponse(TaskId(1, TaskKind.UPDATE),
                       np.random.default_rng(0).standard_normal(2**21))
    a = Talker([("b", big), ("b", Stop()), ("a", big)], expect=2)
    b = Sink(expect=2, act=lambda: len(b.seen) == 1 and b.send("a", big))
    cluster = _started(a=a, b=b)
    try:
        cluster.wait()
    finally:
        cluster.close()
    assert [(src, type(msg)) for _, src, msg in b.seen] == [("a", PullResponse), ("a", Stop)]
    assert sorted((src, type(msg)) for _, src, msg in a.seen) == \
        [("a", PullResponse), ("b", PullResponse)]
    for got in (b.seen[0][2], a.seen[0][2], a.seen[1][2]):
        assert got.task == big.task
        assert np.array_equal(got.w, big.w)


def test_frames_written_in_one_pass_go_out_in_one_send(monkeypatch):
    # b answers a's one frame with k frames from inside its handler, on a's
    # stream: a's HELLO and frame, then b's frames, each leave in one send,
    # FIFO and intact
    k = 5
    replies = [PullResponse(TaskId(i, TaskKind.UPDATE), np.random.default_rng(i).standard_normal(7))
               for i in range(1, k + 1)]
    a = Talker([("b", Stop())], expect=k)
    b = Sink(expect=1, act=lambda: [b.send("a", msg) for msg in replies])
    sends = []
    real_send = socket.socket.send

    def counting_send(sock, data, *flags):
        sends.append(len(data))
        return real_send(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "send", counting_send)
    cluster = _started(a=a, b=b)
    try:
        cluster.wait()
    finally:
        cluster.close()
    assert len(sends) == 2
    assert [src for _, src, _ in a.seen] == ["b"] * k
    for (_, _, got), want in zip(a.seen, replies):
        assert got.task == want.task and np.array_equal(got.w, want.w)


def _count_dials(monkeypatch) -> list:
    """Record the address of every connect from here on."""
    dials, connect = [], socket.create_connection

    def counting(address, *args, **kwargs):
        dials.append(address)
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return dials


def test_socket_run_starts_no_thread(monkeypatch):
    # the run also dials one stream per pair of roles that exchange messages,
    # 2P+1, and no role that could shut down ever becomes unable to again
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=40, S=3, P=2)
    roles = ["scheduler", "server", "worker:0", "worker:1"]
    before = set(threading.enumerate())
    during = []
    dials = _count_dials(monkeypatch)
    done, undone = set(), []
    for role in (SchedulerNode, ParamServer, WorkerNode):
        def checked(node, src, msg, handle=role.handle):
            handle(node, src, msg)
            if node.can_shutdown():
                done.add(node.endpoint)
            elif node.endpoint in done:
                undone.append((node.endpoint, msg))
        monkeypatch.setattr(role, "handle", checked)

    def note_threads(records):
        during.append(set(threading.enumerate()))
        return False

    run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3,
                       stop_rule=note_threads, timeout=30.0)
    assert during and all(now == before for now in during)
    assert set(threading.enumerate()) == before
    assert len(dials) == 5
    assert done == set(roles) and undone == []


def test_socket_run_with_hundreds_of_workers_completes(monkeypatch):
    # every worker dials the server in the same pass of the loop, which is
    # itself blocked in a connect meanwhile; the listener must queue them all
    P = 200
    p = make_synthetic("quadratic", 2 * P, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=1, m=P, S=1, P=P)
    roles = ["scheduler", "server", *(f"worker:{k}" for k in range(P))]
    dials = _count_dials(monkeypatch)
    result = run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3,
                                timeout=30.0)
    assert [r.stage for r in result.records] == [0, 1]
    assert len(dials) == 2 * P + 1


def test_close_of_an_idle_cluster_closes_its_listener():
    cluster = _started(a=Sink(expect=1))
    (listener,) = cluster._socks
    cluster.close()
    assert listener.fileno() == -1
    cluster.close()  # a second close is harmless


def _run_with_fault(expect: str):
    """Run a small socket cluster with a 30 s timeout, which a patched-in
    fault must end within 3 s with the ``expect``ed error; return the
    error."""
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=40, S=3, P=2)
    roles = ["scheduler", "server", "worker:0", "worker:1"]
    t0 = time.monotonic()
    with pytest.raises(TransportError, match=expect) as info:
        run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3, timeout=30.0)
    assert time.monotonic() - t0 < 3.0
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
    # worker:0 dials the server, so its push is read on the accepting end and
    # the server's answer on the dialing end; either reader is named
    encode, send = protocol.encode, SocketCluster.send
    for pair, kind, reader in [(("worker:0", "server"), UpdatePush, "server <- worker:0"),
                               (("server", "worker:0"), PullResponse, "worker:0 <- server")]:
        sent = []

        def corrupting(self, src, dst, msg, pair=pair, kind=kind, sent=sent):
            send(self, src, dst, msg)
            if (src, dst) == pair and isinstance(msg, kind):
                sent.append(msg)
                if len(sent) == 3:  # its frame ends the stream's queue
                    queue = self._conns[pair].outbuf
                    queue[len(queue) - len(encode(msg)) + 4] = 255  # no message has tag 255

        monkeypatch.setattr(SocketCluster, "send", corrupting)
        err = _run_with_fault(f"^{reader}: " + r"DecodeError\('unknown message tag 255'\)$")
        assert isinstance(err.__cause__, protocol.DecodeError)


@pytest.mark.parametrize("script", [
    [],                                  # task 1 was never pulled
    [(1, "pull")],                       # task 1 was answered to worker 1
    [(0, "pull"), (0, "push")],          # task 1's push already landed
], ids=["never-pulled", "answered-to-another-worker", "second-push"])
def test_push_that_answers_no_released_pull_fails_the_socket_run(script):
    # a raw peer speaks for the workers; the sinks take the server's answers
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=1, m=10, S=1, P=2)
    cluster = _started(server=ParamServer(2, hyper, [0.5, 0.5], gate_bound=0,
                                          update_rule=algo_config("dvrsgd").rule(hyper, 2)),
                       **{f"worker:{p}": Sink(expect=10) for p in range(2)})
    task, delta = TaskId(1, TaskKind.UPDATE), np.array([1.0, -1.0])
    frames = [protocol.encode(PullRequest(worker, task) if op == "pull"
                              else UpdatePush(worker, task, delta))
              for worker, op in [*script, (0, "push")]]
    try:
        with _raw_client(cluster, "server", "worker:0") as client:
            client.sendall(b"".join(frames))
            t0 = time.monotonic()
            with pytest.raises(TransportError, match=r"^server: ProtocolError\('worker 0 has "
                               r"no released pull for TaskId\(timestamp=1,"):
                cluster.wait()
            assert time.monotonic() - t0 < 1.0
    finally:
        cluster.close()


def test_pull_from_a_worker_outside_the_cluster_fails_the_socket_run():
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=1, m=10, S=1, P=2)
    cluster = _started(server=ParamServer(2, hyper, [0.5, 0.5], gate_bound=0,
                                          update_rule=algo_config("dvrsgd").rule(hyper, 2)),
                       **{f"worker:{p}": Sink(expect=10) for p in range(2)})
    try:
        with _raw_client(cluster, "server", "worker:0") as client:
            client.sendall(protocol.encode(PullRequest(9, TaskId(1, TaskKind.UPDATE))))
            t0 = time.monotonic()
            with pytest.raises(TransportError, match=r"^server: ProtocolError\('pull from "
                               r"worker 9 outside 0\.\.1'\)$"):
                cluster.wait()
            assert time.monotonic() - t0 < 1.0
    finally:
        cluster.close()


class ScriptedSocket:
    """Stands in for an inbound stream's socket: each ``recv`` returns the
    next of ``chunks``."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, size):
        assert len(self.chunks[0]) <= size
        return self.chunks.pop(0)


# a stream that opens with its HELLO, then frames with and without vectors
STREAM_MESSAGES = [
    PullResponse(TaskId(3, TaskKind.UPDATE), np.random.default_rng(1).standard_normal(7)),
    TaskAssign(TaskId(4, TaskKind.EVALUATION)),
    UpdatePush(1, TaskId(5, TaskKind.UPDATE), np.array([0.5, -0.0, 5e-324])),
    PullResponse(TaskId(6, TaskKind.UPDATE), np.zeros(0)),
    Stop(),
]
STREAM_FRAMES = [protocol.hello("peer"), *map(protocol.encode, STREAM_MESSAGES)]


def _read_chunks(chunks):
    """Hand ``chunks`` to one inbound stream's ``_read``, one per call, and
    return what its node received, as (src, msg) pairs, and the stream."""
    cluster, node = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=5.0), Recorder()
    cluster.register("a", node)
    conn = transport._Connection(ScriptedSocket(chunks), "a", "a")
    for _ in chunks:
        cluster._read(conn)
    assert cluster._failure is None
    assert conn.src == "peer" and conn.where == "a <- peer"
    return [(src, msg) for _, src, msg in node.seen], conn


def _check_vectors(received):
    """Every decoded vector holds the bits that were sent, in a read-only,
    aligned view."""
    assert [msg for _, msg in received] == STREAM_MESSAGES
    for (_, got), sent in zip(received, STREAM_MESSAGES):
        for name, kind in sent._wire:
            if kind == "vec":
                v = getattr(got, name)
                assert v.tobytes() == getattr(sent, name).tobytes()
                assert v.flags.aligned and not v.flags.writeable


@pytest.mark.parametrize("split", ["hello-and-frames-in-one-chunk", "hello-then-frames"])
def test_read_cuts_several_frames_out_of_one_chunk(split):
    whole = b"".join(STREAM_FRAMES)
    chunks = [whole] if split == "hello-and-frames-in-one-chunk" else \
        [STREAM_FRAMES[0], b"".join(STREAM_FRAMES[1:])]
    received, conn = _read_chunks(chunks)
    assert [src for src, _ in received] == ["peer"] * len(STREAM_MESSAGES)
    _check_vectors(received)
    assert not conn.inbuf


def test_read_reassembles_a_frame_split_at_every_byte_offset():
    # two chunks cut the stream anywhere: inside the HELLO, inside a header,
    # at a frame boundary or inside a vector; the earlier runs' vectors stay
    # intact while later runs read on
    whole = b"".join(STREAM_FRAMES)
    runs = []
    for cut in range(1, len(whole)):
        received, conn = _read_chunks([whole[:cut], whole[cut:]])
        assert [src for src, _ in received] == ["peer"] * len(STREAM_MESSAGES)
        assert not conn.inbuf
        runs.append(received)
    for received in runs:
        _check_vectors(received)


def test_read_decodes_a_chunk_that_is_one_frame_without_a_copy():
    received, conn = _read_chunks(STREAM_FRAMES)
    _check_vectors(received)
    assert received[0][1].w.base is STREAM_FRAMES[1]  # a view over the chunk itself
    assert not conn.inbuf


def test_node_without_a_handler_raises():
    with pytest.raises(NotImplementedError):
        Node().handle("a", Stop())


def test_socket_cluster_needs_an_address_for_every_endpoint():
    cluster = SocketCluster({"a": ("127.0.0.1", 0)})
    with pytest.raises(TransportError, match="^no address configured for 'b'$"):
        cluster.register("b", Node())
    cluster.register("a", Node())
    # the send dials nothing: the endpoint has no address to dial
    with pytest.raises(TransportError, match="^unknown endpoint 'b'$"):
        cluster.send("a", "b", Stop())
    assert cluster._socks == []
