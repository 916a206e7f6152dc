"""Message delivery between cluster roles: simulated and socket transports.

Both transports honor the same contract:

* exactly-once delivery,
* FIFO order per (sender, receiver) pair,
* each node's handler runs serialized (one event at a time per node).

``SimCluster`` is a single-threaded discrete-event loop over logical time.
Latencies come from a seeded ``LatencyModel``; deliveries that would overtake
an earlier message on the same pair are clamped to preserve FIFO order, and
ties are broken by a global sequence number, so a fixed seed replays the exact
same schedule.  It records a full event trace for invariant checking.

``SocketCluster`` runs every registered node on its own driver thread behind a
real TCP endpoint, speaking the frame format from ``protocol``.  It exists to
show the same node code runs as an actual distributed program; the simulator
is the substrate for experiments and tests.  The first exception from a node's
handler, or the first frame a reader cannot decode, stops the cluster, and
``wait`` re-raises it as a ``TransportError`` naming the endpoint.
"""

import heapq
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import protocol

__all__ = ["LatencyModel", "TraceEvent", "Node", "SimCluster", "SocketCluster", "LivelockError", "TransportError"]


class TransportError(Exception):
    pass


class LivelockError(TransportError):
    """The simulated event count exceeded its configured bound."""


# random latencies drawn per Generator call: a block of k draws is the
# sequence of k scalar draws, so the block only saves per-call overhead
_LATENCY_BLOCK = 1024


class LatencyModel:
    """Seeded per-message latency source for the simulated cluster.

    kinds: constant(value), uniform(lo, hi), exponential(mean),
    adversarial (heavy-tailed seeded mixture), trace (explicit cycle).
    """

    KINDS = ("constant", "uniform", "exponential", "adversarial", "trace")

    def __init__(self, kind="constant", *, value=0.0, lo=0.0, hi=1.0, mean=1.0,
                 trace=None, seed=0):
        if kind not in self.KINDS:
            raise ValueError(f"unknown latency kind {kind!r}")
        if kind == "trace" and not trace:
            raise ValueError("trace latency model needs a nonempty trace")
        self.kind = kind
        self.value = float(value)
        self.lo = float(lo)
        self.hi = float(hi)
        self.mean = float(mean)
        self.trace = [float(t) for t in trace] if trace else None
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._pos = 0
        self._block: list[float] = []

    def _draw(self, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return self._rng.uniform(self.lo, self.hi, size)
        if self.kind == "exponential":
            return self._rng.exponential(self.mean, size)
        # adversarial: mostly fast with occasional order-of-magnitude stragglers
        return self._rng.choice([0.0, 1.0, 5.0, 25.0, 125.0], size,
                                p=[0.3, 0.3, 0.2, 0.15, 0.05])

    def sample(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "trace":
            v = self.trace[self._pos % len(self.trace)]
        else:
            if self._pos == len(self._block):
                self._block = self._draw(_LATENCY_BLOCK).tolist()
                self._pos = 0
            v = self._block[self._pos]
        self._pos += 1
        return v


@dataclass(frozen=True)
class TraceEvent:
    """One transport event; 'send' at enqueue time, 'deliver' at dispatch."""

    action: str  # "send" | "deliver"
    time: float
    seq: int
    src: str
    dst: str
    msg: object


class Node:
    """Base class for cluster roles; subclasses implement ``handle``."""

    endpoint = None
    transport = None

    def bind(self, transport, endpoint: str):
        self.transport = transport
        self.endpoint = endpoint

    def send(self, dst: str, msg):
        self.transport.send(self.endpoint, dst, msg)

    def after(self, delay: float, msg):
        """Deliver ``msg`` to this node once ``delay`` of work has elapsed."""
        self.transport.schedule(self.endpoint, delay, msg)

    @property
    def now(self) -> float:
        return self.transport.now

    def on_start(self):
        pass

    def can_shutdown(self) -> bool:
        """True once this node has no further protocol obligations."""
        return getattr(self, "stopped", False) or getattr(self, "done", False)

    def handle(self, src: str, msg):
        raise NotImplementedError


class SimCluster:
    """Deterministic single-threaded event loop over logical time."""

    virtual_time = True

    def __init__(self, latency: LatencyModel | None = None, *, max_events: int = 10_000_000,
                 collect_trace: bool = True):
        self.latency = latency or LatencyModel("constant", value=0.0)
        self.max_events = max_events
        self.collect_trace = collect_trace
        self.nodes: dict[str, Node] = {}
        self.now = 0.0
        self.trace: list[TraceEvent] = []
        self._heap = []
        self._seq = 0
        self._last_delivery: dict[tuple[str, str], float] = {}
        self._started = False

    def register(self, endpoint: str, node: Node):
        if endpoint in self.nodes:
            raise ValueError(f"endpoint {endpoint!r} already registered")
        self.nodes[endpoint] = node
        node.bind(self, endpoint)

    def _push(self, when: float, src: str, dst: str, msg):
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, src, dst, msg))
        if self.collect_trace:
            self.trace.append(TraceEvent("send", self.now, self._seq, src, dst, msg))

    def send(self, src: str, dst: str, msg):
        if dst not in self.nodes:
            raise TransportError(f"unknown endpoint {dst!r}")
        pair = (src, dst)
        when = max(self.now + self.latency.sample(), self._last_delivery.get(pair, 0.0))
        self._last_delivery[pair] = when
        self._push(when, src, dst, msg)

    def schedule(self, endpoint: str, delay: float, msg):
        # local timer (compute completion); not subject to pair FIFO clamping
        self._push(self.now + delay, endpoint, endpoint, msg)

    def run_until_quiescent(self) -> list[TraceEvent]:
        """Dispatch events in (time, seq) order until the queue drains.

        Returns the ordered trace (sends interleaved with deliveries in
        causal order).  Raises LivelockError past ``max_events`` dispatches.
        """
        if not self._started:
            self._started = True
            for node in self.nodes.values():
                node.on_start()
        dispatched = 0
        while self._heap:
            when, seq, src, dst, msg = heapq.heappop(self._heap)
            self.now = when
            if self.collect_trace:
                self.trace.append(TraceEvent("deliver", when, seq, src, dst, msg))
            self.nodes[dst].handle(src, msg)
            dispatched += 1
            if dispatched > self.max_events:
                raise LivelockError(f"exceeded {self.max_events} events without quiescing")
        return self.trace


class _Connection:
    """One outbound framed TCP stream with a HELLO preamble."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()

    def send_frame(self, frame: bytes):
        with self.lock:
            self.sock.sendall(frame)


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _read_frame(sock: socket.socket) -> bytes | None:
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (body_len,) = struct.unpack("<I", head)
    body = _read_exact(sock, body_len)
    if body is None:
        return None
    return head + body


class SocketCluster:
    """TCP transport: every endpoint listens, dials peers lazily, and runs its
    node on a dedicated driver thread fed by a serialized inbox."""

    virtual_time = False

    def __init__(self, addresses: dict[str, tuple[str, int]], *, timeout: float = 60.0):
        self.addresses = dict(addresses)
        self.timeout = timeout
        self.nodes: dict[str, Node] = {}
        self._inboxes: dict[str, queue.Queue] = {}
        self._listeners: dict[str, socket.socket] = {}
        self._conns: dict[tuple[str, str], _Connection] = {}
        self._conn_lock = threading.Lock()
        self._accepted: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._t0 = time.monotonic()
        self._stopping = threading.Event()
        self._failure: tuple[str, Exception] | None = None

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def register(self, endpoint: str, node: Node):
        if endpoint not in self.addresses:
            raise TransportError(f"no address configured for {endpoint!r}")
        self.nodes[endpoint] = node
        self._inboxes[endpoint] = queue.Queue()
        node.bind(self, endpoint)

    def bound_port(self, endpoint: str) -> int:
        return self._listeners[endpoint].getsockname()[1]

    def start(self):
        for endpoint in self.nodes:
            host, port = self.addresses[endpoint]
            srv = socket.create_server((host, port))
            self._listeners[endpoint] = srv
            # rebind in case port 0 was requested
            self.addresses[endpoint] = (host, srv.getsockname()[1])
        for endpoint, node in self.nodes.items():
            t = threading.Thread(target=self._accept_loop, args=(endpoint,),
                                 name=f"accept-{endpoint}", daemon=True)
            t.start()
            self._threads.append(t)
            d = threading.Thread(target=self._drive, args=(endpoint, node),
                                 name=f"drive-{endpoint}", daemon=True)
            d.start()
            self._threads.append(d)
        for node in self.nodes.values():
            node.on_start()

    def _accept_loop(self, endpoint: str):
        srv = self._listeners[endpoint]
        srv.settimeout(0.2)
        while not self._stopping.is_set():
            try:
                conn, _ = srv.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._conn_lock:
                if self._stopping.is_set():
                    # close() has begun and may be past the list already
                    conn.close()
                    return
                self._accepted.append(conn)
            threading.Thread(target=self._reader, args=(endpoint, conn),
                             name=f"read-{endpoint}", daemon=True).start()

    def _reader(self, endpoint: str, conn: socket.socket):
        where = endpoint
        try:
            hello = _read_frame(conn)
            if hello is None:
                return
            src = hello[5:].decode("utf-8")
            where = f"{endpoint} <- {src}"
            inbox = self._inboxes[endpoint]
            while (frame := _read_frame(conn)) is not None:
                inbox.put((src, protocol.decode(frame)))
        except (OSError, protocol.DecodeError) as exc:
            # close() may close the socket under a blocked or starting reader;
            # before that, an unreadable stream is a fault
            if not self._stopping.is_set():
                self._fail(where, exc)

    def _dial(self, src: str, dst: str) -> _Connection:
        key = (src, dst)
        with self._conn_lock:
            conn = self._conns.get(key)
            if conn is None:
                host, port = self.addresses[dst]
                try:
                    raw = socket.create_connection((host, port), timeout=self.timeout)
                except OSError as exc:
                    raise TransportError(f"cannot connect {src} -> {dst}: {exc}") from exc
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection(raw)
                hello = src.encode("utf-8")
                conn.send_frame(struct.pack("<I", len(hello) + 1) + b"\x00" + hello)
                self._conns[key] = conn
        return conn

    def send(self, src: str, dst: str, msg):
        if dst not in self.addresses:
            raise TransportError(f"unknown endpoint {dst!r}")
        self._dial(src, dst).send_frame(protocol.encode(msg))

    def schedule(self, endpoint: str, delay: float, msg):
        # real compute time already elapsed; run the completion inline
        self.nodes[endpoint].handle(endpoint, msg)

    def _drive(self, endpoint: str, node: Node):
        inbox = self._inboxes[endpoint]
        while not self._stopping.is_set():
            try:
                src, msg = inbox.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                node.handle(src, msg)
            except Exception as exc:  # the node is broken: stop every node
                self._fail(endpoint, exc)
                return
            if node.can_shutdown():
                return

    def _fail(self, where: str, exc: Exception):
        """Record the first failure of any node or reader and stop the cluster."""
        with self._conn_lock:
            if self._failure is None:
                self._failure = (where, exc)
        self._stopping.set()

    def _raise_failure(self):
        if self._failure is not None:
            where, exc = self._failure
            raise TransportError(f"{where}: {exc!r}") from exc

    def wait(self, done: threading.Event):
        """Block until ``done`` is set; raise the first node or reader failure
        as soon as it happens, or a ``TransportError`` after the timeout."""
        deadline = time.monotonic() + self.timeout
        while not done.wait(0.05):
            self._raise_failure()
            if time.monotonic() >= deadline:
                raise TransportError(f"cluster did not finish within {self.timeout}s")
        # let STOP frames and any final-round pushes land before teardown
        deadline = time.monotonic() + self.timeout
        while time.monotonic() < deadline:
            self._raise_failure()
            if all(n.can_shutdown() for n in self.nodes.values()):
                break
            time.sleep(0.01)

    def close(self):
        self._stopping.set()
        for srv in self._listeners.values():
            try:
                srv.close()
            except OSError:
                pass
        with self._conn_lock:
            for conn in self._conns.values():
                try:
                    conn.sock.close()
                except OSError:
                    pass
            self._conns.clear()
            for sock_ in self._accepted:
                # shutdown wakes the reader blocked in recv; close alone
                # leaves the connection open until that recv returns
                try:
                    sock_.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has gone already
                sock_.close()
            self._accepted.clear()
