"""Message delivery between cluster roles: simulated and socket transports.

Both transports honor the same contract:

* exactly-once delivery,
* FIFO order per (sender, receiver) pair,
* each node's handler runs serialized (one event at a time per node),
* ``run_until_quiescent`` runs the cluster until every hosted node reports
  ``can_shutdown()``, or until the first failure.

``SimCluster`` is a single-threaded discrete-event loop over logical time.
Latencies come from a seeded ``LatencyModel``; deliveries that would overtake
an earlier message on the same pair are clamped to preserve FIFO order, and
ties are broken by a global sequence number, so a fixed seed replays the exact
same schedule.  It records a full event trace for invariant checking.

``SocketCluster`` serves every registered node behind real TCP endpoints
speaking the frame format from ``protocol``, from one ``selectors`` loop that
``wait`` runs on the calling thread.  The loop accepts connections, cuts
complete frames out of each inbound stream's buffer and runs the receiving
node's handler inline, so a frame costs one wake-up; outbound frames queue
per connection, and each pass of the loop sends every queue that grew with
one non-blocking ``send``.
It exists to show the same node code runs as an actual distributed program;
the simulator is the substrate for experiments and tests.  The loop returns
once every node it hosts can shut down.  Before that, the first exception from
a node, or the first inbound stream that cannot be read or decoded or that
ends (at a frame boundary or inside a frame), ends it, and ``wait`` raises
that failure as a ``TransportError`` naming the endpoint.
"""

import heapq
import selectors
import socket
import struct
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

# a connect that hangs would stall every node on the socket loop, so it gets
# its own short bound rather than the run's whole timeout
_CONNECT_TIMEOUT_S = 1.0
_RECV_BYTES = 1 << 18
_FRAME_HEAD = struct.Struct("<I")


class LatencyModel:
    """Seeded per-message latency source for the simulated cluster.

    kinds: constant(value), uniform(lo, hi), exponential(mean),
    adversarial (heavy-tailed seeded mixture).
    """

    KINDS = ("constant", "uniform", "exponential", "adversarial")

    def __init__(self, kind="constant", *, value=0.0, lo=0.0, hi=1.0, mean=1.0, seed=0):
        if kind not in self.KINDS:
            raise ValueError(f"unknown latency kind {kind!r}")
        self.kind = kind
        self.value = float(value)
        self.lo = float(lo)
        self.hi = float(hi)
        self.mean = float(mean)
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
    stopped = False

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
        return self.stopped

    def handle(self, src: str, msg):
        raise NotImplementedError


class SimCluster:
    """Deterministic single-threaded event loop over logical time."""

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
        causal order), or None when ``collect_trace`` is off.  Raises
        LivelockError past ``max_events`` dispatches.
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
        return self.trace if self.collect_trace else None


class _Connection:
    """One TCP stream on the loop: received bytes not yet cut into frames and
    queued bytes not yet sent.  ``endpoint`` is the receiving node of an
    inbound stream and the sender of an outbound one; ``where`` names the
    stream in a failure."""

    __slots__ = ("sock", "endpoint", "where", "src", "inbuf", "outbuf")

    def __init__(self, sock: socket.socket, endpoint: str, where: str):
        self.sock = sock
        self.endpoint = endpoint
        self.where = where
        self.src = None  # an inbound stream's sender, from its HELLO frame
        self.inbuf = bytearray()
        self.outbuf = bytearray()


class SocketCluster:
    """TCP transport: every endpoint listens and dials peers lazily, one
    connection per (sender, receiver) pair, and one selector loop, run on the
    calling thread by ``wait``, accepts, reads, writes and runs every node's
    handler inline until every node can shut down or the first failure."""

    def __init__(self, addresses: dict[str, tuple[str, int]], *, timeout: float = 60.0):
        self.addresses = dict(addresses)
        self.timeout = timeout
        self.nodes: dict[str, Node] = {}
        self._listeners: dict[str, socket.socket] = {}
        self._conns: dict[tuple[str, str], _Connection] = {}
        self._accepted: set[_Connection] = set()
        self._unsent: list[_Connection] = []  # gained bytes since the last _send_unsent
        self._sel: selectors.BaseSelector | None = None
        self._t0 = time.monotonic()
        self._failure: tuple[str, Exception] | None = None

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def register(self, endpoint: str, node: Node):
        if endpoint not in self.addresses:
            raise TransportError(f"no address configured for {endpoint!r}")
        self.nodes[endpoint] = node
        node.bind(self, endpoint)

    def bound_port(self, endpoint: str) -> int:
        return self._listeners[endpoint].getsockname()[1]

    def start(self):
        """Bind every hosted endpoint's listener; ``wait`` serves them."""
        self._sel = selectors.DefaultSelector()
        for endpoint in self.nodes:
            host, port = self.addresses[endpoint]
            # each endpoint dials this one at most once, and the loop may be
            # busy in a connect of its own while the dials arrive, so the
            # kernel must be able to hold all of them unaccepted
            srv = socket.create_server((host, port), backlog=len(self.addresses))
            srv.setblocking(False)
            self._listeners[endpoint] = srv
            # rebind in case port 0 was requested
            self.addresses[endpoint] = (host, srv.getsockname()[1])
            self._sel.register(srv, selectors.EVENT_READ, endpoint)

    def _quiescent(self) -> bool:
        return all(node.can_shutdown() for node in self.nodes.values())

    def wait(self):
        """Start every node and run the loop on the calling thread until
        every node can shut down; raise the first failure, or a
        ``TransportError`` once ``timeout`` has passed."""
        deadline = time.monotonic() + self.timeout
        for endpoint, node in self.nodes.items():
            self._run_node(endpoint, node.on_start)
            if self._failure is not None:
                break
        self._send_unsent()
        while self._failure is None and not self._quiescent():
            left = deadline - time.monotonic()
            if left <= 0:
                raise TransportError(f"cluster did not finish within {self.timeout}s")
            for key, mask in self._sel.select(left):
                if self._failure is not None:  # drop the rest of the batch
                    break
                data = key.data
                if isinstance(data, str):
                    self._accept(key.fileobj, data)
                elif mask & selectors.EVENT_WRITE:
                    self._flush(data)
                else:
                    self._read(data)
            self._send_unsent()
        if self._failure is not None:
            where, exc = self._failure
            raise TransportError(f"{where}: {exc!r}") from exc

    def _run_node(self, endpoint: str, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # the node is broken: stop every node
            self._fail(endpoint, exc)

    def _accept(self, srv: socket.socket, endpoint: str):
        try:
            sock, _ = srv.accept()
        except BlockingIOError:
            return
        except OSError as exc:
            self._fail(endpoint, exc)
            return
        sock.setblocking(False)
        conn = _Connection(sock, endpoint, endpoint)
        self._accepted.add(conn)
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection):
        """Take what the stream has, and hand every complete frame in the
        buffer to the receiving node; the first frame is the HELLO."""
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
            if not chunk:
                if conn.inbuf:
                    raise protocol.DecodeError("stream ended inside a frame")
                if not self._quiescent():
                    raise ConnectionError("peer closed the stream while the run was live")
                self._sel.unregister(conn.sock)
                conn.sock.close()
                self._accepted.discard(conn)
                return
            buf = conn.inbuf
            buf += chunk
            pos, have = 0, len(buf)
            while have - pos >= 4:
                end = pos + 4 + _FRAME_HEAD.unpack_from(buf, pos)[0]
                if end > have:
                    break
                frame = bytes(buf[pos:end])
                pos = end
                if conn.src is None:
                    conn.src = frame[5:].decode("utf-8")
                    conn.where = f"{conn.endpoint} <- {conn.src}"
                    continue
                msg = protocol.decode(frame)
                self._run_node(conn.endpoint, self.nodes[conn.endpoint].handle, conn.src, msg)
                if self._failure is not None:
                    return
            del buf[:pos]
        except BlockingIOError:
            pass
        except (OSError, ValueError, protocol.DecodeError) as exc:
            self._fail(conn.where, exc)

    def _dial(self, src: str, dst: str) -> _Connection:
        host, port = self.addresses[dst]
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(self.timeout, _CONNECT_TIMEOUT_S))
        except OSError as exc:
            raise TransportError(f"cannot connect {src} -> {dst}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = self._conns[(src, dst)] = _Connection(sock, src, f"{src} -> {dst}")
        hello = src.encode("utf-8")
        self._write(conn, _FRAME_HEAD.pack(len(hello) + 1) + b"\x00" + hello)
        return conn

    def _write(self, conn: _Connection, frame: bytes):
        """Queue ``frame`` behind the stream's unsent bytes; the loop sends
        each stream's queue once per pass, so frames written in one pass go
        out in one ``send``."""
        if not conn.outbuf:
            self._unsent.append(conn)
        conn.outbuf += frame

    def _send_unsent(self):
        """Send every queue that gained bytes since the last call; what a
        socket does not take waits for EVENT_WRITE and ``_flush``."""
        unsent, self._unsent = self._unsent, []
        for conn in unsent:
            try:
                sent = conn.sock.send(conn.outbuf)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                self._fail(conn.where, exc)
                return
            del conn.outbuf[:sent]
            if conn.outbuf:
                self._sel.register(conn.sock, selectors.EVENT_WRITE, conn)

    def _flush(self, conn: _Connection):
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError as exc:
            self._fail(conn.where, exc)
            return
        del conn.outbuf[:sent]
        if not conn.outbuf:
            self._sel.unregister(conn.sock)

    def send(self, src: str, dst: str, msg):
        """Queue ``msg`` on the (src, dst) stream; called from node code,
        inside the loop."""
        if dst not in self.addresses:
            raise TransportError(f"unknown endpoint {dst!r}")
        conn = self._conns.get((src, dst)) or self._dial(src, dst)
        self._write(conn, protocol.encode(msg))

    def schedule(self, endpoint: str, delay: float, msg):
        # real compute time already elapsed; run the completion inline
        self.nodes[endpoint].handle(endpoint, msg)

    def _fail(self, where: str, exc: Exception):
        """Record the first failure of any node or stream, which ends the
        loop; a later one is a consequence of it and is dropped."""
        if self._failure is None:
            self._failure = (where, exc)

    def run_until_quiescent(self) -> None:
        """Bind, run the loop until every node can shut down and close every
        socket; no trace is kept."""
        try:
            self.start()
            self.wait()
        finally:
            self.close()

    def close(self):
        """Close every socket and the selector."""
        socks = [*self._listeners.values(), *(c.sock for c in self._conns.values()),
                 *(c.sock for c in self._accepted)]
        for sock_ in socks:
            sock_.close()
        self._listeners.clear()
        self._conns.clear()
        self._accepted.clear()
        if self._sel is not None:
            self._sel.close()
