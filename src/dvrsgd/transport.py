"""Message delivery between cluster roles: simulated and socket transports.

Both transports honor the same contract:

* exactly-once delivery,
* FIFO order per (sender, receiver) pair,
* each node's handler runs serialized (one event at a time per node),
* ``run_until_quiescent`` runs until the sim's event heap drains or every
  node a socket cluster hosts can shut down, or until the first failure; the
  harness names any node that a drained sim run left unfinished.

``SimCluster`` is a single-threaded discrete-event loop over logical time.
Latencies come from a seeded ``LatencyModel``; deliveries that would overtake
an earlier message on the same pair are clamped to preserve FIFO order, and
ties are broken by a global sequence number, so a fixed seed replays the exact
same schedule.  With ``collect_trace`` on (it is off by default) it records
every send and delivery, in causal order, for invariant checking.

``SocketCluster`` serves every registered node behind real TCP endpoints
speaking the frame format from ``protocol``, from one ``select.epoll`` loop
that ``wait`` runs on the calling thread, so it runs on Linux only.  A pair of
endpoints shares one stream, written from both ends: whichever sends first
dials it, and the other end answers on it, so a reply carries its request's
ACK.  The loop accepts connections, cuts complete frames straight out of each
``recv`` result (a chunk that is one frame is decoded without a copy; only a
frame split across chunks is buffered) and runs the receiving node's handler
inline, so a frame costs one wake-up; outbound frames queue per stream, and
each pass of the loop sends every queue that grew with one non-blocking
``send``.  One table maps each file descriptor that the loop polls to its
stream, or to its listener and endpoint.
It exists to show the same node code runs as an actual distributed program;
the simulator is the substrate for experiments and tests.  The loop returns
once every node it hosts can shut down.  Before that, the first exception from
a node, or the first inbound stream that cannot be read or decoded or that
ends (at a frame boundary or inside a frame), ends it, and ``wait`` raises
that failure as a ``TransportError`` naming the endpoint, or the direction
(``receiver <- sender`` for a read, ``sender -> receiver`` for a send); a run
still unfinished at its timeout raises one naming every endpoint not yet
done.
"""

import functools
import heapq
import itertools
import math
import select
import socket
import time
from dataclasses import dataclass

import numpy as np

from . import protocol

__all__ = ["LatencyModel", "TraceEvent", "Node", "SimCluster", "SocketCluster", "LivelockError",
           "TransportError", "unfinished"]


class TransportError(Exception):
    pass


class LivelockError(TransportError):
    """The simulated event count exceeded ``_MAX_EVENTS``."""


# dispatches a simulated run may take before it counts as a livelock
_MAX_EVENTS = 10_000_000

# random latencies drawn per Generator call: a block of k draws is the
# sequence of k scalar draws, so the block only saves per-call overhead
_LATENCY_BLOCK = 1024

# a connect that hangs would stall every node on the socket loop, so it gets
# its own short bound rather than the run's whole timeout
_CONNECT_TIMEOUT_S = 1.0
_RECV_BYTES = 1 << 18
_IN, _OUT = select.EPOLLIN, select.EPOLLOUT
_HEAD = protocol.FRAME_HEAD.size
_frame_len = protocol.FRAME_HEAD.unpack_from  # a frame's body length, from its header


class LatencyModel:
    """Seeded per-message latency source for the simulated cluster.

    kinds: constant(value), uniform(lo, hi), exponential(mean),
    adversarial (heavy-tailed seeded mixture).  Each parameter a kind reads
    must be finite and >= 0, so logical time never runs backwards.

    ``sample()`` returns the next latency.  It is the ``__next__`` of an
    iterator, so a send pays no Python call for it: ``itertools.repeat`` for
    a constant, else a chain over blocks of ``_LATENCY_BLOCK`` draws, each
    drawn when the one before it runs out.
    """

    _READS = {"constant": ("value",), "uniform": ("lo", "hi"), "exponential": ("mean",),
              "adversarial": ()}
    KINDS = tuple(_READS)

    def __init__(self, kind="constant", *, value=0.0, lo=0.0, hi=1.0, mean=1.0, seed=0):
        if kind not in self.KINDS:
            raise ValueError(f"unknown latency kind {kind!r}")
        self.kind = kind
        self.value = float(value)
        self.lo = float(lo)
        self.hi = float(hi)
        self.mean = float(mean)
        for name in self._READS[kind]:
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{kind} latency {name} must be finite and >= 0, "
                                 f"got {getattr(self, name)!r}")
        if kind == "uniform" and self.lo > self.hi:
            raise ValueError(f"uniform latency needs lo <= hi, got {self.lo!r} > {self.hi!r}")
        if kind == "constant":
            self.sample = itertools.repeat(self.value).__next__
            return
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            draw = functools.partial(rng.uniform, self.lo, self.hi, _LATENCY_BLOCK)
        elif kind == "exponential":
            draw = functools.partial(rng.exponential, self.mean, _LATENCY_BLOCK)
        else:  # adversarial: mostly fast with occasional order-of-magnitude stragglers
            draw = functools.partial(rng.choice, [0.0, 1.0, 5.0, 25.0, 125.0], _LATENCY_BLOCK,
                                     p=[0.3, 0.3, 0.2, 0.15, 0.05])
        # the iterator holds the generator but not the model, so no cycle
        # keeps a finished run's model alive
        blocks = iter(lambda: draw().tolist(), None)
        self.sample = itertools.chain.from_iterable(blocks).__next__


@dataclass(frozen=True)
class TraceEvent:
    """One transport event; 'send' at enqueue time, 'deliver' at dispatch."""

    action: str  # "send" | "deliver"
    time: float
    seq: int
    src: str
    dst: str
    msg: object


def unfinished(nodes: dict) -> str:
    """The endpoints among ``nodes`` that cannot shut down yet."""
    return ", ".join(ep for ep, node in nodes.items() if not node.can_shutdown())


class Node:
    """Base class for cluster roles; subclasses implement ``handle``.

    A transport's ``register`` calls ``bind``, which gives the node two
    callables: ``send(dst, msg)`` sends ``msg`` to endpoint ``dst``, and
    ``after(delay, msg)`` delivers ``msg`` to this node once ``delay`` of
    work has elapsed.
    """

    endpoint = None
    transport = None
    stopped = False

    def bind(self, transport, endpoint: str):
        # the transport's own methods with the endpoint filled in, so a
        # message costs no Python call on the way to them
        self.transport = transport
        self.endpoint = endpoint
        self.send = functools.partial(transport.send, endpoint)
        self.after = functools.partial(transport.schedule, endpoint)

    def on_start(self):
        pass

    def can_shutdown(self) -> bool:
        """True once this node has no further protocol obligations; once
        True it stays True, so a socket loop stops asking."""
        return self.stopped

    def handle(self, src: str, msg):
        raise NotImplementedError


class SimCluster:
    """Deterministic single-threaded event loop over logical time."""

    def __init__(self, latency: LatencyModel | None = None, *, collect_trace: bool = False):
        self.latency = latency or LatencyModel("constant", value=0.0)
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

    def send(self, src: str, dst: str, msg):
        if dst not in self.nodes:
            raise TransportError(f"unknown endpoint {dst!r}")
        when = self.now + self.latency.sample()
        last = self._last_delivery.get((src, dst), 0.0)
        if when < last:  # would overtake the pair's previous message
            when = last
        else:
            self._last_delivery[src, dst] = when
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, src, dst, msg))
        if self.collect_trace:
            self.trace.append(TraceEvent("send", self.now, self._seq, src, dst, msg))

    def schedule(self, endpoint: str, delay: float, msg):
        # local timer (compute completion); not subject to pair FIFO clamping
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, endpoint, endpoint, msg))
        if self.collect_trace:
            self.trace.append(TraceEvent("send", self.now, self._seq, endpoint, endpoint, msg))

    def run_until_quiescent(self) -> list[TraceEvent]:
        """Dispatch events in (time, seq) order until the queue drains.

        Returns the ordered trace (sends interleaved with deliveries in
        causal order), or None when ``collect_trace`` is off.  Raises
        LivelockError past ``_MAX_EVENTS`` dispatches.
        """
        if not self._started:
            self._started = True
            for node in self.nodes.values():
                node.on_start()
        heap, pop, nodes = self._heap, heapq.heappop, self.nodes
        trace = self.trace if self.collect_trace else None
        for _ in range(_MAX_EVENTS + 1):
            if not heap:
                return trace
            when, seq, src, dst, msg = pop(heap)
            self.now = when
            if trace is not None:
                trace.append(TraceEvent("deliver", when, seq, src, dst, msg))
            nodes[dst].handle(src, msg)
        raise LivelockError(f"exceeded {_MAX_EVENTS} events without quiescing")


class _Connection:
    """One end of a TCP stream on the loop, read and written by ``endpoint``:
    received bytes not yet cut into frames and queued bytes not yet sent.
    ``src`` is the far end, the sender of what is read here and the receiver
    of what is written; ``where`` names a read in a failure."""

    __slots__ = ("sock", "endpoint", "where", "src", "inbuf", "outbuf")

    def __init__(self, sock: socket.socket, endpoint: str, where: str, src: str | None = None):
        self.sock = sock
        self.endpoint = endpoint
        self.where = where
        self.src = src  # known at a dial, else read from the HELLO
        self.inbuf = bytearray()
        self.outbuf = bytearray()


class SocketCluster:
    """TCP transport: every endpoint listens and dials a peer at its first
    send to it, unless the peer dialed first; each direction keeps the first
    stream it was given, so a pair has one stream unless both ends dialed
    before either accepted.  One epoll loop, run on the calling thread by
    ``wait``, accepts, reads, writes and runs every node's handler inline
    until every node can shut down or the first failure."""

    def __init__(self, addresses: dict[str, tuple[str, int]], *, timeout: float = 60.0):
        # the bound on a whole run, on which every connect and every select waits
        if not 0.0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {timeout!r}")
        self.addresses = dict(addresses)
        self.timeout = timeout
        self.nodes: dict[str, Node] = {}
        self._live: list[Node] = []  # the nodes that could not yet shut down
        # every socket opened, by file descriptor: a stream's _Connection, or
        # a listener and the endpoint it serves
        self._fds: dict[int, _Connection | tuple[socket.socket, str]] = {}
        self._conns: dict[tuple[str, str], _Connection] = {}  # each direction's, by (src, dst)
        self._unsent: list[_Connection] = []  # queues for the next _send_unsent
        self._epoll: select.epoll | None = None
        self._t0 = time.monotonic()
        self._failure: tuple[str, Exception] | None = None

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def register(self, endpoint: str, node: Node):
        if endpoint not in self.addresses:
            raise TransportError(f"no address configured for {endpoint!r}")
        if endpoint in self.nodes:
            raise ValueError(f"endpoint {endpoint!r} already registered")
        self.nodes[endpoint] = node
        self._live.append(node)
        node.bind(self, endpoint)

    def start(self):
        """Bind every hosted endpoint's listener; ``wait`` serves them."""
        self._epoll = select.epoll()
        for endpoint in self.nodes:
            host, port = self.addresses[endpoint]
            # each endpoint dials this one at most once, and the loop may be
            # busy in a connect of its own while the dials arrive, so the
            # kernel must be able to hold all of them unaccepted
            srv = socket.create_server((host, port), backlog=len(self.addresses))
            self._fds[srv.fileno()] = (srv, endpoint)
            srv.setblocking(False)
            # rebind in case port 0 was requested
            self.addresses[endpoint] = (host, srv.getsockname()[1])
            self._epoll.register(srv.fileno(), _IN)

    def _quiescent(self) -> bool:
        # a node that can shut down stays able to (Node.can_shutdown), so
        # it is dropped and never asked again
        live = self._live
        while live and live[-1].can_shutdown():
            live.pop()
        return not live

    def wait(self):
        """Start every node and run the loop on the calling thread until
        every node can shut down; raise the first failure, or a
        ``TransportError`` once ``timeout`` has passed."""
        deadline = time.monotonic() + self.timeout
        for endpoint, node in self.nodes.items():
            try:
                node.on_start()
            except Exception as exc:  # the node is broken: stop every node
                self._fail(endpoint, exc)
                break
        # the loop's lookups, made once per run rather than once per event
        poll, modify, fds = self._epoll.poll, self._epoll.modify, self._fds
        read, send_unsent, quiescent = self._read, self._send_unsent, self._quiescent
        send_unsent()
        while self._failure is None and not quiescent():
            left = deadline - time.monotonic()
            if left <= 0:
                raise TransportError(f"cluster did not finish within {self.timeout}s; "
                                     f"not done: {unfinished(self.nodes)}")
            for fd, mask in poll(left):
                if self._failure is not None:  # drop the rest of the batch
                    break
                entry = fds[fd]
                if entry.__class__ is tuple:  # a listener and its endpoint
                    self._accept(*entry)
                    continue
                if mask & _OUT:
                    # the stream can take more: back on the list to send
                    modify(fd, _IN)
                    self._unsent.append(entry)
                if mask & ~_OUT:  # EPOLLIN, or EPOLLHUP or EPOLLERR: recv finds it
                    read(entry)
            send_unsent()
        if self._failure is not None:
            where, exc = self._failure
            raise TransportError(f"{where}: {exc!r}") from exc

    def _accept(self, srv: socket.socket, endpoint: str):
        try:
            sock, _ = srv.accept()
        except BlockingIOError:
            return
        except OSError as exc:
            self._fail(endpoint, exc)
            return
        self._fds[sock.fileno()] = _Connection(sock, endpoint, endpoint)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # this end writes too
        sock.setblocking(False)
        self._epoll.register(sock.fileno(), _IN)

    def _read(self, conn: _Connection):
        """Take what the stream has, and hand every complete frame in it to
        the receiving node; an accepted stream's first frame must be the
        HELLO that names the sender (``protocol.read_hello``), and the
        receiver then writes its own frames to that sender here too, unless
        it already has a stream for them.  A chunk that is one frame is
        decoded as it is, any other frame is one slice of immutable bytes, and
        only a partial frame waits in ``inbuf`` for the rest of its bytes."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
            if not data:
                if conn.inbuf:
                    raise protocol.DecodeError("stream ended inside a frame")
                if not self._quiescent():
                    raise ConnectionError("peer closed the stream while the run was live")
                return  # the loop ends after this pass, and close() closes the stream
            buf = conn.inbuf
            if buf:  # a frame's first bytes came in an earlier chunk
                buf += data
                if len(buf) < _HEAD or len(buf) < _HEAD + _frame_len(buf)[0]:
                    return
                data = bytes(buf)
                buf.clear()
            # looked up per read, not per frame, but still at call time
            decode, handle, src = protocol.decode, self.nodes[conn.endpoint].handle, conn.src
            pos, have = 0, len(data)
            while have - pos >= _HEAD:
                end = pos + _HEAD + _frame_len(data, pos)[0]
                if end > have:
                    break
                frame = data[pos:end]  # the chunk itself when it is one frame
                pos = end
                if src is None:
                    src = conn.src = protocol.read_hello(frame)
                    conn.where = f"{conn.endpoint} <- {src}"
                    self._conns.setdefault((conn.endpoint, src), conn)
                    continue
                msg = decode(frame)
                try:
                    handle(src, msg)
                except Exception as exc:  # the node is broken: stop every node
                    self._fail(conn.endpoint, exc)
                    return
            if pos < have:
                buf += data[pos:]
        except BlockingIOError:
            pass
        except (OSError, ValueError, protocol.DecodeError) as exc:
            self._fail(conn.where, exc)

    def _dial(self, src: str, dst: str) -> _Connection:
        """Connect a stream to ``dst`` at ``src``'s first send to it, queue
        its HELLO and read ``dst``'s frames to ``src`` from it too."""
        if dst not in self.addresses:
            raise TransportError(f"unknown endpoint {dst!r}")
        host, port = self.addresses[dst]
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(self.timeout, _CONNECT_TIMEOUT_S))
        except OSError as exc:
            raise TransportError(f"cannot connect {src} -> {dst}: {exc}") from exc
        conn = self._fds[sock.fileno()] = _Connection(sock, src, f"{src} <- {dst}", dst)
        self._conns[(src, dst)] = conn
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn.outbuf += protocol.hello(src)
        self._unsent.append(conn)
        self._epoll.register(sock.fileno(), _IN)
        return conn

    def _send_unsent(self):
        """Send every queue on the list; the only code that sends.  A queue
        joins the list when it gains bytes or when its socket becomes
        writable again; what a socket does not take waits for EPOLLOUT,
        which the socket's registration adds to EPOLLIN meanwhile."""
        unsent, self._unsent = self._unsent, []
        for conn in unsent:
            try:
                sent = conn.sock.send(conn.outbuf)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                self._fail(f"{conn.endpoint} -> {conn.src}", exc)
                return
            del conn.outbuf[:sent]
            if conn.outbuf:
                self._epoll.modify(conn.sock.fileno(), _IN | _OUT)

    def send(self, src: str, dst: str, msg):
        """Queue ``msg``'s frame behind the unsent bytes of src's stream to dst;
        called from node code, inside the loop.  The loop sends each stream's
        queue once per pass, so frames queued in one pass go out in one
        ``send``."""
        conn = self._conns.get((src, dst)) or self._dial(src, dst)
        if not conn.outbuf:
            self._unsent.append(conn)
        conn.outbuf += protocol.encode(msg)

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
        """Close every socket and the epoll object."""
        for entry in self._fds.values():
            (entry[0] if entry.__class__ is tuple else entry.sock).close()
        self._fds.clear()
        self._conns.clear()
        if self._epoll is not None:
            self._epoll.close()
