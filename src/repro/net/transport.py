"""The transport seam: where simulated and live deployments diverge.

Everything above this module — the protocol automata, the history
recorder, the spec checkers — is transport-agnostic. A
:class:`Transport` moves ``(src, dst, payload)`` triples between named
processes and tells locally attached processes about arrivals; the two
backends are:

* :class:`SimTransport` — the existing simulator. Deliveries run through
  the scheduler, the latency adversary and the per-pair channel policies,
  so code written against the seam inherits every deterministic-replay
  guarantee of the sim.
* :class:`StreamTransport` — asyncio TCP or unix-domain streams framed by
  a ``repro-wire`` codec (:mod:`repro.net.wire`; v2 binary by default,
  v1 JSON by configuration). Deliveries are whenever the kernel says so;
  determinism of the *schedule* is explicitly not promised (see
  ``docs/LIVE.md``), only faithfulness of the payloads.

Both directions share :class:`~repro.sim.tracing.MessageStats`, so the
message-complexity accounting of live runs is comparable with simulated
ones.

:class:`StreamConnection` is an :class:`asyncio.BufferedProtocol`, not a
StreamReader pump: the socket reads into one reusable buffer per
connection, inbound bytes dispatch synchronously from ``data_received``
(no per-frame task wakeups), and outbound envelopes
*coalesce* — encoded frames accumulate in a buffer that flushes either on
the next event-loop tick (``call_soon``) or as soon as it crosses a
tunable watermark, so a burst of n messages to one peer costs one
``send(2)`` instead of n. TCP_NODELAY (asyncio's default) makes the
flush leave the host immediately; the watermark bounds latency under
sustained load.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

from repro.net.wire import (
    DEFAULT_WIRE,
    FrameAssembler,
    WireError,
    get_codec,
)
from repro.sim.environment import SimEnvironment
from repro.sim.messages import Envelope
from repro.sim.process import Process
from repro.sim.tracing import MessageStats

__all__ = [
    "Transport",
    "SimTransport",
    "StreamConnection",
    "StreamTransport",
    "HostFlusher",
    "DEFAULT_FLUSH_WATERMARK",
    "parse_address",
    "format_address",
    "open_frame_connection",
    "start_frame_server",
]

ReceiveFn = Callable[[str, Any], None]


class Transport(ABC):
    """Moves payloads between named processes.

    A transport instance serves one *host* — the group of processes living
    in the caller's address space (one daemon's server, one endpoint's
    client). ``attach`` declares those local processes; ``send`` routes to
    anyone reachable, local or remote.
    """

    def __init__(self) -> None:
        self.stats = MessageStats()

    @abstractmethod
    def attach(self, pid: str, receive: ReceiveFn) -> None:
        """Register a local process; ``receive(src, payload)`` on arrival."""

    @abstractmethod
    def send(self, src: str, dst: str, payload: Any) -> None:
        """Best-effort delivery of ``payload`` to ``dst``.

        Unroutable destinations are dropped and counted, mirroring
        :meth:`repro.sim.network.Network.send` — corrupted server state
        can name phantom readers, and that must not crash a live daemon
        any more than it crashes the sim.
        """


# ----------------------------------------------------------------------
# backend 1: the simulator
# ----------------------------------------------------------------------
class _SimStub(Process):
    """A sim process standing in for a transport-attached endpoint."""

    def __init__(self, pid: str, env: SimEnvironment, receive: ReceiveFn) -> None:
        super().__init__(pid, env)
        self._receive = receive

    def on_message(self, src: str, payload: Any) -> None:
        self._receive(src, payload)


class SimTransport(Transport):
    """The deterministic simulator as a transport backend.

    Attached processes become first-class sim processes: deliveries obey
    the environment's adversary, channel policies and event ordering, and
    draining ``env`` drives all pending traffic. Useful for exercising
    transport-seam machinery under the full replay discipline before
    pointing it at real sockets.
    """

    def __init__(self, env: SimEnvironment) -> None:
        super().__init__()
        self.env = env
        self.stats = env.network.stats  # share the sim's accounting

    def attach(self, pid: str, receive: ReceiveFn) -> None:
        _SimStub(pid, self.env, receive)

    def send(self, src: str, dst: str, payload: Any) -> None:
        self.env.network.send(src, dst, payload)


# ----------------------------------------------------------------------
# backend 2: asyncio protocols
# ----------------------------------------------------------------------
#: Flush the coalescing buffer immediately once it holds this many bytes;
#: below it, frames batch until the end of the current dispatch burst. 64
#: KiB keeps a full quorum round's worth of replies in one syscall without
#: letting an open-loop burst build unbounded latency in user space.
DEFAULT_FLUSH_WATERMARK = 64 * 1024

#: Per-connection receive buffer. A read larger than this is split across
#: reads, and the assembler carries partial frames between them.
READ_BUFFER_SIZE = 64 * 1024


class HostFlusher:
    """End-of-burst write coalescing shared by one host's connections.

    A protocol step usually emits its sends *synchronously* — a server
    answers from inside ``data_received``, a client fires the next phase's
    broadcast from inside the reply dispatch. Connections mark themselves
    dirty as frames accumulate; whoever finishes a dispatch burst calls
    :meth:`flush` and every buffered frame leaves in one write per
    connection. A ``call_soon`` backstop covers sends that originate
    outside any burst (an operation's opening broadcast from a coroutine),
    costing one loop callback per burst instead of one per frame.
    """

    __slots__ = ("_dirty", "_scheduled", "_in_burst")

    def __init__(self) -> None:
        self._dirty: list["StreamConnection"] = []
        self._scheduled = False
        # True while a connection of this host is inside data_received:
        # the end-of-burst flush is guaranteed, so marks need no backstop.
        self._in_burst = False

    def mark(self, conn: "StreamConnection") -> None:
        if not conn._dirty:
            conn._dirty = True
            self._dirty.append(conn)
            if not (self._scheduled or self._in_burst):
                self._scheduled = True
                conn._loop.call_soon(self.flush)

    def flush(self) -> None:
        self._scheduled = False
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = []
        for conn in dirty:
            conn._dirty = False
            conn._flush()


class StreamConnection(asyncio.BufferedProtocol):
    """One framed, identified, *pipelined* stream to a peer.

    Inbound: ``data_received`` feeds the assembler and dispatches every
    complete frame synchronously — no reader task, no pump wakeups.
    Frames that fail to decode are counted as corrupted and dropped (a
    live channel can carry garbage; correct hosts shrug).

    Outbound: :meth:`send_envelope` appends the encoded frame to a
    coalescing buffer. The buffer flushes as one ``transport.write`` when
    it crosses ``flush_watermark``, otherwise on the next loop tick — so
    the burst of messages a protocol step emits (a broadcast, a quorum of
    replies) leaves in a single writev-style send with no per-frame drain
    stalls.

    Construction is factory-style (the asyncio protocol contract): make
    the instance, hand it to ``loop.create_connection``/``create_server``
    via :func:`open_frame_connection`/:func:`start_frame_server`, then
    handshake with :meth:`send_hello`/:meth:`expect_hello` and finally
    :meth:`start_pump` to begin dispatching envelopes.
    """

    def __init__(
        self,
        stats: MessageStats,
        on_message: Callable[["StreamConnection", str, str, Any], None],
        on_close: Optional[Callable[["StreamConnection"], None]] = None,
        codec: Optional[Any] = None,
        flush_watermark: int = DEFAULT_FLUSH_WATERMARK,
        on_connected: Optional[Callable[["StreamConnection"], None]] = None,
        flusher: Optional[HostFlusher] = None,
    ) -> None:
        self.stats = stats
        self.codec = codec if codec is not None else get_codec(DEFAULT_WIRE)
        self.flush_watermark = flush_watermark
        self._flusher = flusher
        self._dirty = False
        self.peer_pid: Optional[str] = None
        self.transport: Optional[asyncio.Transport] = None
        self.closed = False
        self._on_message = on_message
        self._on_close = on_close
        self._on_connected = on_connected
        self._assembler = FrameAssembler()
        # Socket reads land here (BufferedProtocol) instead of in a fresh
        # bytes object per read: asyncio's per-read buffer is 256 KiB,
        # above glibc's default mmap threshold, so each read would map,
        # fault in and unmap its pages.
        self._read_buf = memoryview(bytearray(READ_BUFFER_SIZE))
        self._pending: list[bytes] = []  # frames received before start_pump
        self._pumping = False
        self._frame_waiter: Optional[asyncio.Future] = None
        self._out = bytearray()
        self._flush_scheduled = False
        self._close_notified = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Created in connection_made: an Event built here would bind the
        # loop that happens to be current (or, on 3.10+, none at all) at
        # construction time, not the loop the connection runs on.
        self._closed_event: Optional[asyncio.Event] = None

    # -- asyncio.BufferedProtocol --------------------------------------
    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buf

    def buffer_updated(self, nbytes: int) -> None:
        # The assembler copies every frame and any partial tail out of
        # the view, so the buffer is free again when this returns.
        self.data_received(self._read_buf[:nbytes])

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        self._closed_event = asyncio.Event()
        if self._on_connected is not None:
            self._on_connected(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._assembler.feed(data)
        except WireError:
            # Desynchronized stream (garbage length word): the connection
            # is unrecoverable, but the host is not.
            self.stats.corrupted += 1
            self._teardown()
            return
        flusher = self._flusher
        if flusher is not None:
            flusher._in_burst = True
        try:
            for frame in frames:
                waiter = self._frame_waiter
                if waiter is not None and not waiter.done():
                    waiter.set_result(frame)
                elif self._pumping:
                    self._dispatch(frame)
                else:
                    # Piggybacked on the HELLO bytes; replayed by start_pump.
                    self._pending.append(frame)
        finally:
            # End of this dispatch burst: everything the protocol replied
            # with (on this or any sibling connection of the host) leaves
            # now, one coalesced write per connection — no per-frame loop
            # callbacks.
            if flusher is not None:
                flusher._in_burst = False
                flusher.flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        if self._closed_event is not None:
            self._closed_event.set()
        waiter = self._frame_waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(WireError("connection closed before HELLO"))
        self._notify_close()

    # -- handshake -----------------------------------------------------
    def send_hello(self, pid: str) -> None:
        # The handshake is latency-bound, not throughput-bound: bypass
        # the coalescing buffer so the peer sees it on the first segment.
        if self.transport is not None:
            self.transport.write(self.codec.hello_frame(pid))

    async def expect_hello(self, timeout: float = 10.0) -> str:
        """Wait for the peer to identify itself (or fail to)."""
        frame = await asyncio.wait_for(self._next_frame(), timeout)
        self.peer_pid = self.codec.decode_hello(frame)
        return self.peer_pid

    async def _next_frame(self) -> bytes:
        if self._pending:
            return self._pending.pop(0)
        if self.closed:
            raise WireError("connection closed before HELLO")
        loop = asyncio.get_running_loop()
        self._frame_waiter = loop.create_future()
        try:
            return await self._frame_waiter
        finally:
            self._frame_waiter = None

    # -- outbound ------------------------------------------------------
    def send_envelope(self, env: Envelope) -> None:
        """Queue one envelope; see :meth:`send_payload`."""
        self.send_payload(env.src, env.dst, env.payload, env.send_time)

    def send_payload(
        self, src: str, dst: str, payload: Any, send_time: float = 0.0
    ) -> None:
        """Queue one message; coalesced with whatever else this tick
        produces (no await: backpressure never builds on loopback benches,
        and the fault proxy throttles the adversarial cases)."""
        if self.closed:
            return
        out = self._out
        self.codec.encode_payload_into(src, dst, send_time, payload, out)
        if len(out) >= self.flush_watermark:
            self._flush()
        elif self._flusher is not None:
            self._flusher.mark(self)
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._out or self.closed or self.transport is None:
            return
        # bytes() copy: uvloop keeps a reference to the buffer until the
        # kernel takes it, so handing over the mutable bytearray races.
        self.transport.write(bytes(self._out))
        self._out.clear()

    # -- inbound dispatch ----------------------------------------------
    def start_pump(self) -> None:
        """Begin dispatching envelopes (replaying any buffered frames)."""
        self._pumping = True
        pending, self._pending = self._pending, []
        for frame in pending:
            self._dispatch(frame)

    def _dispatch(self, frame: bytes) -> None:
        try:
            src, dst, _send_time, payload = self.codec.decode_parts(frame)
        except WireError:
            self.stats.corrupted += 1
            return
        self.stats.note_delivery(payload)
        self._on_message(self, src, dst, payload)

    # -- lifecycle -----------------------------------------------------
    def _notify_close(self) -> None:
        if not self._close_notified:
            self._close_notified = True
            if self._on_close is not None:
                self._on_close(self)

    def _teardown(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.transport is not None:
            self.transport.close()
        self._notify_close()

    async def close(self) -> None:
        if not self.closed:
            self._flush()  # drain coalesced frames before FIN
            self._teardown()
        if self._closed_event is None:
            return  # never connected: nothing to wait out
        try:
            await asyncio.wait_for(self._closed_event.wait(), 1.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass


class StreamTransport(Transport):
    """Routing over a set of identified :class:`StreamConnection` peers.

    Subclass-free: daemons and endpoints both use it, differing only in
    how connections come to exist (accepted vs dialed — that wiring lives
    in :mod:`repro.net.daemon`).
    """

    def __init__(self) -> None:
        super().__init__()
        self._local: dict[str, ReceiveFn] = {}
        self._peers: dict[str, StreamConnection] = {}
        #: Shared end-of-burst write coalescer for this host's connections
        #: (pass to every StreamConnection the host creates).
        self.flusher = HostFlusher()

    # -- Transport -----------------------------------------------------
    def attach(self, pid: str, receive: ReceiveFn) -> None:
        self._local[pid] = receive

    def send(self, src: str, dst: str, payload: Any) -> None:
        local = self._local.get(dst)
        if local is not None:
            # Same-host shortcut (a daemon forwarding to itself); still
            # counted, never serialized.
            self.stats.note_send(src, payload)
            self.stats.note_delivery(payload)
            local(src, payload)
            return
        conn = self._peers.get(dst)
        if conn is None or conn.closed:
            self.stats.dropped += 1
            return
        self.stats.note_send(src, payload)
        conn.send_payload(src, dst, payload)

    # -- peer management -----------------------------------------------
    def bind_peer(self, pid: str, conn: StreamConnection) -> None:
        """Route traffic for ``pid`` over ``conn`` (latest wins)."""
        self._peers[pid] = conn

    def drop_peer(self, conn: StreamConnection) -> None:
        for pid, existing in list(self._peers.items()):
            if existing is conn:
                del self._peers[pid]

    def peers(self) -> list[str]:
        return sorted(self._peers)

    def deliver_local(self, dst: str, src: str, payload: Any) -> bool:
        """Hand an inbound payload to an attached process (False: no such
        process — the live analogue of the sim's unknown-dst drop)."""
        local = self._local.get(dst)
        if local is None:
            self.stats.dropped += 1
            return False
        local(src, payload)
        return True

    async def close(self) -> None:
        for conn in list(self._peers.values()):
            await conn.close()
        self._peers.clear()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def parse_address(spec: str) -> tuple[str, Any]:
    """Parse ``tcp:HOST:PORT`` or ``unix:PATH`` into (family, detail)."""
    if spec.startswith("unix:"):
        return ("unix", spec[len("unix:") :])
    body = spec[len("tcp:") :] if spec.startswith("tcp:") else spec
    host, sep, port = body.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad address {spec!r}; want tcp:HOST:PORT or unix:PATH")
    return ("tcp", (host or "127.0.0.1", int(port)))


def format_address(family: str, detail: Any) -> str:
    if family == "unix":
        return f"unix:{detail}"
    host, port = detail
    return f"tcp:{host}:{port}"


async def open_connection(address: str) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``address`` (either family)."""
    family, detail = parse_address(address)
    if family == "unix":
        return await asyncio.open_unix_connection(detail)
    host, port = detail
    return await asyncio.open_connection(host, port)


async def start_server(address: str, handler) -> tuple[asyncio.AbstractServer, str]:
    """Listen on ``address``; returns (server, actual address).

    ``tcp:HOST:0`` binds an ephemeral port; the returned address carries
    the real one so callers can wire clients to it.
    """
    family, detail = parse_address(address)
    if family == "unix":
        server = await asyncio.start_unix_server(handler, path=detail)
        return server, format_address("unix", detail)
    host, port = detail
    server = await asyncio.start_server(handler, host=host, port=port)
    bound = server.sockets[0].getsockname()
    return server, format_address("tcp", (host, bound[1]))


async def open_frame_connection(
    address: str, protocol_factory: Callable[[], StreamConnection]
) -> StreamConnection:
    """Dial ``address`` with a :class:`StreamConnection` protocol."""
    loop = asyncio.get_running_loop()
    family, detail = parse_address(address)
    if family == "unix":
        _, conn = await loop.create_unix_connection(protocol_factory, detail)
    else:
        host, port = detail
        _, conn = await loop.create_connection(protocol_factory, host, port)
    return conn


async def start_frame_server(
    address: str, protocol_factory: Callable[[], StreamConnection]
) -> tuple[asyncio.AbstractServer, str]:
    """Listen on ``address`` with :class:`StreamConnection` protocols.

    Same address contract as :func:`start_server`; connection setup (the
    HELLO handshake) belongs to the factory's ``on_connected`` hook.
    """
    loop = asyncio.get_running_loop()
    family, detail = parse_address(address)
    if family == "unix":
        server = await loop.create_unix_server(protocol_factory, detail)
        return server, format_address("unix", detail)
    host, port = detail
    server = await loop.create_server(protocol_factory, host=host, port=port)
    bound = server.sockets[0].getsockname()
    return server, format_address("tcp", (host, bound[1]))
