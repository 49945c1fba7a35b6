"""Length-prefixed transport over asyncio TCP.

The live runtime keeps the *datagram* contract the simulated network
gives :class:`~repro.rpc.endpoint.RpcEndpoint`: ``send`` is
fire-and-forget, silence is detected only by the client-side timeout,
and a message to an unreachable peer simply vanishes.  TCP gives us
framing and ordering per connection, but the RPC layer above never
relies on either — lost connections look exactly like lost packets, so
the endpoint's retransmission (same call id) and the server's
at-most-once dedup carry over unchanged.

Wire format: each frame is a 4-byte big-endian length followed by a
body of :mod:`repro.rpc.codec` — the sim's bodies, from a connection's
first message on: a fixed layout per protocol method (JSON for a
message no layout fits), or a batch of them.  Encoding is deferred to
the per-loop-pass flush, which is what makes batching free: everything a
node sends to one destination in one event-loop pass — a coordinator's
whole vote-inquiry fan-out to the representatives a host carries, a
server's replies to that inquiry — lands in the queue before the flush
runs and goes out as a single batch frame.  Deferred encoding also
means a payload must not be mutated after ``send``; both runtimes
construct fresh per-call payloads, and decoding from bytes preserves
receiver isolation.

Replies are never waited on at this layer, so independent transactions
pipeline naturally on one connection: a slow reply holds back nothing
that was sent after it.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from ..rpc.messages import Reply, Request
from ..rpc.codec import (FrameError, KIND_BATCH, MAGIC, MAX_FRAME_BYTES,
                         decode_wire_body, encode_batch_body,
                         encode_binary_body, encode_frame)
# Unused here: the layer ledger wraps it by path until the bench-only change.
from ..rpc.codec import encode_json_body  # noqa: F401

__all__ = [
    "FrameError", "FrameParser", "MAX_FRAME_BYTES", "TransportNode",
    "encode_frame", "read_frame",
]

logger = logging.getLogger("repro.live.transport")


async def read_frame(reader: asyncio.StreamReader) -> "Request | Reply":
    """Read one single-message frame; ``IncompleteReadError`` at EOF.

    The pull-style path for tools and tests.  It shares
    :func:`~repro.rpc.codec.decode_wire_body` with the streaming
    :class:`FrameParser`, so the two readers cannot diverge on message
    shape.  Batch frames are refused here — a one-message-at-a-time
    reader has nowhere to put the rest.
    """
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"incoming frame of {length} bytes exceeds limit")
    body = await reader.readexactly(length)
    messages = decode_wire_body(body)
    if len(messages) != 1:
        raise FrameError("batch frame on a single-message reader")
    return messages[0]


class FrameParser:
    """Incremental frame parser for protocol-style (push) reads.

    ``feed`` returns every complete message in the accumulated buffer —
    several frames often arrive in one TCP segment, and parsing them in
    a single pass (no coroutine wake-up per frame) is what lets one
    event loop sustain thousands of messages per second.  ``batches``
    counts batch frames.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.batches = 0

    def feed(self, data: bytes) -> "list[Request | Reply]":
        self._buffer.extend(data)
        messages: List["Request | Reply"] = []
        buffer = self._buffer
        offset = 0
        while len(buffer) - offset >= 4:
            length = int.from_bytes(buffer[offset:offset + 4], "big")
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"incoming frame of {length} bytes exceeds limit")
            if len(buffer) - offset - 4 < length:
                break
            body = bytes(buffer[offset + 4:offset + 4 + length])
            offset += 4 + length
            if (len(body) >= 2 and body[0] == MAGIC
                    and body[1] == KIND_BATCH):
                self.batches += 1
            messages.extend(decode_wire_body(body))
        if offset:
            del buffer[:offset]
        return messages


# ---------------------------------------------------------------------------
# Connections and the transport node
# ---------------------------------------------------------------------------

class _Connection(asyncio.Protocol):
    """One TCP stream, either accepted or dialled.

    Implemented as a raw :class:`asyncio.Protocol` rather than a stream
    reader coroutine: inbound bytes are parsed into frames synchronously
    in ``data_received``, so a frame costs no task wake-up and several
    frames arriving in one segment cost one callback.

    Outbound *messages* (not frames) queue until the flush scheduled
    for the end of the current loop pass: encoding at flush time is
    what lets the connection pack everything queued in one pass into
    one batch frame.
    If the dial fails, every queued message is dropped and counted,
    which is exactly what a datagram network would have done with them.
    """

    def __init__(self, node: "TransportNode",
                 peer: Optional[str] = None) -> None:
        self.node = node
        self.peer = peer                 # peer name, once known
        self.alive = True
        self._loop = asyncio.get_event_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._out: Deque["Request | Reply"] = deque()
        self._flush_scheduled = False
        self._dial_task: Optional[asyncio.Task] = None
        self._parser = FrameParser()
        self._batches_reported = 0

    # -- asyncio.Protocol callbacks ----------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        if not self.alive:               # closed while dialling
            transport.close()
            return
        self._transport = transport      # type: ignore[assignment]
        self._flush()

    def data_received(self, data: bytes) -> None:
        node = self.node
        try:
            messages = self._parser.feed(data)
        except FrameError as exc:
            logger.warning("%s: dropping connection: %s", node.name, exc)
            self._drop()
            return
        if self._parser.batches != self._batches_reported:
            node.batches_received += (self._parser.batches
                                      - self._batches_reported)
            self._batches_reported = self._parser.batches
        for message in messages:
            node._inbound(self, message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._drop()

    # -- lifecycle ---------------------------------------------------------

    def dial(self, address: Tuple[str, int]) -> None:
        """Connect in the background; flush the backlog on success."""
        self._dial_task = asyncio.ensure_future(self._dial(address))

    async def _dial(self, address: Tuple[str, int]) -> None:
        try:
            await asyncio.get_event_loop().create_connection(
                lambda: self, *address)
        except OSError:
            self._drop()  # connect refused/failed: datagrams lost

    def _discard_backlog(self) -> None:
        """Drop (and count) every message that never reached the wire."""
        if self._out:
            self.node.frames_dropped += len(self._out)
            self._out.clear()

    def _drop(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self._discard_backlog()
        if self._transport is not None:
            try:
                self._transport.close()
            except Exception:  # pragma: no cover - close is best effort
                pass
        self.node._connection_lost(self)

    def close(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self._discard_backlog()
        if self._dial_task is not None:
            self._dial_task.cancel()
        if self._transport is not None:
            try:
                self._transport.close()
            except Exception:  # pragma: no cover
                pass
        # Deregister immediately — a deliberately closed connection must
        # not linger in the node's routing tables until (if ever) the
        # connection_lost callback runs.
        self.node._connection_lost(self)

    # -- sending -----------------------------------------------------------

    def send(self, message: "Request | Reply") -> None:
        """Queue a message; one encoded, coalesced write per loop pass.

        Before the dial completes messages queue here too — if the dial
        fails the queue is dropped wholesale, just as a datagram network
        would have lost them.
        """
        if not self.alive:
            return
        self._out.append(message)
        if self._transport is not None and not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.alive or self._transport is None or not self._out:
            return
        node = self.node
        bodies: List[bytes] = []
        for message in self._out:
            try:
                bodies.append(encode_binary_body(message))
            except FrameError as exc:
                # A message no frame can carry (too large, or of values
                # no codec says) behaves like a dropped datagram:
                # counted, logged, never raised into the protocol layer
                # above — and never left at the head of the queue.
                node.frames_dropped += 1
                logger.warning("%s -> %s: dropping unsendable message: %s",
                               node.name, self.peer, exc)
        self._out.clear()
        # Everything this node queued for this destination in one loop
        # pass rides one batch frame (split only if the batch itself
        # would blow the frame limit; a lone body is a plain frame).
        frames: List[bytes] = []
        batch: List[bytes] = []
        batch_size = 0
        for body in bodies:
            if batch and batch_size + len(body) + 4 > MAX_FRAME_BYTES:
                frames.append(self._seal_batch(batch))
                batch, batch_size = [], 0
            batch.append(body)
            batch_size += len(body) + 4
        if batch:
            frames.append(self._seal_batch(batch))
        if not frames:
            return
        node.frames_sent += len(frames)
        data = b"".join(frames) if len(frames) > 1 else frames[0]
        try:
            self._transport.write(data)
        except Exception:
            self._drop()

    def _seal_batch(self, bodies: List[bytes]) -> bytes:
        node = self.node
        if len(bodies) == 1:
            return len(bodies[0]).to_bytes(4, "big") + bodies[0]
        node.batches_sent += 1
        node.messages_batched += len(bodies)
        body = encode_batch_body(bodies)
        return len(body).to_bytes(4, "big") + body


class TransportNode:
    """One process's endpoint on the live network.

    Maps peer *names* (the addresses the protocol layer speaks) to TCP
    connections.  Outbound connections are dialled on first use from a
    static ``register_peer`` table; inbound connections learn their peer
    name from the ``source`` field of the first request they carry, so
    replies can be routed back without the server ever dialling out.
    """

    def __init__(self, name: str,
                 on_message: Callable[["Request | Reply"], None]) -> None:
        self.name = name
        self.on_message = on_message
        self.address: Optional[Tuple[str, int]] = None
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._connections: Dict[str, _Connection] = {}
        self._anonymous: set[_Connection] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        #: Optional :class:`~repro.chaos.policy.ChaosPolicy` (duck
        #: typed: ``filter(source, destination)``) interposed on every
        #: outbound send — the live counterpart of the hook on
        #: :class:`~repro.sim.network.Network`, so the same policy
        #: object fault-injects either runtime.
        self.chaos: Optional[Any] = None
        #: Message-level counters: a "frame" in the drop/delay/duplicate
        #: counters is one protocol message (the datagram the contract
        #: is written in terms of), regardless of how it was packed.
        self.frames_sent = 0         # wire frames written (batch = 1)
        self.frames_received = 0     # messages delivered up
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.frames_duplicated = 0
        #: Batching counters: batch frames sent/received, and how many
        #: messages rode inside sent batches.
        self.batches_sent = 0
        self.batches_received = 0
        self.messages_batched = 0

    # -- topology ----------------------------------------------------------

    def register_peer(self, name: str, host: str, port: int) -> None:
        """Declare where ``name`` listens, for outbound dialling."""
        self._addresses[name] = (host, port)

    async def listen(self, host: str = "127.0.0.1",
                     port: int = 0) -> Tuple[str, int]:
        """Accept connections; returns the bound ``(host, port)``."""
        loop = asyncio.get_event_loop()
        self._server = await loop.create_server(self._accept, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    @property
    def listening(self) -> bool:
        """True while the accept socket is open."""
        return self._server is not None

    def _accept(self) -> _Connection:
        connection = _Connection(self)
        self._anonymous.add(connection)
        return connection

    # -- sending -----------------------------------------------------------

    def send(self, destination: str, message: "Request | Reply") -> None:
        """Fire-and-forget send; unroutable messages vanish silently.

        With a chaos policy attached the frame may instead be dropped,
        delayed (``loop.call_later``), or delivered twice — faults that
        the datagram contract above already tolerates.
        """
        if self.chaos is None:
            self._send_now(destination, message)
            return
        verdict = self.chaos.filter(self.name, destination)
        if verdict.drop:
            self.frames_dropped += 1
            return
        if verdict.duplicate:
            self.frames_duplicated += 1
            asyncio.get_event_loop().call_later(
                verdict.duplicate_delay / 1000.0,
                self._send_now, destination, message)
        if verdict.delay > 0:
            self.frames_delayed += 1
            asyncio.get_event_loop().call_later(
                verdict.delay / 1000.0, self._send_now, destination,
                message)
            return
        self._send_now(destination, message)

    def _send_now(self, destination: str,
                  message: "Request | Reply") -> None:
        """Queue one message for ``destination``.

        Never raises into protocol code: unroutable destinations are
        counted and forgotten here, and encode-time failures (messages
        no frame can carry) are absorbed the same way at flush time.
        """
        connection = self._connections.get(destination)
        if connection is None or not connection.alive:
            address = self._addresses.get(destination)
            if address is None:
                self.frames_dropped += 1
                return
            connection = _Connection(self, peer=destination)
            self._connections[destination] = connection
            connection.dial(address)
        connection.send(message)

    # -- inbound plumbing --------------------------------------------------

    def _inbound(self, connection: _Connection,
                 message: "Request | Reply") -> None:
        self.frames_received += 1
        if isinstance(message, Request) and connection.peer is None:
            # Learn the reply route for this peer from its own request.
            connection.peer = message.source
            self._anonymous.discard(connection)
            existing = self._connections.get(message.source)
            if existing is None or not existing.alive:
                self._connections[message.source] = connection
        self.on_message(message)

    def _connection_lost(self, connection: _Connection) -> None:
        self._anonymous.discard(connection)
        if connection.peer is not None:
            if self._connections.get(connection.peer) is connection:
                del self._connections[connection.peer]

    # -- teardown ----------------------------------------------------------

    async def stop_listening(self) -> None:
        """Close the listener and sever every connection.

        The bound address is remembered so a restarted server can
        :meth:`listen` on the same port again.
        """
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover
                pass
            self._server = None
        for connection in list(self._connections.values()):
            connection.close()
        for connection in list(self._anonymous):
            connection.close()
        self._connections.clear()
        self._anonymous.clear()

    async def close(self) -> None:
        await self.stop_listening()
