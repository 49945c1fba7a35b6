"""Live transport: framing, datagram semantics, reply routing."""

import asyncio

import pytest

from repro.live.transport import (FrameError, MAX_FRAME_BYTES, TransportNode,
                                  encode_frame, read_frame)
from repro.rpc import Reply, Request
from repro.rpc.codec import MAGIC, decode_wire_body, encode_json_body


def _through_json(message):
    """``message`` after a trip through a JSON body."""
    (decoded,) = decode_wire_body(encode_json_body(message))
    return decoded


def _json_value(value):
    return _through_json(Reply.success(1, value)).value


class TestJson:
    """The JSON body: the fixed layouts' fallback."""

    def test_bytes_round_trip(self):
        value = {"data": b"\x00\xffbinary", "nested": [b"a", {"b": b"c"}]}
        assert _json_value(value) == value

    def test_tuples_become_lists(self):
        assert _json_value((1, 2, (3,))) == [1, 2, [3]]

    def test_plain_values_untouched(self):
        for value in (None, True, 3, 2.5, "text", [1, "x"]):
            assert _json_value(value) == value

    def test_request_round_trip(self):
        request = Request(call_id=7, source="client", method="txn.read",
                          args={"name": "f", "payload": b"\x01\x02"})
        assert _through_json(request) == request

    def test_reply_round_trip(self):
        for reply in (Reply(call_id=3, ok=True, value=(b"data", 4)),
                      Reply(call_id=4, ok=False, value=None,
                            error_type="RpcTimeout", error_detail="x")):
            decoded = _through_json(reply)
            assert decoded.call_id == reply.call_id
            assert decoded.ok == reply.ok

    def test_unknown_kind_rejected(self):
        with pytest.raises(FrameError):
            decode_wire_body(b'{"kind": "mystery"}')


def _read_frames(raw: bytes, count: int):
    """Feed ``raw`` into a fresh StreamReader and read ``count`` frames."""
    async def drain():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return [await read_frame(reader) for _ in range(count)]

    return asyncio.run(drain())


class TestFraming:
    def test_frame_round_trip(self):
        request = Request(call_id=1, source="a", method="m",
                          args={"blob": b"\x00" * 100})
        assert _read_frames(encode_frame(request), 1) == [request]

    def test_several_frames_in_sequence(self):
        messages = [Request(call_id=i, source="a", method="m", args={})
                    for i in range(3)]
        raw = b"".join(encode_frame(message) for message in messages)
        assert _read_frames(raw, 3) == messages

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(FrameError):
            _read_frames((MAX_FRAME_BYTES + 1).to_bytes(4, "big"), 1)

    def test_malformed_body_rejected(self):
        body = b"not json"
        with pytest.raises(FrameError):
            _read_frames(len(body).to_bytes(4, "big") + body, 1)


class TestTransportNode:
    def test_request_and_learned_reply_route(self):
        # The server never dials out: it learns the client's reply route
        # from the source field of the inbound request.
        async def scenario():
            server_inbox, client_inbox = [], []
            server = TransportNode("server", server_inbox.append)
            client = TransportNode("client", client_inbox.append)
            host, port = await server.listen()
            client.register_peer("server", host, port)

            client.send("server", Request(call_id=1, source="client",
                                          method="ping", args={}))
            for _ in range(200):
                if server_inbox:
                    break
                await asyncio.sleep(0.005)
            assert server_inbox and server_inbox[0].method == "ping"

            server.send("client", Reply(call_id=1, ok=True, value="pong"))
            for _ in range(200):
                if client_inbox:
                    break
                await asyncio.sleep(0.005)
            assert client_inbox and client_inbox[0].value == "pong"

            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_unknown_destination_dropped_silently(self):
        async def scenario():
            node = TransportNode("n", lambda message: None)
            node.send("nowhere", Request(call_id=1, source="n",
                                         method="m", args={}))
            assert node.frames_dropped == 1
            await node.close()

        asyncio.run(scenario())

    def test_send_to_dead_address_is_lost_not_raised(self):
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            await server.stop_listening()

            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            client.send("server", Request(call_id=1, source="client",
                                          method="m", args={}))
            await asyncio.sleep(0.05)  # dial fails in the background
            assert inbox == []
            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_listener_reopens_on_same_port(self):
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            await server.stop_listening()
            assert server.address == (host, port)
            again = await server.listen(host, port)
            assert again == (host, port)

            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            client.send("server", Request(call_id=1, source="client",
                                          method="m", args={}))
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            assert len(inbox) == 1
            await client.close()
            await server.close()

        asyncio.run(scenario())


class TestTornAndCoalescedFrames:
    def test_frame_torn_across_segments(self):
        # TCP may deliver a frame in arbitrary chunks; the parser must
        # reassemble across data_received calls.
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_frame(Request(call_id=1, source="raw",
                                         method="m",
                                         args={"blob": b"\x07" * 300}))
            for i in range(0, len(frame), 7):  # 7-byte shreds
                writer.write(frame[i:i + 7])
                await writer.drain()
                await asyncio.sleep(0)
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            assert len(inbox) == 1 and inbox[0].call_id == 1
            writer.close()
            await server.close()

        asyncio.run(scenario())

    def test_multiple_frames_in_one_segment(self):
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            frames = b"".join(
                encode_frame(Request(call_id=i, source="raw", method="m",
                                     args={}))
                for i in range(5))
            writer.write(frames)  # one write, five frames
            for _ in range(200):
                if len(inbox) == 5:
                    break
                await asyncio.sleep(0.005)
            assert [m.call_id for m in inbox] == [0, 1, 2, 3, 4]
            writer.close()
            await server.close()

        asyncio.run(scenario())


class TestOversizeFrames:
    def test_oversize_outbound_dropped_not_raised(self):
        # Satellite fix: a message too large for any frame must behave
        # like a dropped datagram — counted and logged, never raised
        # into protocol code.
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            client.send("server", Request(
                call_id=1, source="client", method="m",
                args={"blob": b"\x00" * (MAX_FRAME_BYTES + 1)}))
            client.send("server", Request(call_id=2, source="client",
                                          method="m", args={}))
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            # The oversize message vanished; the next one arrived.
            assert [m.call_id for m in inbox] == [2]
            assert client.frames_dropped == 1
            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_unencodable_message_does_not_wedge_the_connection(self):
        # A message no codec can say (an arg of no JSON type) is dropped
        # and counted like an oversize one; it must not stay queued and
        # take every later message to the peer down with it.
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            await _request_reply(client, "server", 1)
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            client.send("server", Request(call_id=2, source="client",
                                          method="m",
                                          args={"x": object()}))
            for call_id in (3, 4, 5):
                await asyncio.sleep(0)
                await _request_reply(client, "server", call_id)
            for _ in range(200):
                if len(inbox) == 4:
                    break
                await asyncio.sleep(0.005)
            assert [m.call_id for m in inbox] == [1, 3, 4, 5]
            assert client.frames_dropped == 1
            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_oversize_inbound_drops_connection_only(self):
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            await writer.drain()
            await asyncio.sleep(0.05)
            # The poisoned connection is gone, the listener survives.
            assert inbox == []
            assert server.listening
            reader2, writer2 = await asyncio.open_connection(host, port)
            writer2.write(encode_frame(Request(call_id=9, source="raw",
                                               method="m", args={})))
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            assert [m.call_id for m in inbox] == [9]
            writer.close()
            writer2.close()
            await server.close()

        asyncio.run(scenario())


class TestConnectionLifecycle:
    def test_dial_failure_drops_and_counts_backlog(self):
        async def scenario():
            server = TransportNode("server", lambda message: None)
            host, port = await server.listen()
            await server.stop_listening()  # port now refuses connects

            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            for i in range(3):
                client.send("server", Request(call_id=i, source="client",
                                              method="m", args={}))
            await asyncio.sleep(0.05)  # dial fails in the background
            assert client.frames_dropped == 3
            assert "server" not in client._connections
            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_close_deregisters_connection(self):
        # Satellite fix: a deliberately closed connection must leave
        # the node's routing tables immediately, not leak until
        # stop_listening.
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            client.send("server", Request(call_id=1, source="client",
                                          method="m", args={}))
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)
            assert "client" in server._connections

            client._connections["server"].close()
            assert "server" not in client._connections
            # The server side learns of the severed stream via its own
            # connection_lost callback.
            for _ in range(200):
                if "client" not in server._connections:
                    break
                await asyncio.sleep(0.005)
            assert "client" not in server._connections
            assert not server._anonymous
            await client.close()
            await server.close()

        asyncio.run(scenario())


async def _request_reply(client, server_name, call_id, method="ping"):
    """Send one request and wait for its reply on ``client``."""
    client.send(server_name, Request(call_id=call_id, source=client.name,
                                     method=method, args={}))


class TestWireFormat:
    def test_first_frame_is_binary(self):
        # No codec negotiation: a connection's very first frame already
        # carries the fixed layout.
        async def scenario():
            frames = asyncio.get_event_loop().create_future()

            async def accept(reader, writer):
                length = int.from_bytes(await reader.readexactly(4), "big")
                frames.set_result(await reader.readexactly(length))
                writer.close()

            listener = await asyncio.start_server(accept, "127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            client = TransportNode("client", lambda message: None)
            client.register_peer("server", host, port)
            request = Request(call_id=1, source="client", method="txn.stat",
                              args={"txn": "client#1", "name": "f"})
            client.send("server", request)
            body = await asyncio.wait_for(frames, 5.0)
            assert body[0] == MAGIC
            assert decode_wire_body(body) == [request]
            await client.close()
            listener.close()
            await listener.wait_closed()

        asyncio.run(scenario())


class TestBatchingAndPipelining:
    def test_one_pass_fanout_shares_a_frame(self):
        # Messages queued to one destination in one loop pass ride one
        # batch frame.
        async def scenario():
            inbox = []
            server = TransportNode("server", inbox.append)
            host, port = await server.listen()
            client = TransportNode("client", lambda m: None)
            client.register_peer("server", host, port)
            # Prime the connection: the batch below goes out on a
            # connected stream, not from the dial's backlog.
            client.send("server", Request(call_id=0, source="client",
                                          method="m", args={}))
            for _ in range(200):
                if inbox:
                    break
                await asyncio.sleep(0.005)

            before = client.batches_sent
            for call_id in range(1, 5):  # one loop pass, four messages
                client.send("server", Request(call_id=call_id,
                                              source="client",
                                              method="m", args={}))
            for _ in range(200):
                if len(inbox) == 5:
                    break
                await asyncio.sleep(0.005)
            assert [m.call_id for m in inbox] == [0, 1, 2, 3, 4]
            assert client.batches_sent == before + 1
            assert client.messages_batched >= 4
            assert server.batches_received >= 1
            await client.close()
            await server.close()

        asyncio.run(scenario())

    def test_slow_reply_does_not_block_later_reply(self):
        # Pipelining: two requests on one connection; the first reply
        # is deliberately delayed, the second must not wait for it.
        async def scenario():
            loop = asyncio.get_event_loop()
            replies = []
            server = TransportNode("server", lambda m: None)

            def on_message(message):
                if not isinstance(message, Request):
                    return
                reply = Reply.success(message.call_id, message.method)
                if message.method == "slow":
                    loop.call_later(0.2, server.send, message.source,
                                    reply)
                else:
                    server.send(message.source, reply)
            server.on_message = on_message
            host, port = await server.listen()
            client = TransportNode("client", replies.append)
            client.register_peer("server", host, port)

            await _request_reply(client, "server", 1, method="slow")
            await _request_reply(client, "server", 2, method="fast")
            for _ in range(400):
                if len(replies) == 2:
                    break
                await asyncio.sleep(0.005)
            # The fast reply overtook the slow one: no head-of-line
            # blocking for independent calls on a shared connection.
            assert [r.value for r in replies] == ["fast", "slow"]
            await client.close()
            await server.close()

        asyncio.run(scenario())
