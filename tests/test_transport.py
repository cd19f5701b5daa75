import socket
import threading
import time

import pytest

from relaykit.channel import ChannelConfig
from relaykit.transport import (
    AddrInUse,
    ConnectionClosed,
    DATAGRAM_LIMIT,
    FrameTooLarge,
    InMemoryHub,
    TimedOut,
    bind_datagram,
    connect,
    connect_datagram,
    listen,
    parse_addr,
)
from relaykit.wire import (
    BadMagic,
    ChecksumMismatch,
    Frame,
    MsgKind,
    PayloadTooLarge,
    encode_frame,
)


def test_parse_addr():
    assert parse_addr("127.0.0.1:7000") == ("127.0.0.1", 7000)
    with pytest.raises(ValueError):
        parse_addr("no-port")
    with pytest.raises(ValueError):
        parse_addr(":123")


class TestListen:
    def test_ephemeral_port(self):
        listener = listen("127.0.0.1:0")
        _, port = parse_addr(listener.addr)
        assert port > 0
        listener.close()

    def test_addr_in_use(self):
        first = listen("127.0.0.1:0")
        with pytest.raises(AddrInUse) as exc_info:
            listen(first.addr)
        assert first.addr in str(exc_info.value)
        first.close()

    def test_accept_timeout(self):
        listener = listen("127.0.0.1:0")
        with pytest.raises(TimedOut):
            listener.accept(0.05)
        listener.close()

    def test_accept_sees_client_address(self):
        listener = listen("127.0.0.1:0")
        client = connect(listener.addr)
        server_side = listener.accept(1.0)
        assert server_side.remote_addr == client.local_addr
        assert client.remote_addr == listener.addr
        client.close()
        server_side.close()
        listener.close()


class TestStream:
    def _pair(self):
        listener = listen("127.0.0.1:0")
        client = connect(listener.addr)
        server_side = listener.accept(1.0)
        listener.close()
        return client, server_side

    def test_echo_round_trip(self):
        client, server_side = self._pair()
        client.send_frame(Frame(MsgKind.ECHO, b"hi"))
        request = server_side.recv_frame(1.0)
        assert request == Frame(MsgKind.ECHO, b"hi")
        server_side.send_frame(Frame(MsgKind.ECHO_REPLY, request.payload))
        assert client.recv_frame(1.0) == Frame(MsgKind.ECHO_REPLY, b"hi")
        client.close()
        server_side.close()

    def test_frame_split_across_many_writes(self):
        listener = listen("127.0.0.1:0")
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.connect(parse_addr(listener.addr))
        server_side = listener.accept(1.0)
        data = encode_frame(Frame(MsgKind.REGISTER, b"dribbled-id"))

        def dribble():
            for i in range(0, len(data), 3):
                raw.sendall(data[i : i + 3])
                time.sleep(0.002)

        feeder = threading.Thread(target=dribble)
        feeder.start()
        frame = server_side.recv_frame(2.0)
        feeder.join()
        assert frame == Frame(MsgKind.REGISTER, b"dribbled-id")
        raw.close()
        server_side.close()
        listener.close()

    def test_two_frames_in_one_write(self):
        client, server_side = self._pair()
        blob = encode_frame(Frame(MsgKind.ECHO, b"one")) + encode_frame(Frame(MsgKind.ECHO, b"two"))
        client._sock.sendall(blob)
        assert server_side.recv_frame(1.0).payload == b"one"
        assert server_side.recv_frame(1.0).payload == b"two"
        client.close()
        server_side.close()

    def test_recv_timeout(self):
        client, server_side = self._pair()
        with pytest.raises(TimedOut):
            server_side.recv_frame(0.05)
        client.close()
        server_side.close()

    def test_peer_close_surfaces(self):
        client, server_side = self._pair()
        client.close()
        with pytest.raises(ConnectionClosed):
            server_side.recv_frame(1.0)
        server_side.close()

    def test_garbage_stream_head_fails_fast(self):
        listener = listen("127.0.0.1:0")
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.connect(parse_addr(listener.addr))
        server_side = listener.accept(1.0)
        raw.sendall(b"\x00\x01\x02")  # not even a full header
        with pytest.raises(BadMagic):
            server_side.recv_frame(1.0)
        raw.close()
        server_side.close()
        listener.close()

    def test_corrupt_stream_never_yields_bad_frame(self):
        listener = listen("127.0.0.1:0")
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.connect(parse_addr(listener.addr))
        server_side = listener.accept(1.0)
        bad = bytearray(encode_frame(Frame(MsgKind.ECHO, b"paylod")))
        bad[-1] ^= 0x10  # payload byte no longer matches the checksum
        raw.sendall(bytes(bad))
        with pytest.raises(ChecksumMismatch):
            server_side.recv_frame(1.0)
        raw.close()
        server_side.close()
        listener.close()

    def test_order_and_completeness_10k_mixed_frames(self):
        client, server_side = self._pair()
        kinds = [MsgKind.ECHO, MsgKind.DIRECT, MsgKind.BROADCAST, MsgKind.DELIVER]
        frames = [
            Frame(kinds[i % len(kinds)], bytes([i % 251]) * (i % 1447))
            for i in range(10_000)
        ]

        def pump():
            for f in frames:
                client.send_frame(f)

        feeder = threading.Thread(target=pump)
        feeder.start()
        received = [server_side.recv_frame(5.0) for _ in range(len(frames))]
        feeder.join()
        assert received == frames
        client.close()
        server_side.close()

    def test_reader_and_writer_threads_keep_their_own_timeouts(self):
        # One thread polls recv_frame with a 1 ms timeout while another sends
        # into a full socket buffer.  The sender must not pick up the poll's
        # timeout (a spurious ConnectionClosed), nor the poll the sender's
        # (a recv stuck for send_timeout_s).  Encoding a 2 MiB frame holds
        # the GIL past the switch interval, so the poller runs in between
        # the sender's steps.
        count = 10
        frame = Frame(MsgKind.ECHO, b"\x5a" * 2**21)
        for trial in range(2):
            client, server_side = self._pair()
            stop = threading.Event()
            slowest_poll = []
            received = []

            def poll():
                worst = 0.0
                while not stop.is_set():
                    started = time.monotonic()
                    try:
                        client.recv_frame(0.001)
                    except TimedOut:
                        pass
                    except ConnectionClosed:
                        break
                    worst = max(worst, time.monotonic() - started)
                slowest_poll.append(worst)

            def drain():
                time.sleep(0.2)
                for _ in range(count):
                    received.append(server_side.recv_frame(10.0) == frame)

            poller = threading.Thread(target=poll)
            drainer = threading.Thread(target=drain)
            poller.start()
            drainer.start()
            try:
                for _ in range(count):
                    client.send_frame(frame)
                drainer.join()
                time.sleep(0.3)  # a poll that inherited the send timeout shows up here
            finally:
                stop.set()
                server_side.close()
                poller.join(5.0)
                drainer.join(5.0)
                client.close()
            assert not poller.is_alive() and not drainer.is_alive()
            assert received == [True] * count, f"trial {trial}"
            assert slowest_poll[0] < 0.2, f"trial {trial}: a 1 ms poll took {slowest_poll[0]:.3f}s"

    def test_concurrent_senders_never_interleave_frames(self):
        client, server_side = self._pair()
        # Small socket buffers split every frame into many partial writes.
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32768)
        server_side._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
        senders, per_sender = 4, 5

        def send(k):
            for _ in range(per_sender):
                client.send_frame(Frame(MsgKind.ECHO, bytes([k]) * 2**16))

        threads = [threading.Thread(target=send, args=(k,)) for k in range(senders)]
        for t in threads:
            t.start()
        try:
            got = [server_side.recv_frame(10.0).payload for _ in range(senders * per_sender)]
        finally:
            server_side.close()
            for t in threads:
                t.join(10.0)
            client.close()
        assert not any(t.is_alive() for t in threads)
        assert sorted(p[0] for p in got) == sorted(list(range(senders)) * per_sender)
        assert all(p == p[:1] * len(p) for p in got)

    def test_payload_limit_is_inclusive(self):
        client, server_side = self._pair()
        server_side.max_payload = 1024
        client.send_frame(Frame(MsgKind.ECHO, b"a" * 1024))
        assert server_side.recv_frame(1.0).payload == b"a" * 1024
        client.send_frame(Frame(MsgKind.ECHO, b"a" * 1025))
        with pytest.raises(PayloadTooLarge):
            server_side.recv_frame(1.0)
        client.close()
        server_side.close()

    def test_oversized_header_refused_before_its_payload(self):
        client, server_side = self._pair()
        server_side.max_payload = 65536
        header = encode_frame(Frame(MsgKind.ECHO))[:4] + (2**32 - 1).to_bytes(4, "big") + b"\0\0"
        client._sock.sendall(header)
        started = time.monotonic()
        with pytest.raises(PayloadTooLarge):
            server_side.recv_frame(5.0)
        assert time.monotonic() - started < 1.0
        client.close()
        server_side.close()


class TestDatagram:
    def test_one_frame_per_datagram(self):
        server = bind_datagram("127.0.0.1:0")
        client = connect_datagram(server.local_addr)
        client.send_frame(Frame(MsgKind.ECHO, b"ping"))
        frame, peer = server.recv_frame_from(1.0)
        assert frame == Frame(MsgKind.ECHO, b"ping")
        assert peer == client.local_addr
        server.send_frame(Frame(MsgKind.ECHO_REPLY, b"ping"), dest=peer)
        assert client.recv_frame(1.0) == Frame(MsgKind.ECHO_REPLY, b"ping")
        client.close()
        server.close()

    def test_frame_too_large(self):
        client = connect_datagram("127.0.0.1:9")
        oversized = Frame(MsgKind.ECHO, b"x" * (DATAGRAM_LIMIT + 1))
        with pytest.raises(FrameTooLarge):
            client.send_frame(oversized)
        client.close()

    def test_recv_timeout(self):
        server = bind_datagram("127.0.0.1:0")
        with pytest.raises(TimedOut):
            server.recv_frame(0.05)
        server.close()


class TestInMemory:
    def test_connect_accept_round_trip(self):
        hub = InMemoryHub()
        listener = hub.listener()
        client = hub.connect()
        server_side = listener.accept(1.0)
        client.send_frame(Frame(MsgKind.ECHO, b"mem"))
        assert server_side.recv_frame(1.0) == Frame(MsgKind.ECHO, b"mem")
        server_side.send_frame(Frame(MsgKind.ECHO_REPLY, b"mem"))
        assert client.recv_frame(1.0) == Frame(MsgKind.ECHO_REPLY, b"mem")
        client.close()
        server_side.close()

    def test_accept_timeout_and_close(self):
        hub = InMemoryHub()
        listener = hub.listener()
        with pytest.raises(TimedOut):
            listener.accept(0.05)
        listener.close()
        with pytest.raises(ConnectionClosed):
            listener.accept(0.05)
        with pytest.raises(ConnectionClosed):
            hub.connect()

    def test_peer_close_surfaces_after_drain(self):
        hub = InMemoryHub()
        listener = hub.listener()
        client = hub.connect()
        server_side = listener.accept(1.0)
        client.send_frame(Frame(MsgKind.ECHO, b"last words"))
        client.close()
        assert server_side.recv_frame(1.0).payload == b"last words"
        with pytest.raises(ConnectionClosed):
            server_side.recv_frame(1.0)

    def test_payload_limit(self):
        hub = InMemoryHub()
        listener = hub.listener()
        client = hub.connect()
        server_side = listener.accept(1.0)
        server_side.max_payload = 16
        client.send_frame(Frame(MsgKind.ECHO, b"b" * 16))
        client.send_frame(Frame(MsgKind.ECHO, b"b" * 17))
        assert server_side.recv_frame(1.0).payload == b"b" * 16
        with pytest.raises(PayloadTooLarge):
            server_side.recv_frame(1.0)

    def test_delayed_channel_still_delivers(self):
        hub = InMemoryHub(ChannelConfig(max_delay=3, seed=5))
        listener = hub.listener()
        client = hub.connect()
        server_side = listener.accept(1.0)
        client.send_frame(Frame(MsgKind.ECHO, b"slow"))
        assert server_side.recv_frame(2.0).payload == b"slow"

    def test_lossless_transcript_matches_stream(self):
        def run_stream():
            listener = listen("127.0.0.1:0")
            client = connect(listener.addr)
            server_side = listener.accept(1.0)
            listener.close()
            return self._transcript(client, server_side)

        def run_memory():
            hub = InMemoryHub()
            listener = hub.listener()
            client = hub.connect()
            server_side = listener.accept(1.0)
            return self._transcript(client, server_side)

        assert run_stream() == run_memory()

    def _transcript(self, client, server_side):
        script = [Frame(MsgKind.ECHO, bytes([i % 256]) * (i % 97)) for i in range(100)]
        out = []

        def serve():
            for _ in script:
                frame = server_side.recv_frame(5.0)
                server_side.send_frame(Frame(MsgKind.ECHO_REPLY, frame.payload))

        worker = threading.Thread(target=serve)
        worker.start()
        for frame in script:
            client.send_frame(frame)
            reply = client.recv_frame(5.0)
            out.append((reply.kind, reply.payload))
        worker.join()
        client.close()
        server_side.close()
        return out
