import errno
import socket
import statistics
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from relaykit.client import ChatClient, HandshakeFailed, RegistrationFailed
from relaykit.server import (
    DeliveryHandle,
    DuplicateId,
    NotRegistered,
    RecipientBusy,
    Registry,
    RegistryFull,
    RelayServer,
    ServerConfig,
    UnknownRecipient,
)
from relaykit.transport import ConnectionClosed, InMemoryHub, StreamEndpoint, connect, listen
from relaykit.wire import (
    DEFAULT_PARAMS,
    ErrorCode,
    Frame,
    HandshakeParams,
    MsgKind,
    encode_frame,
    pack_addressed,
    pack_hello,
)


def _wait_until(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class ServerFixture:
    """One running relay server plus a way to open client endpoints to it."""

    def __init__(self, transport: str, config: ServerConfig | None = None):
        self.config = config or ServerConfig(poll_interval_s=0.01)
        if transport == "tcp":
            self._hub = None
            self.server = RelayServer(listen("127.0.0.1:0"), self.config)
        else:
            self._hub = InMemoryHub()
            self.server = RelayServer(self._hub.listener(), self.config)
        self.server.start()

    def endpoint(self):
        if self._hub is None:
            return connect(self.server.addr)
        return self._hub.connect()

    def client(self, client_id=None) -> ChatClient:
        c = ChatClient(self.endpoint())
        c.handshake()
        if client_id is not None:
            c.register(client_id)
        return c

    def stop(self):
        self.server.shutdown()


@pytest.fixture(params=["tcp", "mem"])
def relay(request):
    fixture = ServerFixture(request.param)
    yield fixture
    fixture.stop()


@pytest.fixture
def tcp_relay():
    fixture = ServerFixture("tcp")
    yield fixture
    fixture.stop()


class TestHandshake:
    def test_negotiates_minimum(self, relay):
        client = ChatClient(relay.endpoint(), proposal=HandshakeParams(1, 16, 512))
        agreed = client.handshake()
        assert agreed == HandshakeParams(1, 8, 512)
        client.bye()

    def test_version_mismatch_rejected(self, relay):
        client = ChatClient(relay.endpoint(), proposal=HandshakeParams(2, 8, 1024))
        with pytest.raises(HandshakeFailed) as exc_info:
            client.handshake()
        assert "VERSION_MISMATCH" in str(exc_info.value)
        client.close()

    def test_non_hello_first_frame_rejected(self, relay):
        endpoint = relay.endpoint()
        endpoint.send_frame(Frame(MsgKind.ECHO, b"rude"))
        reply = endpoint.recv_frame(2.0)
        assert reply.kind is MsgKind.ERROR
        assert reply.payload[0] == ErrorCode.MALFORMED
        endpoint.close()

    def test_garbage_before_hello_gets_malformed_and_close(self, tcp_relay):
        endpoint = tcp_relay.endpoint()
        endpoint._sock.sendall(b"not a frame at all")
        _expect_error_then_close(endpoint, ErrorCode.MALFORMED)

    def test_client_refuses_a_frame_above_the_agreed_limit(self):
        # The peer agrees to 1024 bytes, then sends a 2048-byte DELIVER.
        hub = InMemoryHub()
        client = ChatClient(hub.connect())
        peer = hub.listener().accept(1.0)
        peer.send_frame(Frame(MsgKind.HELLO_ACK, pack_hello(HandshakeParams(1, 8, 1024))))
        peer.send_frame(Frame(MsgKind.DELIVER, pack_addressed("mallory", b"m" * 2040)))
        assert client.handshake().max_payload == 1024
        assert client.endpoint.max_payload == 1024
        client._reader.join(2.0)
        assert not client._reader.is_alive()
        assert client.next_delivery(0.1) is None
        client.close()
        peer.close()
        hub.close()


def _hello(endpoint, params=DEFAULT_PARAMS):
    endpoint.send_frame(Frame(MsgKind.HELLO, pack_hello(params)))
    assert endpoint.recv_frame(2.0).kind is MsgKind.HELLO_ACK


def _expect_error_then_close(endpoint, code):
    reply = endpoint.recv_frame(2.0)
    assert reply.kind is MsgKind.ERROR
    assert reply.payload[0] == code
    with pytest.raises(ConnectionClosed):
        endpoint.recv_frame(2.0)
    endpoint.close()


class TestPayloadLimit:
    def test_negotiated_limit_enforced(self, relay):
        endpoint = relay.endpoint()
        _hello(endpoint, HandshakeParams(1, 8, 1024))
        endpoint.send_frame(Frame(MsgKind.ECHO, b"k" * 1024))
        assert endpoint.recv_frame(2.0) == Frame(MsgKind.ECHO_REPLY, b"k" * 1024)
        endpoint.send_frame(Frame(MsgKind.ECHO, b"k" * 1025))
        _expect_error_then_close(endpoint, ErrorCode.MALFORMED)

    def test_huge_declared_length_refused_without_buffering(self, tcp_relay):
        endpoint = tcp_relay.endpoint()
        _hello(endpoint)
        header = encode_frame(Frame(MsgKind.ECHO))[:4] + (2**32 - 1).to_bytes(4, "big") + b"\0\0"
        endpoint._sock.sendall(header + b"x" * 4096)
        _expect_error_then_close(endpoint, ErrorCode.MALFORMED)

    def test_no_delivery_above_the_recipients_limit(self, relay):
        alice = relay.client("alice")
        bob = ChatClient(relay.endpoint(), proposal=HandshakeParams(1, 8, 1024))
        bob.handshake()
        bob.register("bob")
        # DELIVER payload = 1 + len("alice") + len(message), two bytes more
        # than the DIRECT's 1 + len("bob") + len(message).
        fits, over = b"f" * 1018, b"o" * 1019
        alice.send_direct("bob", over)  # a 1023-byte DIRECT, a 1025-byte DELIVER
        err = alice.errors.get(timeout=2.0)
        assert err.code is ErrorCode.MALFORMED
        alice.broadcast(over)
        alice.send_direct("bob", fits)
        assert bob.next_delivery(2.0) == ("alice", fits)
        assert bob.next_delivery(0.3) is None
        assert alice.errors.empty()  # a skipped broadcast recipient is no error
        alice.bye()
        bob.bye()


class TestRegistration:
    def test_register_and_ack(self, relay):
        client = relay.client("alice")
        assert relay.server.registry.ids() == {"alice"}
        client.bye()

    def test_concurrent_duplicate_exactly_one_winner(self, relay):
        first = relay.client()
        second = relay.client()
        barrier = threading.Barrier(2)
        outcomes = []

        def race(client):
            barrier.wait()
            try:
                client.register("alice", timeout=3.0)
                outcomes.append("ok")
            except RegistrationFailed as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=race, args=(c,)) for c in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for o in outcomes if o == "ok") == 1
        assert sum(1 for o in outcomes if "DUPLICATE_ID" in o) == 1
        first.bye()
        second.bye()

    def test_id_reusable_after_disconnect(self, relay):
        client = relay.client("alice")
        client.bye()
        assert _wait_until(lambda: "alice" not in relay.server.registry.ids())
        again = relay.client("alice")
        assert "alice" in relay.server.registry.ids()
        again.bye()

    def test_oversized_id_rejected(self, relay):
        client = relay.client()
        with pytest.raises(RegistrationFailed) as exc_info:
            client.register("x" * 65)
        assert "MALFORMED" in str(exc_info.value)
        client.bye()

    def test_second_register_on_same_connection_rejected(self, relay):
        client = relay.client("alice")
        with pytest.raises(RegistrationFailed):
            client.register("alice2")
        client.bye()


class TestRegisterDeadline:
    @pytest.mark.parametrize("transport", ["tcp", "mem"])
    def test_connection_that_never_registers_is_closed(self, transport):
        deadline, poll = 0.3, 0.1
        fixture = ServerFixture(
            transport, ServerConfig(poll_interval_s=poll, handshake_timeout_s=deadline)
        )
        try:
            registered = fixture.client("early")
            silent = fixture.endpoint()
            _hello(silent)
            started = time.monotonic()
            _expect_error_then_close(silent, ErrorCode.NOT_REGISTERED)
            elapsed = time.monotonic() - started
            assert deadline - 0.1 < elapsed < deadline + poll, elapsed
            assert registered.ping(b"still served")
            registered.bye()
        finally:
            fixture.stop()


class TestRouting:
    def test_direct_delivery(self, relay):
        alice = relay.client("alice")
        bob = relay.client("bob")
        alice.send_direct("bob", b"hi")
        assert bob.next_delivery(3.0) == ("alice", b"hi")
        alice.bye()
        bob.bye()

    def test_unknown_recipient_error(self, relay):
        alice = relay.client("alice")
        alice.send_direct("nobody", b"hello?")
        assert _wait_until(lambda: not alice.errors.empty())
        err = alice.errors.get_nowait()
        assert err.code is ErrorCode.UNKNOWN_RECIPIENT
        alice.bye()

    def test_direct_before_registration_rejected(self, relay):
        client = relay.client()
        client.send_direct("bob", b"too soon")
        assert _wait_until(lambda: not client.errors.empty())
        assert client.errors.get_nowait().code is ErrorCode.NOT_REGISTERED
        client.bye()

    def test_echo_allowed_before_registration(self, relay):
        client = relay.client()
        assert client.ping(b"pre-registration")
        client.bye()

    def test_broadcast_reaches_everyone_else(self, relay):
        alice = relay.client("alice")
        bob = relay.client("bob")
        carol = relay.client("carol")
        alice.broadcast(b"hello all")
        assert bob.next_delivery(3.0) == ("alice", b"hello all")
        assert carol.next_delivery(3.0) == ("alice", b"hello all")
        assert alice.next_delivery(0.3) is None  # sender excluded
        for c in (alice, bob, carol):
            c.bye()


class TestRegistryUnit:
    def test_route_to_missing_sender(self):
        registry = Registry()
        with pytest.raises(NotRegistered):
            registry.route_direct("ghost", "bob", b"x")

    def test_route_to_missing_recipient(self):
        registry = Registry()
        registry.register("alice", DeliveryHandle())
        with pytest.raises(UnknownRecipient):
            registry.route_direct("alice", "bob", b"x")

    def test_duplicate_id(self):
        registry = Registry()
        registry.register("alice", DeliveryHandle())
        with pytest.raises(DuplicateId):
            registry.register("alice", DeliveryHandle())

    def test_capacity(self):
        registry = Registry(capacity=2)
        registry.register("a", DeliveryHandle())
        registry.register("b", DeliveryHandle())
        with pytest.raises(RegistryFull):
            registry.register("c", DeliveryHandle())

    def test_recipient_busy_after_queue_fills(self):
        # stalled consumer: nobody drains bob's queue (capacity 1024)
        registry = Registry(enqueue_wait_s=0.02)
        registry.register("alice", DeliveryHandle())
        bob_handle = DeliveryHandle()
        registry.register("bob", bob_handle)
        sent = 0
        busy_at = None
        for i in range(2000):
            try:
                registry.route_direct("alice", "bob", b"rapid-%04d" % i)
                sent += 1
            except RecipientBusy:
                busy_at = i
                break
        assert sent == 1024
        assert busy_at == 1024
        assert bob_handle.queue.qsize() == 1024

    def test_broadcast_counts_and_skips_busy(self):
        registry = Registry(enqueue_wait_s=0.02)
        registry.register("alice", DeliveryHandle())
        registry.register("bob", DeliveryHandle(capacity=1))
        registry.register("carol", DeliveryHandle())
        assert registry.broadcast("alice", b"one") == 2
        # bob's single slot is now full; he gets skipped, carol still receives
        assert registry.broadcast("alice", b"two") == 1

    def test_broadcast_does_not_wait_on_a_full_mailbox(self):
        registry = Registry(enqueue_wait_s=1.0)
        registry.register("alice", DeliveryHandle())
        full = DeliveryHandle(capacity=1)
        assert full.offer(Frame(MsgKind.DELIVER), 0)
        registry.register("bob", full)
        registry.register("carol", DeliveryHandle())
        started = time.monotonic()
        assert registry.broadcast("alice", b"hi") == 1
        assert time.monotonic() - started < 0.1

    def test_drain_waits_for_the_first_frame_then_takes_all(self):
        handle = DeliveryHandle()
        assert handle.drain() == []
        started = time.monotonic()
        assert handle.drain(0.05) == []
        assert time.monotonic() - started >= 0.05
        frames = [Frame(MsgKind.DELIVER, b"%d" % i) for i in range(3)]

        def feed():
            time.sleep(0.05)
            for f in frames:
                handle.offer(f, 0)

        feeder = threading.Thread(target=feed)
        feeder.start()
        got = handle.drain(2.0)
        feeder.join(2.0)
        assert not feeder.is_alive()
        got += handle.drain()
        assert got == frames

    def test_broadcast_with_single_client(self):
        registry = Registry()
        registry.register("loner", DeliveryHandle())
        assert registry.broadcast("loner", b"anyone?") == 0

    def test_concurrent_registration_during_broadcast_sees_zero_or_one(self):
        for trial in range(50):
            registry = Registry(enqueue_wait_s=0.01)
            registry.register("alice", DeliveryHandle())
            registry.register("bob", DeliveryHandle())
            newcomer = DeliveryHandle()
            barrier = threading.Barrier(2)

            def do_broadcast():
                barrier.wait()
                registry.broadcast("alice", b"racing")

            def do_register():
                barrier.wait()
                registry.register("newcomer", newcomer)

            threads = [threading.Thread(target=do_broadcast), threading.Thread(target=do_register)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert newcomer.queue.qsize() in (0, 1), f"trial {trial}"

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from("abcde")), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_model(self, ops):
        registry = Registry()
        model: dict[str, DeliveryHandle] = {}
        for is_register, name in ops:
            if is_register:
                handle = DeliveryHandle(capacity=1)
                try:
                    registry.register(name, handle)
                    registered = True
                except DuplicateId:
                    registered = False
                assert registered == (name not in model)
                if registered:
                    model[name] = handle
            else:
                registry.unregister(name)
                model.pop(name, None)
            assert registry.ids() == set(model)


class TestServerLifecycle:
    def test_bye_cleans_up_registry_and_workers(self, relay):
        clients = [relay.client(f"c{i}") for i in range(4)]
        assert len(relay.server.registry.ids()) == 4
        for c in clients:
            c.bye()
        assert _wait_until(lambda: len(relay.server.registry.ids()) == 0)
        assert _wait_until(lambda: relay.server.worker_count == 0)

    def test_hard_disconnect_cleans_up(self, tcp_relay):
        client = tcp_relay.client("dropper")
        client.endpoint.close()  # no BYE, just gone
        assert _wait_until(lambda: "dropper" not in tcp_relay.server.registry.ids())

    def test_failed_register_ack_leaves_no_ghost_in_memory(self):
        # The peer is closed when the ack goes out, so its send raises.
        fixture = ServerFixture("mem")
        try:
            endpoint = fixture.endpoint()
            _hello(endpoint)
            endpoint.send_frame(Frame(MsgKind.REGISTER, b"ghost"))
            endpoint.close()
            assert _wait_until(lambda: fixture.server.worker_count == 0)
            assert fixture.server.registry.ids() == set()
        finally:
            fixture.stop()

    def test_reset_during_register_leaves_no_ghost_over_tcp(self, tcp_relay):
        for i in range(20):
            endpoint = tcp_relay.endpoint()
            _hello(endpoint)
            # SO_LINGER 0: close sends a reset instead of a FIN.
            endpoint._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            endpoint.send_frame(Frame(MsgKind.REGISTER, b"ghost-%02d" % i))
            endpoint._sock.close()
        assert _wait_until(lambda: tcp_relay.server.worker_count == 0)
        assert tcp_relay.server.registry.ids() == set()

    def test_acceptor_survives_emfile(self):
        class OutOfDescriptorsOnce:
            def __init__(self, sock):
                self._sock, self.failed = sock, False

            def accept(self):
                if not self.failed:
                    self.failed = True
                    raise OSError(errno.EMFILE, "Too many open files")
                return self._sock.accept()

            def __getattr__(self, name):
                return getattr(self._sock, name)

        listener = listen("127.0.0.1:0")
        flaky = listener._sock = OutOfDescriptorsOnce(listener._sock)
        server = RelayServer(listener, ServerConfig(poll_interval_s=0.01))
        server.start()
        try:
            assert _wait_until(lambda: flaky.failed)
            client = ChatClient(connect(server.addr))
            client.handshake(timeout=2.0)
            client.bye()
        finally:
            server.shutdown()

    def test_server_full_refused(self):
        fixture = ServerFixture("tcp", ServerConfig(max_clients=2, poll_interval_s=0.01))
        try:
            keep = [fixture.client(f"k{i}") for i in range(2)]
            extra = fixture.endpoint()
            reply = extra.recv_frame(2.0)
            assert reply.kind is MsgKind.ERROR
            assert reply.payload[0] == ErrorCode.RECIPIENT_BUSY
            extra.close()
            for c in keep:
                c.bye()
        finally:
            fixture.stop()

    def test_worker_count_counts_readers_only(self, relay):
        clients = [relay.client(f"c{i}") for i in range(2)]
        assert _wait_until(
            lambda: sum(t.name.endswith("-writer") for t in threading.enumerate()) >= 2
        )
        assert relay.server.worker_count == 2
        for c in clients:
            c.bye()

    @pytest.mark.parametrize("transport", ["tcp", "mem"])
    def test_shutdown_with_registered_clients_is_prompt(self, transport):
        poll = 0.25
        fixture = ServerFixture(transport, ServerConfig(poll_interval_s=poll))
        clients = [fixture.client(f"c{i}") for i in range(3)]
        started = time.monotonic()
        fixture.stop()
        elapsed = time.monotonic() - started
        for c in clients:
            c.close()
        assert elapsed < 2 * poll + 0.2, elapsed
        assert fixture.server.worker_count == 0
        assert not [t.name for t in threading.enumerate() if t.name.endswith("-writer")]

    def test_shutdown_is_not_held_by_a_client_that_stopped_reading(self, monkeypatch):
        # The reader blocks in an inline ECHO_REPLY send once the client's
        # receive buffer is full; shutdown must not wait out the send timeout.
        monkeypatch.setattr(StreamEndpoint, "send_timeout_s", 3.0)
        poll = 0.05
        fixture = ServerFixture("tcp", ServerConfig(poll_interval_s=poll))
        endpoint = fixture.endpoint()
        _hello(endpoint)
        sent = []

        def flood():
            try:
                for _ in range(2000):
                    endpoint.send_frame(Frame(MsgKind.ECHO, b"e" * 65536))
                    sent.append(1)
            except ConnectionClosed:
                pass

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        # The flood stalls once the reader is stuck in its send.
        last, still_since = -1, time.monotonic()
        while time.monotonic() - still_since < 0.5:
            if len(sent) != last:
                last, still_since = len(sent), time.monotonic()
            time.sleep(0.05)
        started = time.monotonic()
        fixture.stop()
        elapsed = time.monotonic() - started
        endpoint.close()
        flooder.join(timeout=5.0)
        assert not flooder.is_alive()
        assert elapsed < 2 * poll + 0.5, elapsed
        assert fixture.server.worker_count == 0

    def test_deliver_frames_counted_once(self, relay):
        # every DELIVER corresponds to exactly one DIRECT in a lossless setup
        alice = relay.client("alice")
        bob = relay.client("bob")
        for i in range(50):
            alice.send_direct("bob", b"msg-%02d" % i)
        got = [bob.next_delivery(3.0) for _ in range(50)]
        assert got == [("alice", b"msg-%02d" % i) for i in range(50)]
        assert bob.next_delivery(0.2) is None  # no duplication
        alice.bye()
        bob.bye()


class TestDeliveryLatency:
    @pytest.mark.parametrize("transport", ["tcp", "mem"])
    def test_direct_does_not_wait_for_the_poll_interval(self, transport):
        # The recipient is idle in recv_frame(0.5); its writer must deliver anyway.
        fixture = ServerFixture(transport, ServerConfig(poll_interval_s=0.5))
        try:
            alice = fixture.client("alice")
            bob = fixture.client("bob")
            for i in range(20):
                started = time.monotonic()
                alice.send_direct("bob", b"now-%02d" % i)
                assert bob.next_delivery(2.0) == ("alice", b"now-%02d" % i)
                assert time.monotonic() - started < 0.1, f"message {i}"
            alice.bye()
            bob.bye()
        finally:
            fixture.stop()


class TestIsolationAndSoak:
    def _round_trip_ms(self, alice, bob, n=12):
        samples = []
        for i in range(n):
            token = b"rt-%d" % i
            started = time.perf_counter()
            alice.send_direct("bob", token)
            delivery = bob.next_delivery(5.0)
            assert delivery == ("alice", token)
            bob.send_direct("alice", token)
            assert alice.next_delivery(5.0) == ("bob", token)
            samples.append((time.perf_counter() - started) * 1000.0)
        return statistics.median(samples)

    def test_stalled_client_does_not_block_others(self, tcp_relay):
        alice = tcp_relay.client("alice")
        bob = tcp_relay.client("bob")
        unloaded = self._round_trip_ms(alice, bob)

        # carol registers, then stops reading; stuff her pipe until her
        # worker is wedged in a blocking send
        carol_endpoint = tcp_relay.endpoint()
        carol_endpoint.send_frame(Frame(MsgKind.HELLO, pack_hello(HandshakeParams(1, 8, 2**20))))
        assert carol_endpoint.recv_frame(2.0).kind is MsgKind.HELLO_ACK
        carol_endpoint.send_frame(Frame(MsgKind.REGISTER, b"carol"))
        assert carol_endpoint.recv_frame(2.0).kind is MsgKind.REGISTER_ACK
        blob = b"z" * 32768
        for _ in range(200):
            alice.send_direct("carol", blob)

        loaded = self._round_trip_ms(alice, bob)
        # 10x the unloaded median, plus a little for poll-interval jitter
        assert loaded < 10 * unloaded + 50.0, (unloaded, loaded)
        alice.bye()
        bob.bye()
        carol_endpoint.close()

    def test_soak_32_clients_pairwise_no_crosstalk(self, tcp_relay):
        n_clients, per_pair = 32, 100
        results = {}
        failures = []
        barrier = threading.Barrier(n_clients)

        def session(i):
            me, partner = f"c{i:02d}", f"c{i ^ 1:02d}"
            try:
                client = tcp_relay.client(me)
                barrier.wait()
                expected = [
                    ("%s>%s#%03d" % (partner, me, j)).encode() for j in range(per_pair)
                ]
                for j in range(per_pair):
                    client.send_direct(partner, ("%s>%s#%03d" % (me, partner, j)).encode())
                got = []
                for _ in range(per_pair):
                    delivery = client.next_delivery(20.0)
                    if delivery is None:
                        break
                    got.append(delivery)
                results[me] = (partner, expected, got)
                client.bye()
            except Exception as exc:  # noqa: BLE001 - collected and failed below
                failures.append(f"{me}: {exc}")

        threads = [threading.Thread(target=session, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        assert len(results) == n_clients
        total = 0
        for me, (partner, expected, got) in results.items():
            senders = {frm for frm, _ in got}
            assert senders == {partner}, f"{me} heard from {senders}"
            assert [m for _, m in got] == expected, f"{me} payload mismatch"
            total += len(got)
        assert total == n_clients * per_pair
