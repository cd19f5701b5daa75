"""Chat client: handshake, registration, and the scriptable command loop.

A reader thread owns the endpoint's receive side and sorts inbound frames
into queues (deliveries, pongs, register acks, errors); the calling thread
sends requests and waits on those queues.  Script mode replays
newline-separated ``/verb`` commands and succeeds only if every expected
reply arrived and no ERROR frame did.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from .transport import ConnectionClosed, TimedOut
from .wire import (
    DEFAULT_PARAMS,
    ErrorCode,
    Frame,
    HandshakeParams,
    MsgKind,
    ProtocolError,
    negotiate,
    pack_addressed,
    pack_hello,
    unpack_addressed,
    unpack_error,
    unpack_hello,
)


class ClientError(Exception):
    pass


class HandshakeFailed(ClientError):
    pass


class RegistrationFailed(ClientError):
    pass


@dataclass
class ReceivedError:
    code: ErrorCode
    detail: str


class ChatClient:
    """One client session over any frame endpoint."""

    def __init__(self, endpoint, proposal: HandshakeParams = DEFAULT_PARAMS):
        self.endpoint = endpoint
        self.proposal = proposal
        self.agreed: HandshakeParams | None = None
        self.client_id: str | None = None
        self.deliveries: queue.Queue[tuple[str, bytes]] = queue.Queue()
        self.errors: queue.Queue[ReceivedError] = queue.Queue()
        self._pongs: queue.Queue[bytes] = queue.Queue()
        self._register_acks: queue.Queue[bool] = queue.Queue()
        self._reader: threading.Thread | None = None
        self._closed = threading.Event()

    # -- session setup -------------------------------------------------

    def handshake(self, timeout: float = 5.0) -> HandshakeParams:
        """Run HELLO / HELLO_ACK synchronously and start the reader."""
        self.endpoint.max_payload = self.proposal.max_payload
        self.endpoint.send_frame(Frame(MsgKind.HELLO, pack_hello(self.proposal)))
        reply = self.endpoint.recv_frame(timeout)
        if reply.kind is MsgKind.ERROR:
            code, detail = unpack_error(reply.payload)
            raise HandshakeFailed(f"server refused: {code.name} {detail}")
        if reply.kind is not MsgKind.HELLO_ACK:
            raise HandshakeFailed(f"expected HELLO_ACK, got {reply.kind.name}")
        agreed = unpack_hello(reply.payload)
        # The server must have arrived at the same minimum we can compute.
        if agreed != negotiate(self.proposal, agreed):
            raise HandshakeFailed(f"server offered parameters above our proposal: {agreed}")
        self.agreed = agreed
        self.endpoint.max_payload = agreed.max_payload
        self._reader = threading.Thread(target=self._read_loop, name="client-reader", daemon=True)
        self._reader.start()
        return agreed

    def register(self, client_id: str, timeout: float = 5.0) -> None:
        self.endpoint.send_frame(Frame(MsgKind.REGISTER, client_id.encode("utf-8")))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self._register_acks.get(timeout=0.02)
                self.client_id = client_id
                return
            except queue.Empty:
                err = self._take_error()
                if err is not None:
                    raise RegistrationFailed(f"{err.code.name}: {err.detail}") from None
        raise RegistrationFailed("no REGISTER_ACK within timeout")

    # -- requests ------------------------------------------------------

    def send_direct(self, to_id: str, message: bytes) -> None:
        self.endpoint.send_frame(Frame(MsgKind.DIRECT, pack_addressed(to_id, message)))

    def broadcast(self, message: bytes) -> None:
        self.endpoint.send_frame(Frame(MsgKind.BROADCAST, bytes(message)))

    def ping(self, payload: bytes = b"ping", timeout: float = 5.0) -> bool:
        """ECHO round trip; True iff the reply carried the same payload."""
        self.endpoint.send_frame(Frame(MsgKind.ECHO, payload))
        try:
            return self._pongs.get(timeout=timeout) == payload
        except queue.Empty:
            return False

    def next_delivery(self, timeout: float) -> tuple[str, bytes] | None:
        try:
            return self.deliveries.get(timeout=timeout)
        except queue.Empty:
            return None

    def bye(self) -> None:
        try:
            self.endpoint.send_frame(Frame(MsgKind.BYE))
        except ConnectionClosed:
            pass
        self.close()

    def close(self) -> None:
        self._closed.set()
        self.endpoint.close()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=2.0)

    # -- inbound -------------------------------------------------------

    def _take_error(self) -> ReceivedError | None:
        try:
            return self.errors.get_nowait()
        except queue.Empty:
            return None

    def _read_loop(self) -> None:
        while not self._closed.is_set():
            try:
                frame = self.endpoint.recv_frame(0.05)
            except TimedOut:
                continue
            except (ConnectionClosed, ProtocolError, OSError):
                return
            if frame.kind is MsgKind.DELIVER:
                try:
                    self.deliveries.put(unpack_addressed(frame.payload))
                except ValueError:
                    pass
            elif frame.kind is MsgKind.ECHO_REPLY:
                self._pongs.put(frame.payload)
            elif frame.kind is MsgKind.REGISTER_ACK:
                self._register_acks.put(True)
            elif frame.kind is MsgKind.ERROR:
                try:
                    code, detail = unpack_error(frame.payload)
                except ValueError:
                    code, detail = ErrorCode.MALFORMED, "<unparseable error>"
                self.errors.put(ReceivedError(code, detail))


def run_script(client: ChatClient, lines, emit=print, settle_s: float = 0.3) -> bool:
    """Replay ``/msg``, ``/all``, ``/ping``, ``/quit`` commands.

    Emits one machine-parseable ``key=value`` line per event.  Returns True
    iff every ping was answered, no ERROR frame arrived, and no line was
    malformed.
    """
    ok = True
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("/msg "):
            parts = line.split(" ", 2)
            if len(parts) < 3:
                emit(f"event=bad_command line={line!r}")
                ok = False
                continue
            client.send_direct(parts[1], parts[2].encode("utf-8"))
            emit(f"event=sent to={parts[1]}")
        elif line.startswith("/all "):
            client.broadcast(line[len("/all "):].encode("utf-8"))
            emit("event=broadcast")
        elif line.strip() == "/ping":
            if client.ping():
                emit("event=pong")
            else:
                emit("event=ping_timeout")
                ok = False
        elif line.strip() == "/quit":
            break
        else:
            emit(f"event=bad_command line={line!r}")
            ok = False
    # Give routed messages a moment to land, then report everything received.
    while True:
        delivery = client.next_delivery(settle_s)
        if delivery is None:
            break
        from_id, message = delivery
        emit(f"event=deliver from={from_id} text={message.decode('utf-8', 'replace')}")
    while True:
        err = client._take_error()
        if err is None:
            break
        emit(f"event=error code={int(err.code)} detail={err.detail}")
        ok = False
    client.bye()
    return ok
