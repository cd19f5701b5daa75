"""Thread-per-client relay server.

Each accepted connection gets a reader thread, and once the client registers
a writer thread of its own.  The protocol lives in a ``Session``, which does
no I/O: the reader blocks in ``recv_frame``, feeds each frame to the
session, sends what it answers and closes when it says so.  It wakes every
``poll_interval_s`` only to check for shutdown or the session's deadline.
HELLO has one implementation, ``hello_reply``, shared with the datagram
responder.  A shared registry maps client IDs to per-client mailboxes.  The
writer blocks on its client's mailbox and writes each DELIVER the moment it
is queued.  Both threads write to one endpoint, which keeps frames whole.

The server enforces what it negotiates: a received frame over the agreed
``max_payload`` gets ERROR MALFORMED and a close, and no DELIVER is queued
for a client above the limit that client agreed.  HELLO, and then REGISTER,
must each arrive within ``handshake_timeout_s``.  ``shutdown`` closes every
client endpoint before joining, so a thread blocked in a send to a client
that stopped reading cannot hold it.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from .transport import ConnectionClosed, TimedOut, TransportError
from .wire import (
    DEFAULT_PARAMS,
    ErrorCode,
    Frame,
    HandshakeParams,
    MAX_PAYLOAD_LEN,
    MsgKind,
    ProtocolError,
    VersionMismatch,
    check_client_id,
    negotiate,
    pack_addressed,
    pack_error,
    pack_hello,
    unpack_addressed,
    unpack_hello,
)

log = logging.getLogger(__name__)

DEFAULT_QUEUE_CAPACITY = 1024
DEFAULT_ENQUEUE_WAIT_S = 0.1
_ACCEPT_BACKOFF_S = 0.05  # the acceptor's wait before it retries a failed accept


class RoutingError(Exception):
    """Base for registry/routing failures; carries the wire error code."""

    code = ErrorCode.MALFORMED


class DuplicateId(RoutingError):
    code = ErrorCode.DUPLICATE_ID


class UnknownRecipient(RoutingError):
    code = ErrorCode.UNKNOWN_RECIPIENT


class NotRegistered(RoutingError):
    code = ErrorCode.NOT_REGISTERED


class RecipientBusy(RoutingError):
    code = ErrorCode.RECIPIENT_BUSY


class RegistryFull(RoutingError):
    # No dedicated wire code exists for a full server; busy is the closest fit.
    code = ErrorCode.RECIPIENT_BUSY


class DeliveryTooLarge(RoutingError):
    """The DELIVER would exceed the max_payload its recipient negotiated."""

    # The wire format is frozen, so this reuses MALFORMED.
    code = ErrorCode.MALFORMED


class DeliveryHandle:
    """Bounded mailbox for one client.

    Any reader may enqueue; only the owning client's writer dequeues.
    ``max_payload`` is the limit the client negotiated; the registry queues
    no DELIVER whose payload is longer.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY, max_payload: int = MAX_PAYLOAD_LEN):
        self.queue: queue.Queue[Frame] = queue.Queue(maxsize=capacity)
        self.max_payload = max_payload

    def offer(self, frame: Frame, wait_s: float) -> bool:
        """Enqueue with a bounded wait; False means the mailbox stayed full."""
        try:
            self.queue.put(frame, timeout=wait_s)
            return True
        except queue.Full:
            return False

    def drain(self, timeout: float = 0.0) -> list[Frame]:
        """Wait up to ``timeout`` for a frame, then remove everything queued (owner only).

        Returns an empty list when nothing arrived in time.
        """
        try:
            out = [self.queue.get(timeout=timeout)]
        except queue.Empty:
            return []
        while True:
            try:
                out.append(self.queue.get_nowait())
            except queue.Empty:
                return out


class Registry:
    """Shared map from client ID to delivery handle.

    Mutations and snapshots happen under one lock; enqueueing happens outside
    it.  IDs are unique while their owner is connected and become reusable the
    moment it unregisters.
    """

    def __init__(self, capacity: int = 64, enqueue_wait_s: float = DEFAULT_ENQUEUE_WAIT_S):
        self.capacity = capacity
        self.enqueue_wait_s = enqueue_wait_s
        self._lock = threading.Lock()
        self._entries: dict[str, DeliveryHandle] = {}

    def register(self, client_id: str, handle: DeliveryHandle) -> None:
        check_client_id(client_id)
        with self._lock:
            if client_id in self._entries:
                raise DuplicateId(f"id already registered: {client_id!r}")
            if len(self._entries) >= self.capacity:
                raise RegistryFull(f"registry at capacity ({self.capacity})")
            self._entries[client_id] = handle

    def unregister(self, client_id: str) -> None:
        with self._lock:
            self._entries.pop(client_id, None)

    def ids(self) -> set[str]:
        with self._lock:
            return set(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def route_direct(self, from_id: str, to_id: str, message: bytes) -> None:
        """Enqueue DELIVER(from_id, message) on the recipient's mailbox.

        Raises:
            NotRegistered: sender has not registered.
            UnknownRecipient: no such recipient ID.
            DeliveryTooLarge: the DELIVER exceeds the recipient's max_payload.
            RecipientBusy: recipient's mailbox stayed full past the wait.
        """
        with self._lock:
            if from_id not in self._entries:
                raise NotRegistered(f"sender not registered: {from_id!r}")
            handle = self._entries.get(to_id)
        if handle is None:
            raise UnknownRecipient(f"no such recipient: {to_id!r}")
        frame = Frame(MsgKind.DELIVER, pack_addressed(from_id, message))
        # The DELIVER names the sender where the DIRECT named the recipient,
        # so its length differs from the DIRECT's: check the DELIVER.
        if len(frame.payload) > handle.max_payload:
            raise DeliveryTooLarge(
                f"{len(frame.payload)}-byte delivery exceeds {to_id!r}'s limit {handle.max_payload}"
            )
        if not handle.offer(frame, self.enqueue_wait_s):
            raise RecipientBusy(f"recipient queue full: {to_id!r}")

    def broadcast(self, from_id: str, message: bytes) -> int:
        """Enqueue DELIVER for every client in a snapshot except the sender.

        A full mailbox is skipped at once: it neither stalls the sender for
        ``enqueue_wait_s`` nor aborts the broadcast.  So is a recipient whose
        max_payload the DELIVER exceeds.  Returns the number actually
        enqueued.
        """
        with self._lock:
            if from_id not in self._entries:
                raise NotRegistered(f"sender not registered: {from_id!r}")
            snapshot = [(cid, h) for cid, h in self._entries.items() if cid != from_id]
        frame = Frame(MsgKind.DELIVER, pack_addressed(from_id, message))
        delivered = 0
        for cid, handle in snapshot:
            if len(frame.payload) > handle.max_payload:
                log.warning("broadcast from %r skipped %r: delivery over its limit", from_id, cid)
            elif handle.offer(frame, 0):
                delivered += 1
            else:
                log.warning("broadcast from %r skipped busy recipient %r", from_id, cid)
        return delivered


@dataclass
class ServerConfig:
    max_clients: int = 64
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    poll_interval_s: float = 0.02
    handshake_timeout_s: float = 5.0
    enqueue_wait_s: float = DEFAULT_ENQUEUE_WAIT_S
    supported: HandshakeParams = field(default_factory=lambda: DEFAULT_PARAMS)


_NO_REPLY: tuple[Frame, ...] = ()  # one constant: a routed frame allocates no list


def _error(code: ErrorCode, detail: str) -> Frame:
    return Frame(MsgKind.ERROR, pack_error(code, detail))


def hello_reply(payload: bytes, supported: HandshakeParams) -> tuple[Frame, HandshakeParams | None]:
    """The server's answer to a HELLO: ``(HELLO_ACK, agreed)`` or ``(ERROR, None)``."""
    try:
        agreed = negotiate(unpack_hello(payload), supported)
    except VersionMismatch as exc:
        return _error(ErrorCode.VERSION_MISMATCH, str(exc)), None
    except ValueError as exc:
        return _error(ErrorCode.MALFORMED, str(exc)), None
    return Frame(MsgKind.HELLO_ACK, pack_hello(agreed)), agreed


class Session:
    """The relay protocol of one connection, with no I/O.

    The caller sends the frames ``on_frame`` or ``expire`` returns, then
    closes if told to.  ``deadline`` is when HELLO, then REGISTER, is due,
    and ``None`` once registered.  ``client_id`` is set in the step that
    registers it, so ``close`` unregisters it even if REGISTER_ACK is lost.
    """

    def __init__(self, registry: Registry, config: ServerConfig, now: float):
        self._registry = registry
        self._config = config
        self.handle: DeliveryHandle | None = None
        self.client_id: str | None = None
        self.max_payload = config.supported.max_payload
        self.deadline: float | None = now + config.handshake_timeout_s

    def on_frame(self, frame: Frame, now: float) -> tuple[Sequence[Frame], bool]:
        kind = frame.kind
        if self.handle is None:
            if kind is not MsgKind.HELLO:
                return [_error(ErrorCode.MALFORMED, "expected HELLO")], True
            reply, agreed = hello_reply(frame.payload, self._config.supported)
            if agreed is not None:
                self.max_payload = agreed.max_payload
                self.handle = DeliveryHandle(self._config.queue_capacity, agreed.max_payload)
                self.deadline = now + self._config.handshake_timeout_s
            return [reply], agreed is None
        if kind is MsgKind.DIRECT or kind is MsgKind.BROADCAST:
            if self.client_id is None:
                return [_error(ErrorCode.NOT_REGISTERED, "register first")], False
            try:
                if kind is MsgKind.DIRECT:
                    to_id, message = unpack_addressed(frame.payload)
                    self._registry.route_direct(self.client_id, to_id, message)
                else:
                    self._registry.broadcast(self.client_id, frame.payload)
            except ValueError as exc:
                return [_error(ErrorCode.MALFORMED, str(exc))], False
            except RoutingError as exc:
                return [_error(exc.code, str(exc))], False
            return _NO_REPLY, False
        if kind is MsgKind.ECHO:
            return [Frame(MsgKind.ECHO_REPLY, frame.payload)], False
        if kind is MsgKind.REGISTER:
            return [self._register(frame.payload)], False
        if kind is MsgKind.BYE:
            return _NO_REPLY, True
        return [_error(ErrorCode.MALFORMED, f"unexpected kind {kind.name}")], False

    def _register(self, payload: bytes) -> Frame:
        if self.client_id is not None:
            return _error(ErrorCode.MALFORMED, "already registered")
        try:
            client_id = payload.decode("utf-8")
            self._registry.register(client_id, self.handle)
        except ValueError as exc:  # includes UnicodeDecodeError
            return _error(ErrorCode.MALFORMED, f"bad id: {exc}")
        except RoutingError as exc:
            return _error(exc.code, str(exc))
        self.client_id, self.deadline = client_id, None
        return Frame(MsgKind.REGISTER_ACK)

    def expire(self) -> tuple[Sequence[Frame], bool]:
        """The deadline passed: close, after HELLO with an ERROR first."""
        if self.handle is None:
            return _NO_REPLY, True
        return [_error(ErrorCode.NOT_REGISTERED, "no REGISTER in time")], True

    def close(self) -> None:
        """Unregister the client's id; calling it again does nothing."""
        if self.client_id is not None:
            self._registry.unregister(self.client_id)
            self.client_id = None


class RelayServer:
    """Acceptor plus a reader and a writer thread per client connection."""

    def __init__(self, listener, config: ServerConfig | None = None):
        self.listener = listener
        self.config = config or ServerConfig()
        self.registry = Registry(self.config.max_clients, self.config.enqueue_wait_s)
        self._stop = threading.Event()
        self._workers_lock = threading.Lock()
        # Each reader thread with the endpoint it serves, so that shutdown
        # can close the endpoint.
        self._workers: dict[threading.Thread, object] = {}
        self._acceptor: threading.Thread | None = None
        self._client_seq = 0

    @property
    def addr(self) -> str:
        return self.listener.addr

    @property
    def worker_count(self) -> int:
        """Connections being served: reader threads, not counting writers."""
        with self._workers_lock:
            return len(self._workers)

    def start(self) -> None:
        self._acceptor = threading.Thread(target=self._accept_loop, name="acceptor", daemon=True)
        self._acceptor.start()

    def serve_forever(self) -> None:
        """Run until interrupted; used by the CLI."""
        self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._stop.set()
        self.listener.close()
        if self._acceptor is not None:
            self._acceptor.join()
        while True:
            with self._workers_lock:
                workers = dict(self._workers)
            if not workers:
                break
            # Closing wakes a reader or writer blocked in a send to a client
            # that stopped reading, which would otherwise hold the join for
            # up to the endpoint's send timeout.
            for endpoint in workers.values():
                endpoint.close()
            for w in workers:
                w.join()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                endpoint = self.listener.accept(self.config.poll_interval_s)
            except TimedOut:
                continue
            except ConnectionClosed:
                break
            except OSError as exc:
                # Out of descriptors or memory, or a peer that reset before
                # accept returned: none of these ends the acceptor.
                log.warning("accept failed: %s", exc)
                self._stop.wait(_ACCEPT_BACKOFF_S)
                continue
            if self.worker_count >= self.config.max_clients:
                self._refuse(endpoint)
                continue
            self._client_seq += 1
            worker = threading.Thread(
                target=self._client_main,
                args=(endpoint,),
                name=f"client-{self._client_seq}",
                daemon=True,
            )
            with self._workers_lock:
                self._workers[worker] = endpoint
            worker.start()

    def _refuse(self, endpoint) -> None:
        try:
            endpoint.send_frame(_error(ErrorCode.RECIPIENT_BUSY, "server full"))
        except TransportError:
            pass
        endpoint.close()

    def _client_main(self, endpoint) -> None:
        try:
            self._serve_client(endpoint)
        except Exception:
            log.exception("worker for %s crashed", getattr(endpoint, "remote_addr", "?"))
        finally:
            endpoint.close()
            with self._workers_lock:
                self._workers.pop(threading.current_thread(), None)

    def _serve_client(self, endpoint) -> None:
        session = Session(self.registry, self.config, time.monotonic())
        done = threading.Event()
        writer: threading.Thread | None = None
        try:
            while not self._stop.is_set():
                endpoint.max_payload = session.max_payload
                wait = self.config.poll_interval_s
                if session.deadline is not None:
                    wait = min(wait, session.deadline - time.monotonic())
                try:
                    if wait <= 0:
                        replies, close = session.expire()
                    else:
                        replies, close = session.on_frame(endpoint.recv_frame(wait), time.monotonic())
                except TimedOut:
                    continue
                except ProtocolError as exc:
                    replies, close = [_error(ErrorCode.MALFORMED, str(exc))], True
                for reply in replies:
                    endpoint.send_frame(reply)
                if close:
                    break
                # Only a registered client is sent DELIVERs.  Starting its
                # writer after REGISTER_ACK has gone out keeps them behind it.
                if writer is None and session.client_id is not None:
                    writer = threading.Thread(
                        target=self._write_loop,
                        args=(endpoint, session.handle, done),
                        name=f"{threading.current_thread().name}-writer",
                        daemon=True,
                    )
                    writer.start()
        except ConnectionClosed:
            pass
        finally:
            # Entry must be gone before the worker exits.  Closing the endpoint
            # also wakes a writer blocked on a peer that stopped reading.
            session.close()
            done.set()
            endpoint.close()
            if writer is not None:
                writer.join()

    def _write_loop(self, endpoint, handle: DeliveryHandle, done: threading.Event) -> None:
        try:
            while not done.is_set():
                for frame in handle.drain(self.config.poll_interval_s):
                    endpoint.send_frame(frame)
        except TransportError:
            # The peer is gone or stopped reading; end the reader too.
            endpoint.close()
