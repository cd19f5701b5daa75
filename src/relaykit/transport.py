"""Network endpoints: TCP stream, UDP datagram, and an in-memory transport.

All three expose the same frame-level contract: ``send_frame(frame)`` and
``recv_frame(timeout)`` where the timeout is mandatory (there is no infinite
blocking call, so worker shutdown stays deterministic).  Stream endpoints
reassemble frames from the byte stream using the length field; datagram
endpoints map one frame to one datagram; in-memory endpoints route encoded
frames through a LossyChannel pair on a shared logical clock, which lets the
relay server run entirely without sockets in tests.

Addresses are IPv4 ``host:port`` strings.
"""

from __future__ import annotations

import errno
import itertools
import select
import socket
import threading
import time
from collections import deque
from dataclasses import replace

from .channel import ChannelConfig, LossyChannel
from .wire import (
    HEADER_SIZE,
    MAX_PAYLOAD_LEN,
    PREAMBLE,
    BadMagic,
    Frame,
    PayloadTooLarge,
    decode_frame,
    encode_frame,
)

# Largest UDP payload over IPv4; bigger frames must go over a stream.
DATAGRAM_LIMIT = 65507

_RECV_CHUNK = 65536
_MEM_POLL_S = 0.0002


class TransportError(Exception):
    """Base class for endpoint failures."""


class TimedOut(TransportError):
    """No frame (or connection) arrived within the timeout."""


class ConnectionClosed(TransportError):
    """Peer is gone or the endpoint was closed locally."""


class FrameTooLarge(TransportError):
    """Encoded frame exceeds the datagram size limit."""


class AddrInUse(TransportError):
    """Bind address already taken."""


class PermissionDenied(TransportError):
    """OS refused the bind address."""


def parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host, int(port)


def format_addr(pair: tuple[str, int]) -> str:
    return f"{pair[0]}:{pair[1]}"


def _bind(sock: socket.socket, addr: str) -> None:
    try:
        sock.bind(parse_addr(addr))
    except OSError as exc:
        sock.close()
        if exc.errno == errno.EADDRINUSE:
            raise AddrInUse(f"address in use: {addr}") from None
        if exc.errno in (errno.EACCES, errno.EPERM):
            raise PermissionDenied(f"bind not permitted: {addr}") from None
        raise


class StreamEndpoint:
    """A connected TCP endpoint carrying length-delimited frames.

    One thread may receive while others send: the socket timeout is set once
    and never touched again, ``recv_frame`` waits for readability with
    ``select`` instead, and a lock keeps two senders from interleaving the
    partial writes of their frames.
    """

    # A peer that stops draining for this long is treated as gone.
    send_timeout_s = 30.0
    # Largest payload length a received header may declare; a longer one is
    # refused before any of its payload is buffered.
    max_payload = MAX_PAYLOAD_LEN

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(self.send_timeout_s)
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self.local_addr = format_addr(sock.getsockname())
        self.remote_addr = format_addr(sock.getpeername())

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError:
            raise ConnectionClosed(f"send to {self.remote_addr} failed") from None

    def recv_frame(self, timeout: float) -> Frame:
        """Block up to ``timeout`` seconds for one complete frame.

        Partial reads accumulate across calls, so a frame split over many
        small writes still comes out whole.
        """
        deadline = time.monotonic() + timeout
        while True:
            frame = self._pop_frame()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimedOut(f"no frame within {timeout:.3f}s")
            try:
                if not select.select([self._sock], [], [], remaining)[0]:
                    continue
                chunk = self._sock.recv(_RECV_CHUNK)
            except (OSError, ValueError):  # ValueError: closed by another thread
                raise ConnectionClosed(f"recv from {self.remote_addr} failed") from None
            if not chunk:
                raise ConnectionClosed(f"peer {self.remote_addr} closed the connection")
            self._buf += chunk

    def _pop_frame(self) -> Frame | None:
        # Bail out on a bad preamble now rather than trusting a garbage
        # length field and waiting for bytes that will never come.
        probe = self._buf[: len(PREAMBLE)]
        if probe != PREAMBLE[: len(probe)]:
            raise BadMagic(f"stream desynchronized: got {probe.hex()}")
        if len(self._buf) < HEADER_SIZE:
            return None
        length = int.from_bytes(self._buf[4:8], "big")
        if length > self.max_payload:
            raise PayloadTooLarge(f"frame declares {length} bytes, limit is {self.max_payload}")
        total = HEADER_SIZE + length
        if len(self._buf) < total:
            return None
        # Parse in place; the payload is copied once, into the frame.  The
        # view must be released before the buffer is resized, or the
        # bytearray raises BufferError.
        with memoryview(self._buf) as view:
            frame, _ = decode_frame(view)
        del self._buf[:total]
        return frame

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class StreamListener:
    """Accepting side of a TCP endpoint."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        self.addr = format_addr(sock.getsockname())

    def accept(self, timeout: float) -> StreamEndpoint:
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TimedOut(f"no connection within {timeout:.3f}s") from None
        except OSError:
            if self._closed:
                raise ConnectionClosed("listener closed") from None
            raise  # EMFILE and the like: the listener still works
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return StreamEndpoint(conn)
        except OSError:  # e.g. ENOTCONN: the peer reset before accept returned
            conn.close()
            raise

    def close(self) -> None:
        self._closed = True
        self._sock.close()


def listen(addr: str, backlog: int = 64) -> StreamListener:
    """Bind a TCP listener; ``host:0`` picks an ephemeral port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    _bind(sock, addr)
    sock.listen(backlog)
    return StreamListener(sock)


def connect(addr: str, timeout: float = 5.0) -> StreamEndpoint:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(parse_addr(addr))
    except socket.timeout:
        sock.close()
        raise TimedOut(f"connect to {addr} timed out") from None
    except OSError as exc:
        sock.close()
        raise ConnectionClosed(f"connect to {addr} failed: {exc}") from None
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return StreamEndpoint(sock)


class DatagramEndpoint:
    """A UDP endpoint carrying one frame per datagram."""

    def __init__(self, sock: socket.socket, remote: str | None = None):
        self._sock = sock
        self._remote = remote
        self.local_addr = format_addr(sock.getsockname())
        self.remote_addr = remote

    def send_frame(self, frame: Frame, dest: str | None = None) -> None:
        data = encode_frame(frame)
        if len(data) > DATAGRAM_LIMIT:
            raise FrameTooLarge(f"{len(data)} bytes > datagram limit {DATAGRAM_LIMIT}")
        target = dest or self._remote
        if target is None:
            raise ValueError("no destination address")
        self._sock.sendto(data, parse_addr(target))

    def recv_frame_from(self, timeout: float) -> tuple[Frame, str]:
        self._sock.settimeout(timeout)
        try:
            data, addr = self._sock.recvfrom(_RECV_CHUNK)
        except socket.timeout:
            raise TimedOut(f"no datagram within {timeout:.3f}s") from None
        except OSError:
            raise ConnectionClosed("datagram socket closed") from None
        frame, unconsumed = decode_frame(data)
        if unconsumed:
            raise TransportError(f"{unconsumed} trailing bytes in datagram")
        return frame, format_addr(addr)

    def recv_frame(self, timeout: float) -> Frame:
        return self.recv_frame_from(timeout)[0]

    def close(self) -> None:
        self._sock.close()


def bind_datagram(addr: str) -> DatagramEndpoint:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    _bind(sock, addr)
    return DatagramEndpoint(sock)


def connect_datagram(remote: str, local: str = "127.0.0.1:0") -> DatagramEndpoint:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    _bind(sock, local)
    return DatagramEndpoint(sock, remote=remote)


class InMemoryHub:
    """In-process network: endpoint pairs joined by LossyChannels.

    Every recv poll advances the shared tick clock by one, so with a lossless
    zero-delay config the hub behaves like a pair of FIFO queues.  Lossy
    configs work too, but deterministic lossy experiments belong in
    ``gbn.run_transfer``, which drives its channels single-threaded.
    """

    def __init__(self, config: ChannelConfig | None = None):
        self.config = config or ChannelConfig()
        self._lock = threading.Lock()
        self._accept_cv = threading.Condition(self._lock)
        self._backlog: deque[InMemoryEndpoint] = deque()
        self._now = 0
        self._ids = itertools.count()
        self._open = True

    def _derive_seed(self, n: int) -> int:
        return ((self.config.seed + n) & ((1 << 64) - 1)) or 1

    def connect(self) -> "InMemoryEndpoint":
        """Create a connected endpoint; its peer shows up on the listener."""
        with self._lock:
            if not self._open:
                raise ConnectionClosed("hub is closed")
            k = next(self._ids)
            c2s = LossyChannel(replace(self.config, seed=self._derive_seed(2 * k)))
            s2c = LossyChannel(replace(self.config, seed=self._derive_seed(2 * k + 1)))
            client = InMemoryEndpoint(self, c2s, s2c, f"mem:c{k}", f"mem:s{k}")
            server = InMemoryEndpoint(self, s2c, c2s, f"mem:s{k}", f"mem:c{k}")
            client._peer = server
            server._peer = client
            self._backlog.append(server)
            self._accept_cv.notify_all()
            return client

    def listener(self) -> "InMemoryListener":
        return InMemoryListener(self)

    def close(self) -> None:
        with self._lock:
            self._open = False
            self._accept_cv.notify_all()


class InMemoryListener:
    def __init__(self, hub: InMemoryHub):
        self._hub = hub
        self.addr = "mem:listener"

    def accept(self, timeout: float) -> "InMemoryEndpoint":
        deadline = time.monotonic() + timeout
        with self._hub._accept_cv:
            while not self._hub._backlog:
                if not self._hub._open:
                    raise ConnectionClosed("listener closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimedOut(f"no connection within {timeout:.3f}s")
                self._hub._accept_cv.wait(remaining)
            return self._hub._backlog.popleft()

    def close(self) -> None:
        self._hub.close()


class InMemoryEndpoint:
    """One side of an in-memory connection."""

    max_payload = MAX_PAYLOAD_LEN  # as on StreamEndpoint

    def __init__(self, hub, out_channel, in_channel, local, remote):
        self._hub = hub
        self._out = out_channel
        self._in = in_channel
        self._inbox: deque[bytes] = deque()
        self._closed = False
        self._peer: InMemoryEndpoint | None = None
        self.local_addr = local
        self.remote_addr = remote

    def send_frame(self, frame: Frame) -> None:
        with self._hub._lock:
            if self._closed or (self._peer and self._peer._closed):
                raise ConnectionClosed("in-memory connection closed")
            self._out.push(encode_frame(frame), self._hub._now)

    def recv_frame(self, timeout: float) -> Frame:
        deadline = time.monotonic() + timeout
        while True:
            with self._hub._lock:
                self._hub._now += 1
                self._inbox.extend(self._in.pop_ready(self._hub._now))
                if self._inbox:
                    raw = self._inbox.popleft()
                    length = len(raw) - HEADER_SIZE
                    if length > self.max_payload:
                        raise PayloadTooLarge(
                            f"frame carries {length} bytes, limit is {self.max_payload}"
                        )
                    frame, _ = decode_frame(raw)
                    return frame
                if self._closed:
                    raise ConnectionClosed("endpoint closed")
                if self._peer and self._peer._closed and not self._in.pending:
                    raise ConnectionClosed("peer closed")
            if time.monotonic() >= deadline:
                raise TimedOut(f"no frame within {timeout:.3f}s")
            time.sleep(_MEM_POLL_S)

    def close(self) -> None:
        with self._hub._lock:
            self._closed = True
