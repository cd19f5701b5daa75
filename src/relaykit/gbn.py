"""Go-Back-N ARQ sender/receiver state machines, plus a simulation harness.

Segment layout (big-endian):

    kind (1B) | seq (4B) | payload-length (2B) | checksum (2B) | payload

kind 0x10 is DATA, 0x11 is ACK.  An ACK carries the next-expected sequence
number (cumulative) and an empty payload.  The checksum is the byte-sum mod
65536 of every segment byte except the checksum field itself; covering the
header means a single corrupted seq byte is discarded rather than acking or
delivering data at the wrong position.

The state machines do no I/O and never read a clock: ticks arrive as
arguments, which keeps every test exact.  ``run_transfer`` wires a sender and
receiver through two LossyChannel instances on a shared tick loop.  It encodes
each DATA segment once and keeps those bytes until the segment is acked, so a
timeout pushes the stored bytes again instead of re-encoding the window.  The
receiver keeps one ACK until ``expected`` moves, and ``run_transfer`` encodes
an ACK only when it changes.  Retransmissions, duplicates and repeated ACKs
arrive as bytes already seen, so each path keeps a bounded dict from datagram
bytes to their segment and decodes only bytes it has not seen.

The checksum is one ``byte_sum`` pass over the packed header and the payload.
Segments the codec builds itself (``data_segment``, ``ack_segment``,
``decode_segment``) have their fields checked before the header is packed and
skip ``Segment.__post_init__``; a ``Segment(...)`` built by a caller is checked
in full.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from collections import deque
from enum import IntEnum
from typing import Sequence

from .channel import ChannelConfig, LossyChannel
from .wire import LengthMismatch, UnknownKind, byte_sum

_SEG_HEADER = struct.Struct(">BIHH")
SEGMENT_HEADER_SIZE = _SEG_HEADER.size  # 9 bytes
MAX_SEGMENT_PAYLOAD = 0xFFFF
_SEQ_LIMIT = 2**32

# run_transfer's decode caches are cleared when they hold this many windows'
# worth of datagrams, which bounds their memory for any transfer length.
_CACHE_WINDOWS = 16

# Ack-path channel seed is offset from the data path so the two streams
# draw independent sequences from one user-facing seed.
_ACK_SEED_SALT = 0x9E3779B97F4A7C15


class SegKind(IntEnum):
    DATA = 0x10
    ACK = 0x11


class WindowFull(Exception):
    """Send window is closed; retry after acks arrive (backpressure, not failure)."""


def _check_fields(seq: int, payload_len: int) -> None:
    if not 0 <= seq < _SEQ_LIMIT:
        raise ValueError(f"seq out of u32 range: {seq}")
    if payload_len > MAX_SEGMENT_PAYLOAD:
        raise ValueError("segment payload exceeds u16 length field")


def segment_sum(kind: int, seq: int, payload: bytes) -> int:
    """Byte-sum mod 65536 over header (checksum field zeroed) plus payload.

    Raises:
        ValueError: ``seq`` or the payload length does not fit its header field.
    """
    _check_fields(seq, len(payload))
    return byte_sum(_SEG_HEADER.pack(kind, seq, len(payload), 0) + payload)


@dataclass(frozen=True)
class Segment:
    kind: SegKind
    seq: int
    payload: bytes = b""
    checksum: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", SegKind(self.kind))
        object.__setattr__(self, "payload", bytes(self.payload))
        _check_fields(self.seq, len(self.payload))
        if self.kind is SegKind.ACK and self.payload:
            raise ValueError("ack segments carry no payload")

    @property
    def valid(self) -> bool:
        """True when the carried checksum matches the recomputed one."""
        return self.checksum == segment_sum(self.kind, self.seq, self.payload)


_KINDS = {kind.value: kind for kind in SegKind}


def _trusted_segment(kind: SegKind, seq: int, payload: bytes, checksum: int) -> Segment:
    """A ``Segment`` from fields the caller has already checked, without ``__post_init__``."""
    seg = object.__new__(Segment)
    seg.__dict__.update(kind=kind, seq=seq, payload=payload, checksum=checksum)
    return seg


def data_segment(seq: int, payload: bytes) -> Segment:
    if type(payload) is not bytes:
        payload = bytes(payload)
    return _trusted_segment(SegKind.DATA, seq, payload, segment_sum(SegKind.DATA, seq, payload))


def ack_segment(next_expected: int) -> Segment:
    checksum = segment_sum(SegKind.ACK, next_expected, b"")
    return _trusted_segment(SegKind.ACK, next_expected, b"", checksum)


def encode_segment(seg: Segment) -> bytes:
    return _SEG_HEADER.pack(seg.kind, seg.seq, len(seg.payload), seg.checksum) + seg.payload


def decode_segment(data: bytes) -> Segment:
    """Parse one whole datagram as a segment.

    Structural damage (bad kind, size mismatch) raises; a wrong checksum does
    not -- the receiver state machine owns that so it can still answer with a
    cumulative ack.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) < SEGMENT_HEADER_SIZE:
        raise LengthMismatch(f"segment needs {SEGMENT_HEADER_SIZE} header bytes, got {len(data)}")
    kind_byte, seq, length, checksum = _SEG_HEADER.unpack_from(data)
    kind = _KINDS.get(kind_byte)
    if kind is None:
        raise UnknownKind(f"segment kind 0x{kind_byte:02x}")
    if len(data) != SEGMENT_HEADER_SIZE + length:
        raise LengthMismatch(
            f"declared {length} payload bytes in a {len(data)}-byte datagram"
        )
    if kind is SegKind.ACK and length:
        raise LengthMismatch("ack segment with payload")
    return _trusted_segment(kind, seq, data[SEGMENT_HEADER_SIZE:], checksum)


class GbnSender:
    """Sending side: window of W unacked segments, one retransmission timer."""

    def __init__(self, window: int, timeout_ticks: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        if timeout_ticks < 1:
            raise ValueError("timeout_ticks must be >= 1")
        self.window = window
        self.timeout_ticks = timeout_ticks
        self.base = 0
        self.next_seq = 0
        self.timer_expiry: int | None = None
        self._unacked: deque[Segment] = deque()

    @property
    def can_send(self) -> bool:
        return self.next_seq < self.base + self.window

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.base

    def send(self, payload: bytes, now: int) -> Segment:
        """Buffer and return DATA(next_seq); arm the timer if it was idle.

        Raises:
            WindowFull: the window already holds W unacked segments.
        """
        if not self.can_send:
            raise WindowFull(f"window [{self.base}, {self.base + self.window}) is full")
        if self.next_seq >= _SEQ_LIMIT:
            raise OverflowError("sequence space exhausted; wraparound is not supported")
        seg = data_segment(self.next_seq, payload)
        self._unacked.append(seg)
        self.next_seq += 1
        if self.timer_expiry is None:
            self.timer_expiry = now + self.timeout_ticks
        return seg

    def on_ack(self, ack_seq: int, now: int) -> None:
        """Apply a cumulative ack; stale or too-far acks are no-ops."""
        if not self.base < ack_seq <= self.next_seq:
            return
        for _ in range(ack_seq - self.base):
            self._unacked.popleft()
        self.base = ack_seq
        self.timer_expiry = now + self.timeout_ticks if self.base < self.next_seq else None

    def on_tick(self, now: int) -> list[Segment]:
        """Return the whole unacked window for retransmission when the timer fires."""
        if self.timer_expiry is None or now < self.timer_expiry:
            return []
        self.timer_expiry = now + self.timeout_ticks
        return list(self._unacked)


class GbnReceiver:
    """Receiving side: accepts only the in-order segment, acks cumulatively."""

    def __init__(self):
        self.expected = 0
        self._ack = ack_segment(0)

    def on_segment(self, seg: Segment) -> tuple[list[bytes], Segment]:
        """Process a DATA segment.

        In-order valid data is delivered and bumps ``expected``; anything else
        (out-of-order or corrupt) is discarded.  Either way the reply is
        ACK(expected), the same object until ``expected`` moves.
        """
        if seg.kind is not SegKind.DATA:
            raise ValueError("receiver handles DATA segments only")
        delivered: list[bytes] = []
        if seg.seq == self.expected and seg.valid:
            delivered.append(seg.payload)
            self.expected += 1
            self._ack = ack_segment(self.expected)
        return delivered, self._ack


@dataclass
class TransferStats:
    """Outcome of one simulated transfer."""

    delivered_count: int
    retransmissions: int
    ticks_elapsed: int
    completed: bool
    delivered: list[bytes] = field(default_factory=list)


class _Decoded(dict):
    """Datagram bytes -> the segment they decode to if ``keep`` accepts it, else None.

    Decodes on a miss, and is cleared before an entry that would make it
    hold more than ``limit``.  ``decode_segment`` is a pure function of the
    bytes, so a hit is exact.
    """

    def __init__(self, keep, limit: int):
        super().__init__()
        self._keep = keep
        self._limit = limit

    def remember(self, raw: bytes, seg: Segment | None) -> None:
        if len(self) >= self._limit:
            self.clear()
        self[raw] = seg

    def __missing__(self, raw: bytes) -> Segment | None:
        try:
            seg = decode_segment(raw)
        except (LengthMismatch, UnknownKind):
            seg = None
        else:
            if not self._keep(seg):
                seg = None
        self.remember(raw, seg)
        return seg


def _ack_config(config: ChannelConfig) -> ChannelConfig:
    seed = (config.seed ^ _ACK_SEED_SALT) or _ACK_SEED_SALT
    return replace(config, seed=seed)


def run_transfer(
    payloads: Sequence[bytes],
    config: ChannelConfig,
    window: int = 8,
    timeout_ticks: int = 8,
    max_ticks: int = 100_000,
) -> TransferStats:
    """Push ``payloads`` through a lossy data path and ack path until done.

    Per tick, in a fixed order: apply acks that arrived, run the
    retransmission timer, fill the window with new sends, then let the
    receiver process arriving data and emit acks.  Datagrams pushed at tick t
    are visible to pops at t+1 or later, so a zero-delay round trip still
    costs two ticks.

    Stops when everything is delivered or ``max_ticks`` runs out; an
    incomplete run is reported in the stats, not raised.

    Each path keeps a dict from datagram bytes to their segment, cleared at
    ``_CACHE_WINDOWS * window`` entries: the data path keeps DATA segments
    for the receiver, which checks their checksums, and the ack path keeps
    only valid ACKs.  Each new DATA segment and each new ACK is encoded once,
    and its bytes enter the dict with the segment they were encoded from, so
    apart from bytes that outlive a clear, only bytes the channel corrupted
    are decoded.
    """
    if max_ticks <= 0:
        raise ValueError("max_ticks must be positive")
    sender = GbnSender(window, timeout_ticks)
    receiver = GbnReceiver()
    data_path = LossyChannel(config)
    ack_path = LossyChannel(_ack_config(config))
    cache_limit = _CACHE_WINDOWS * window
    data_segs = _Decoded(lambda seg: seg.kind is SegKind.DATA, cache_limit)
    valid_acks = _Decoded(lambda seg: seg.kind is SegKind.ACK and seg.valid, cache_limit)
    ack = ack_raw = None
    pending = deque(payloads)
    unacked_bytes: deque[bytes] = deque()  # encoded sender._unacked, oldest first
    delivered: list[bytes] = []
    retransmissions = 0
    total = len(payloads)
    now = 0
    while now < max_ticks and len(delivered) < total:
        for raw in ack_path.pop_ready(now):
            seg = valid_acks[raw]
            if seg is not None:
                sender.on_ack(seg.seq, now)
        for _ in range(len(unacked_bytes) - sender.in_flight):
            unacked_bytes.popleft()
        arrived = data_path.pop_ready(now)
        if sender.on_tick(now):
            for raw in unacked_bytes:
                data_path.push(raw, now)
            retransmissions += len(unacked_bytes)
        while pending and sender.can_send:
            seg = sender.send(pending.popleft(), now)
            raw = encode_segment(seg)
            data_segs.remember(raw, seg)
            unacked_bytes.append(raw)
            data_path.push(raw, now)
        for raw in arrived:
            seg = data_segs[raw]
            if seg is None:
                continue
            outs, reply = receiver.on_segment(seg)
            delivered.extend(outs)
            if reply is not ack:
                ack, ack_raw = reply, encode_segment(reply)
                valid_acks.remember(ack_raw, ack)
            ack_path.push(ack_raw, now)
        now += 1
    return TransferStats(
        delivered_count=len(delivered),
        retransmissions=retransmissions,
        ticks_elapsed=now,
        completed=len(delivered) == total,
        delivered=delivered,
    )
