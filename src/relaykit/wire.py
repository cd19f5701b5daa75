"""Wire framing and handshake negotiation.

Frame layout (all multi-byte integers big-endian):

    ┌───────────┬─────────────┬──────────┬─────────────┬──────────────┬─────────┐
    │ magic (2B)│ version (1B)│ kind (1B)│ length (4B) │ checksum (2B)│ payload │
    │ 5A 48     │ 01          │ u8       │ u32         │ u16          │ ...     │
    └───────────┴─────────────┴──────────┴─────────────┴──────────────┴─────────┘

The checksum is the sum of the payload bytes mod 65536; header corruption is
caught by the magic/version/kind/length checks instead.  ``byte_sum`` gets the
same value from ``zlib.adler32``, in C: Adler-32's low half is 1 + the byte sum
mod 65521 (RFC 1950 section 9), and a chunk of at most 256 bytes sums to at
most 255 * 256 = 65280 < 65521, so for such a chunk the low half minus 1 is its
exact byte sum.

A session starts with a HELLO / HELLO_ACK exchange that negotiates (version,
window, max_payload); the agreed value of each knob is the minimum of what
both sides offered, and the version has to match exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from zlib import adler32

MAGIC = b"\x5a\x48"
WIRE_VERSION = 0x01

_HEADER = struct.Struct(">2sBBIH")
HEADER_SIZE = _HEADER.size  # 10 bytes
PREAMBLE = MAGIC + bytes([WIRE_VERSION])

_HELLO = struct.Struct(">BHI")

MAX_PAYLOAD_LEN = 2**32 - 1
MAX_CLIENT_ID_LEN = 64

# Longest input whose byte sum stays below Adler-32's modulus (255 * 256 < 65521).
CHECKSUM_CHUNK = 256


class MsgKind(IntEnum):
    HELLO = 0x01
    HELLO_ACK = 0x02
    REGISTER = 0x03
    REGISTER_ACK = 0x04
    DIRECT = 0x05
    DELIVER = 0x06
    BROADCAST = 0x07
    ECHO = 0x08
    ECHO_REPLY = 0x09
    ERROR = 0x0A
    BYE = 0x0B


# Kind byte -> MsgKind; a dict lookup costs a tenth of calling MsgKind().
_KINDS = {kind.value: kind for kind in MsgKind}


class ErrorCode(IntEnum):
    DUPLICATE_ID = 1
    UNKNOWN_RECIPIENT = 2
    MALFORMED = 3
    NOT_REGISTERED = 4
    RECIPIENT_BUSY = 5
    VERSION_MISMATCH = 6


class ProtocolError(Exception):
    """Base class for wire-level failures."""


class BadMagic(ProtocolError):
    """Frame does not start with the magic/version preamble."""


class UnknownKind(ProtocolError):
    """Kind byte is not one of the defined codes."""


class LengthMismatch(ProtocolError):
    """Fewer bytes available than the header declares."""


class PayloadTooLarge(ProtocolError):
    """Header declares a payload longer than the session allows."""


class ChecksumMismatch(ProtocolError):
    """Payload byte-sum does not match the checksum field."""


class VersionMismatch(ProtocolError):
    """Handshake peers proposed different protocol versions."""


def byte_sum(data: bytes) -> int:
    """Sum of the bytes of a bytes-like object, mod 65536.

    Equal to ``sum(data) & 0xFFFF`` for every input.  Up to
    ``CHECKSUM_CHUNK`` bytes it is one ``adler32`` call, whose low half is
    1 + the byte sum; one call is faster than ``sum()`` at every length from
    0 up.  A longer input is summed the same way over ``CHECKSUM_CHUNK``-byte
    ``memoryview`` slices.  Each call's high half is a multiple of 65536, so
    the mask drops it.
    """
    n = len(data)
    if n <= CHECKSUM_CHUNK:
        return (adler32(data) - 1) & 0xFFFF
    view = memoryview(data)
    starts = range(0, n, CHECKSUM_CHUNK)
    total = sum([adler32(view[i : i + CHECKSUM_CHUNK]) for i in starts])
    return (total - len(starts)) & 0xFFFF


@dataclass(frozen=True)
class Frame:
    """One wire message: a kind code plus an opaque payload."""

    kind: MsgKind
    payload: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "kind", MsgKind(self.kind))
        object.__setattr__(self, "payload", bytes(self.payload))
        if len(self.payload) > MAX_PAYLOAD_LEN:
            raise ValueError("payload exceeds u32 length field")


@dataclass(frozen=True)
class HandshakeParams:
    """Session parameters carried by HELLO / HELLO_ACK."""

    version: int
    window: int
    max_payload: int

    def __post_init__(self):
        if not 0 <= self.version <= 0xFF:
            raise ValueError(f"version out of range: {self.version}")
        if not 1 <= self.window <= 0xFFFF:
            raise ValueError(f"window out of range: {self.window}")
        if not 1 <= self.max_payload <= MAX_PAYLOAD_LEN:
            raise ValueError(f"max_payload out of range: {self.max_payload}")


DEFAULT_PARAMS = HandshakeParams(version=1, window=8, max_payload=65536)


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to wire bytes.

    Every valid Frame encodes; the output is deterministic.
    """
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, frame.kind, len(frame.payload), byte_sum(frame.payload)
    ) + frame.payload


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Parse one frame from the front of ``data`` (any bytes-like object).

    The payload is copied once, into the returned frame; no view of ``data``
    outlives the call, even when it raises.

    Returns:
        (frame, unconsumed) where unconsumed counts trailing bytes beyond
        the declared payload length.

    Raises:
        BadMagic: preamble (magic + version) does not match.
        UnknownKind: kind byte is not a defined code.
        LengthMismatch: fewer bytes than the header declares.
        ChecksumMismatch: payload does not add up to the checksum field.
    """
    with memoryview(data) as view:
        prefix = bytes(view[: len(PREAMBLE)])
        if prefix != PREAMBLE[: len(prefix)]:
            raise BadMagic(f"expected preamble {PREAMBLE.hex()}, got {prefix.hex()}")
        if len(view) < HEADER_SIZE:
            raise LengthMismatch(f"truncated header: {len(view)} of {HEADER_SIZE} bytes")
        _, _, kind_byte, length, checksum = _HEADER.unpack_from(view)
        kind = _KINDS.get(kind_byte)
        if kind is None:
            raise UnknownKind(f"kind code 0x{kind_byte:02x}")
        available = len(view) - HEADER_SIZE
        if available < length:
            raise LengthMismatch(f"declared {length} payload bytes, have {available}")
        with view[HEADER_SIZE : HEADER_SIZE + length] as payload:
            total = byte_sum(payload)
            if total != checksum:
                raise ChecksumMismatch(f"checksum 0x{checksum:04x} != payload sum 0x{total:04x}")
            return Frame(kind, bytes(payload)), available - length


def negotiate(proposal: HandshakeParams, supported: HandshakeParams) -> HandshakeParams:
    """Agree on session parameters: component-wise minimum, exact version match.

    Raises:
        VersionMismatch: the two sides proposed different versions.
    """
    if proposal.version != supported.version:
        raise VersionMismatch(
            f"version {proposal.version} vs {supported.version}"
        )
    return HandshakeParams(
        version=proposal.version,
        window=min(proposal.window, supported.window),
        max_payload=min(proposal.max_payload, supported.max_payload),
    )


# --- payload codecs for the structured kinds -------------------------------

def pack_hello(params: HandshakeParams) -> bytes:
    """HELLO / HELLO_ACK payload: version (1B) | window (2B BE) | max_payload (4B BE)."""
    return _HELLO.pack(params.version, params.window, params.max_payload)


def unpack_hello(payload: bytes) -> HandshakeParams:
    if len(payload) != _HELLO.size:
        raise ValueError(f"hello payload must be {_HELLO.size} bytes, got {len(payload)}")
    version, window, max_payload = _HELLO.unpack(payload)
    return HandshakeParams(version, window, max_payload)


def check_client_id(client_id: str) -> bytes:
    """Validate a client ID (UTF-8, 1..=64 bytes) and return its encoding."""
    raw = client_id.encode("utf-8")
    if not 1 <= len(raw) <= MAX_CLIENT_ID_LEN:
        raise ValueError(f"client id must be 1..{MAX_CLIENT_ID_LEN} bytes, got {len(raw)}")
    return raw


def pack_addressed(client_id: str, message: bytes) -> bytes:
    """DIRECT / DELIVER payload: id-length (1B) | id | message."""
    raw = check_client_id(client_id)
    return bytes([len(raw)]) + raw + bytes(message)


def unpack_addressed(payload: bytes) -> tuple[str, bytes]:
    if not payload:
        raise ValueError("empty addressed payload")
    id_len = payload[0]
    if not 1 <= id_len <= MAX_CLIENT_ID_LEN:
        raise ValueError(f"id length {id_len} out of range")
    if len(payload) < 1 + id_len:
        raise ValueError("payload shorter than declared id")
    client_id = payload[1 : 1 + id_len].decode("utf-8")
    return client_id, payload[1 + id_len :]


def pack_error(code: ErrorCode, detail: str = "") -> bytes:
    """ERROR payload: code (1B) | UTF-8 detail."""
    return bytes([ErrorCode(code)]) + detail.encode("utf-8")


def unpack_error(payload: bytes) -> tuple[ErrorCode, str]:
    if not payload:
        raise ValueError("empty error payload")
    return ErrorCode(payload[0]), payload[1:].decode("utf-8")
