import random

import pytest
from hypothesis import example, given, settings, strategies as st

from relaykit.wire import (
    CHECKSUM_CHUNK,
    BadMagic,
    ChecksumMismatch,
    ErrorCode,
    Frame,
    HandshakeParams,
    LengthMismatch,
    MsgKind,
    ProtocolError,
    UnknownKind,
    VersionMismatch,
    byte_sum,
    check_client_id,
    decode_frame,
    encode_frame,
    negotiate,
    pack_addressed,
    pack_error,
    pack_hello,
    unpack_addressed,
    unpack_error,
    unpack_hello,
)


class TestEncode:
    def test_register_ack_empty_payload(self):
        encoded = encode_frame(Frame(MsgKind.REGISTER_ACK))
        assert encoded == bytes.fromhex("5a480104000000000000")

    def test_register_ab(self):
        # checksum: 0x61 + 0x62 = 195 = 0x00C3
        encoded = encode_frame(Frame(MsgKind.REGISTER, b"ab"))
        assert encoded == bytes.fromhex("5a4801030000000200c36162")

    def test_checksum_wraps_mod_65536(self):
        # 65536 * 255 is an exact multiple of 65536, so the field reads zero.
        encoded = encode_frame(Frame(MsgKind.ECHO, b"\xff" * 65536))
        assert (65536 * 255) % 65536 == 0
        assert encoded[8:10] == b"\x00\x00"

    def test_deterministic(self):
        frame = Frame(MsgKind.DIRECT, b"payload")
        assert encode_frame(frame) == encode_frame(frame)


class TestDecode:
    def test_round_trip_register_ack(self):
        frame, unconsumed = decode_frame(bytes.fromhex("5a480104000000000000"))
        assert frame == Frame(MsgKind.REGISTER_ACK)
        assert unconsumed == 0

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_frame(bytes.fromhex("00000104000000000000"))

    def test_checksum_mismatch(self):
        # one bit flipped in the checksum of the valid REGISTER example
        with pytest.raises(ChecksumMismatch):
            decode_frame(bytes.fromhex("5a4801030000000200c46162"))

    def test_unknown_kind(self):
        data = bytearray(encode_frame(Frame(MsgKind.BYE)))
        data[3] = 0x0C
        with pytest.raises(UnknownKind):
            decode_frame(bytes(data))

    def test_truncated_payload(self):
        data = encode_frame(Frame(MsgKind.REGISTER, b"ab"))
        with pytest.raises(LengthMismatch):
            decode_frame(data[:-1])

    def test_truncated_header(self):
        with pytest.raises(LengthMismatch):
            decode_frame(bytes.fromhex("5a480104"))

    def test_trailing_bytes_reported(self):
        data = encode_frame(Frame(MsgKind.ECHO, b"hi")) + b"xyz"
        frame, unconsumed = decode_frame(data)
        assert frame == Frame(MsgKind.ECHO, b"hi")
        assert unconsumed == 3

    def test_wrong_version_byte_is_bad_magic(self):
        data = bytearray(encode_frame(Frame(MsgKind.BYE)))
        data[2] = 0x02
        with pytest.raises(BadMagic):
            decode_frame(bytes(data))


class TestFrameType:
    def test_rejects_undefined_kind(self):
        with pytest.raises(ValueError):
            Frame(0x0C, b"")

    def test_all_eleven_kinds_encode(self):
        for kind in MsgKind:
            frame, unconsumed = decode_frame(encode_frame(Frame(kind, b"x")))
            assert frame.kind is kind
            assert unconsumed == 0


class TestNegotiate:
    def test_identity(self):
        p = HandshakeParams(1, 8, 1024)
        assert negotiate(p, p) == p

    def test_component_wise_minimum(self):
        agreed = negotiate(HandshakeParams(1, 16, 512), HandshakeParams(1, 8, 4096))
        assert agreed == HandshakeParams(1, 8, 512)

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            negotiate(HandshakeParams(1, 8, 1024), HandshakeParams(2, 8, 1024))

    @given(
        w1=st.integers(1, 0xFFFF), w2=st.integers(1, 0xFFFF),
        m1=st.integers(1, 2**20), m2=st.integers(1, 2**20),
    )
    def test_commutative_in_window_and_payload(self, w1, w2, m1, m2):
        a = HandshakeParams(1, w1, m1)
        b = HandshakeParams(1, w2, m2)
        assert negotiate(a, b) == negotiate(b, a)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HandshakeParams(1, 0, 1024)
        with pytest.raises(ValueError):
            HandshakeParams(1, 8, 0)
        with pytest.raises(ValueError):
            HandshakeParams(300, 8, 1024)


_frames = st.builds(
    Frame,
    kind=st.sampled_from(list(MsgKind)),
    payload=st.binary(max_size=2048),
)


class TestProperties:
    @given(_frames)
    @settings(max_examples=300)
    def test_round_trip(self, frame):
        decoded, unconsumed = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert unconsumed == 0

    @given(_frames, st.data())
    @settings(max_examples=300)
    def test_single_byte_mutation_never_passes_silently(self, frame, data):
        encoded = bytearray(encode_frame(frame))
        index = data.draw(st.integers(0, len(encoded) - 1))
        new_byte = data.draw(st.integers(0, 255).filter(lambda b: b != encoded[index]))
        encoded[index] = new_byte
        try:
            decoded, unconsumed = decode_frame(bytes(encoded))
        except ProtocolError:
            return
        assert (decoded, unconsumed) != (frame, 0)

    @given(_frames.filter(lambda f: len(f.payload) > 0), st.data())
    @settings(max_examples=300)
    def test_payload_mutation_always_detected(self, frame, data):
        # a single-byte substitution shifts the byte-sum by its nonzero delta
        encoded = bytearray(encode_frame(frame))
        offset = data.draw(st.integers(0, len(frame.payload) - 1))
        index = 10 + offset
        new_byte = data.draw(st.integers(0, 255).filter(lambda b: b != encoded[index]))
        encoded[index] = new_byte
        with pytest.raises(ChecksumMismatch):
            decode_frame(bytes(encoded))


class TestPayloadCodecs:
    def test_hello_round_trip(self):
        params = HandshakeParams(1, 8, 65536)
        assert unpack_hello(pack_hello(params)) == params
        assert len(pack_hello(params)) == 7

    def test_hello_wrong_size(self):
        with pytest.raises(ValueError):
            unpack_hello(b"\x01\x00")

    def test_addressed_round_trip(self):
        payload = pack_addressed("alice", b"hello there")
        assert payload[0] == 5
        assert unpack_addressed(payload) == ("alice", b"hello there")

    def test_addressed_empty_message(self):
        assert unpack_addressed(pack_addressed("bob", b"")) == ("bob", b"")

    def test_addressed_bad_inputs(self):
        with pytest.raises(ValueError):
            unpack_addressed(b"")
        with pytest.raises(ValueError):
            unpack_addressed(b"\x09abc")  # declares 9 id bytes, has 3

    def test_addressed_id_length_out_of_range(self):
        for id_len in (0, 65):
            with pytest.raises(ValueError, match="out of range"):
                unpack_addressed(bytes([id_len]) + b"x" * 80)

    def test_client_id_bounds(self):
        assert check_client_id("x" * 64) == b"x" * 64
        with pytest.raises(ValueError):
            check_client_id("")
        with pytest.raises(ValueError):
            check_client_id("x" * 65)
        # multi-byte UTF-8 counts in bytes, not characters
        with pytest.raises(ValueError):
            check_client_id("é" * 33)  # 66 bytes

    def test_error_round_trip(self):
        payload = pack_error(ErrorCode.UNKNOWN_RECIPIENT, "no such id")
        assert unpack_error(payload) == (ErrorCode.UNKNOWN_RECIPIENT, "no such id")

    def test_error_bad_code(self):
        with pytest.raises(ValueError):
            unpack_error(b"\x09detail")

    def test_error_empty_payload(self):
        with pytest.raises(ValueError, match="empty"):
            unpack_error(b"")


def test_byte_sum():
    assert byte_sum(b"") == 0
    assert byte_sum(b"ab") == 0xC3
    assert byte_sum(b"\xff" * 65536) == 0


# Every bytes-like input byte_sum meets: a memoryview slice that starts past
# offset 0 is what the stream endpoint hands the codec.
_BYTES_LIKE = [bytes, bytearray, memoryview, lambda raw: memoryview(b"\0" + raw)[1:]]
_CHECKSUM_SIZES = st.one_of(
    st.sampled_from(sorted({0, 1, 255, 256, 257, CHECKSUM_CHUNK - 1, CHECKSUM_CHUNK,
                            CHECKSUM_CHUNK + 1, 2 * CHECKSUM_CHUNK + 1, 65536, 70 * 1024})),
    st.integers(0, 70 * 1024),
)


@given(size=_CHECKSUM_SIZES, fill=st.none() | st.integers(0, 255),
       seed=st.integers(0, 2**32 - 1), wrap=st.sampled_from(_BYTES_LIKE))
@example(size=257, fill=0xFF, seed=0, wrap=bytes)
@example(size=70 * 1024, fill=0xFF, seed=0, wrap=memoryview)
@settings(max_examples=300)
def test_byte_sum_equals_the_plain_sum(size, fill, seed, wrap):
    raw = random.Random(seed).randbytes(size) if fill is None else bytes([fill]) * size
    assert byte_sum(wrap(raw)) == sum(raw) & 0xFFFF


@pytest.mark.parametrize("size", [1, 255, 256, 257, 600])
def test_flipping_any_payload_byte_is_detected(size):
    rng = random.Random(size)
    encoded = encode_frame(Frame(MsgKind.ECHO, rng.randbytes(size)))
    for index in range(10, len(encoded)):
        mutated = bytearray(encoded)
        mutated[index] ^= rng.randrange(1, 256)
        with pytest.raises(ChecksumMismatch):
            decode_frame(mutated)


@pytest.mark.parametrize("wrap", _BYTES_LIKE)
def test_decode_accepts_any_bytes_like(wrap):
    frame = Frame(MsgKind.DELIVER, bytes(range(256)) * 3)
    encoded = encode_frame(frame) + b"tail"
    decoded, unconsumed = decode_frame(wrap(encoded))
    assert (decoded, unconsumed) == (frame, 4)
    assert type(decoded.payload) is bytes


def test_decode_error_leaves_no_view_on_the_buffer():
    buf = bytearray(encode_frame(Frame(MsgKind.ECHO, b"x" * 300)))
    buf[-1] ^= 1
    with pytest.raises(ChecksumMismatch) as kept:
        decode_frame(buf)
    assert kept.value is not None  # the traceback, and its frames, stay alive
    del buf[:10]  # a live export would make this raise BufferError
