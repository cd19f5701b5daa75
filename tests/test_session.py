"""The relay's per-connection protocol, driven with no threads and no sockets."""

import socket
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from relaykit.server import Registry, ServerConfig, Session
from relaykit.wire import (
    DEFAULT_PARAMS,
    ErrorCode,
    Frame,
    HandshakeParams,
    MsgKind,
    pack_addressed,
    pack_hello,
)

HELLO = Frame(MsgKind.HELLO, pack_hello(DEFAULT_PARAMS))
REGISTER = Frame(MsgKind.REGISTER, b"alice")
DIRECT = Frame(MsgKind.DIRECT, pack_addressed("alice", b"hi"))
BROADCAST = Frame(MsgKind.BROADCAST, b"all")
BYE = Frame(MsgKind.BYE)
# Steps that are not frames: the deadline passes, or the id leaves the
# registry behind the session's back.
EXPIRE, EVICT = "expire", "evict"

ERROR = (MsgKind.ERROR,)
NOTHING = ()

# name: (steps, then what the last step answers: reply kinds, error code, close)
SESSION_CASES = {
    "hello": ([HELLO], (MsgKind.HELLO_ACK,), None, False),
    "non-HELLO first frame": ([Frame(MsgKind.ECHO, b"x")], ERROR, ErrorCode.MALFORMED, True),
    "BYE first": ([BYE], ERROR, ErrorCode.MALFORMED, True),
    "2-byte HELLO": ([Frame(MsgKind.HELLO, b"\x01\x00")], ERROR, ErrorCode.MALFORMED, True),
    "version mismatch": (
        [Frame(MsgKind.HELLO, pack_hello(HandshakeParams(2, 8, 1024)))],
        ERROR, ErrorCode.VERSION_MISMATCH, True,
    ),
    "second HELLO": ([HELLO, HELLO], ERROR, ErrorCode.MALFORMED, False),
    "DELIVER from a client": (
        [HELLO, Frame(MsgKind.DELIVER, pack_addressed("bob", b"x"))],
        ERROR, ErrorCode.MALFORMED, False,
    ),
    "echo before REGISTER": ([HELLO, Frame(MsgKind.ECHO, b"e")], (MsgKind.ECHO_REPLY,), None, False),
    "register": ([HELLO, REGISTER], (MsgKind.REGISTER_ACK,), None, False),
    "DIRECT routed": ([HELLO, REGISTER, DIRECT], NOTHING, None, False),
    "BROADCAST routed": ([HELLO, REGISTER, BROADCAST], NOTHING, None, False),
    "DIRECT with id length 0": (
        [HELLO, REGISTER, Frame(MsgKind.DIRECT, b"\x00hi")], ERROR, ErrorCode.MALFORMED, False,
    ),
    "DIRECT with id length 65": (
        [HELLO, REGISTER, Frame(MsgKind.DIRECT, b"\x41" + b"x" * 65 + b"hi")],
        ERROR, ErrorCode.MALFORMED, False,
    ),
    "DIRECT to an unknown id": (
        [HELLO, REGISTER, Frame(MsgKind.DIRECT, pack_addressed("bob", b"x"))],
        ERROR, ErrorCode.UNKNOWN_RECIPIENT, False,
    ),
    "DIRECT before REGISTER": ([HELLO, DIRECT], ERROR, ErrorCode.NOT_REGISTERED, False),
    "BROADCAST before REGISTER": ([HELLO, BROADCAST], ERROR, ErrorCode.NOT_REGISTERED, False),
    "second REGISTER": (
        [HELLO, REGISTER, Frame(MsgKind.REGISTER, b"bob")], ERROR, ErrorCode.MALFORMED, False,
    ),
    "non-UTF-8 id": ([HELLO, Frame(MsgKind.REGISTER, b"\xff\xfe")], ERROR, ErrorCode.MALFORMED, False),
    "oversized id": ([HELLO, Frame(MsgKind.REGISTER, b"x" * 65)], ERROR, ErrorCode.MALFORMED, False),
    "BROADCAST from an unregistered sender": (
        [HELLO, REGISTER, EVICT, BROADCAST], ERROR, ErrorCode.NOT_REGISTERED, False,
    ),
    "expire before HELLO": ([EXPIRE], NOTHING, None, True),
    "expire after HELLO": ([HELLO, EXPIRE], ERROR, ErrorCode.NOT_REGISTERED, True),
    "BYE": ([HELLO, REGISTER, BYE], NOTHING, None, True),
}


@pytest.fixture(autouse=True)
def no_threads_or_sockets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a session test must start no thread and open no socket")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket, "socket", refuse)


def _step(session, registry, step):
    if step is EXPIRE:
        return session.expire()
    if step is EVICT:
        registry.unregister(session.client_id)
        return NOTHING, False
    return session.on_frame(step, 0.0)


@pytest.mark.parametrize("steps, kinds, code, close", SESSION_CASES.values(), ids=SESSION_CASES)
def test_session_reply(steps, kinds, code, close):
    registry = Registry(enqueue_wait_s=0.0)
    session = Session(registry, ServerConfig(), now=0.0)
    for step in steps[:-1]:
        assert _step(session, registry, step)[1] is False, step
    replies, closing = _step(session, registry, steps[-1])
    assert tuple(f.kind for f in replies) == kinds
    if code is not None:
        assert replies[0].payload[0] == code
    assert closing is close


class TestSession:
    def test_deadline_is_hello_then_register_then_none(self):
        config = ServerConfig(handshake_timeout_s=2.0)
        session = Session(Registry(), config, now=10.0)
        assert session.deadline == 12.0
        session.on_frame(HELLO, 11.0)
        assert session.deadline == 13.0
        session.on_frame(REGISTER, 12.0)
        assert session.deadline is None

    def test_routed_frames_share_one_empty_reply(self):
        registry = Registry()
        session = Session(registry, ServerConfig(), now=0.0)
        for frame in (HELLO, REGISTER):
            session.on_frame(frame, 0.0)
        first, _ = session.on_frame(DIRECT, 0.0)
        second, _ = session.on_frame(BROADCAST, 0.0)
        assert first == () and first is second

    def test_close_unregisters_once(self):
        registry = Registry()
        session = Session(registry, ServerConfig(), now=0.0)
        for frame in (HELLO, REGISTER):
            session.on_frame(frame, 0.0)
        assert registry.ids() == {"alice"} and session.client_id == "alice"
        session.close()
        assert registry.ids() == set()
        # The id is free again; a second close must not take it from its new owner.
        other = Session(registry, ServerConfig(), now=0.0)
        for frame in (HELLO, REGISTER):
            other.on_frame(frame, 0.0)
        session.close()
        assert registry.ids() == {"alice"}


IDS = ("a", "b", "c", "d")


class SessionRegistryModel(RuleBasedStateMachine):
    """Several sessions over one small registry, each driven as a reader would.

    A session whose step says close is closed at once, as the reader's
    ``finally`` does; "ack send failed" closes one straight after its
    REGISTER succeeded.  Whatever happens, an id is registered exactly while
    the session that registered it is open.
    """

    def __init__(self):
        super().__init__()
        self.registry = Registry(capacity=3, enqueue_wait_s=0.0)
        self.config = ServerConfig(queue_capacity=2, handshake_timeout_s=1.0)
        self.sessions: list[Session] = []
        self.now = 0.0

    def _pick(self, pick):
        return self.sessions[pick % len(self.sessions)]

    def _apply(self, session, result):
        replies, close = result
        if close:
            session.close()
            self.sessions.remove(session)
        return replies

    @rule()
    def open(self):
        self.now += 0.1
        self.sessions.append(Session(self.registry, self.config, self.now))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16))
    def hello(self, pick):
        session = self._pick(pick)
        self._apply(session, session.on_frame(HELLO, self.now))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16), name=st.sampled_from(IDS))
    def register(self, pick, name):
        session = self._pick(pick)
        helloed, was = session.handle is not None, session.client_id
        taken = name in self.registry.ids()
        full = len(self.registry.ids()) >= self.registry.capacity
        replies = self._apply(session, session.on_frame(Frame(MsgKind.REGISTER, name.encode()), self.now))
        accepted = helloed and was is None and not taken and not full
        assert [f.kind for f in replies] == [MsgKind.REGISTER_ACK if accepted else MsgKind.ERROR]
        assert session.client_id == (name if accepted else was)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16), name=st.sampled_from(IDS))
    def ack_send_failed(self, pick, name):
        session = self._pick(pick)
        replies, _ = session.on_frame(Frame(MsgKind.REGISTER, name.encode()), self.now)
        if replies[0].kind is MsgKind.REGISTER_ACK:
            session.close()
            self.sessions.remove(session)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16), to=st.sampled_from(IDS))
    def direct(self, pick, to):
        session = self._pick(pick)
        self._apply(session, session.on_frame(Frame(MsgKind.DIRECT, pack_addressed(to, b"m")), self.now))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16))
    def broadcast(self, pick):
        session = self._pick(pick)
        self._apply(session, session.on_frame(BROADCAST, self.now))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 2**16))
    def bye(self, pick):
        session = self._pick(pick)
        self._apply(session, session.on_frame(BYE, self.now))
        assert session not in self.sessions

    @precondition(lambda self: any(s.deadline is not None for s in self.sessions))
    @rule(pick=st.integers(0, 2**16))
    def expire(self, pick):
        waiting = [s for s in self.sessions if s.deadline is not None]
        session = waiting[pick % len(waiting)]
        self._apply(session, session.expire())
        assert session not in self.sessions

    @invariant()
    def registered_exactly_while_open(self):
        open_ids = [s.client_id for s in self.sessions if s.client_id is not None]
        assert len(open_ids) == len(set(open_ids))
        assert self.registry.ids() == set(open_ids)


TestSessionRegistryModel = SessionRegistryModel.TestCase
TestSessionRegistryModel.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
