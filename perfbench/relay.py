"""Load generator for the relay: open-loop DIRECT steps and a closed ECHO loop.

One thread and two TCP connections drive the relay through ``transport``
endpoints and ``wire`` frames.  ``ChatClient`` is not used because each
client starts its own reader thread.  The relay runs in its own process,
started the way users start it, so the generator never holds its GIL.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import statistics
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from relaykit.transport import TimedOut, connect
from relaykit.wire import (
    DEFAULT_PARAMS,
    Frame,
    MsgKind,
    pack_addressed,
    pack_hello,
    unpack_addressed,
    unpack_error,
    unpack_hello,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LIMIT_P99_MS = 50.0
# A step whose generator sent its p99 message this late is generator-bound.
GEN_SLACK_MS = 10.0
# A step whose second half waited this much longer than its first half has
# a growing backlog.
BACKLOG_GROWTH_MS = 10.0
DRAIN_S = 2.0
MSG_SIZE = 64
ECHO_MIN, ECHO_MAX = 1024, 65536
TAG = struct.Struct(">II")  # (stream id, sequence number) at the front of every message
# A stream id's top byte names the traffic class, so traced spans can be
# grouped by class without the relay knowing the schedule.
LIGHT, HEAVY, STAIR, ECHO = 1, 2, 3, 4


def stream_id(traffic_class: int, n: int) -> int:
    return traffic_class << 24 | n


_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """``preexec_fn`` for children: the kernel sends them SIGTERM if the benchmark dies.

    It also restores SIGINT, which stops the relay, in case the benchmark
    was started with it ignored, as a shell does for background jobs.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGTERM) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def peak_rss_mib(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class RelayProcess:
    """``relaykit serve --addr 127.0.0.1:0`` in a child process.

    With ``traced`` the child is ``traced_serve.py``, which installs span
    wrappers before handing over to the same CLI entry point.
    """

    def __init__(self, traced: bool = False):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if traced:
            argv = [sys.executable, str(HERE / "traced_serve.py")]
        else:
            argv = [sys.executable, "-m", "relaykit.cli"]
        self.proc = subprocess.Popen(
            argv + ["serve", "--addr", "127.0.0.1:0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, preexec_fn=die_with_parent,
        )
        line = self.proc.stdout.readline()
        fields = dict(kv.partition("=")[::2] for kv in line.split())
        if "addr" not in fields:
            self.stop()
            raise RuntimeError(f"relay did not start: {line!r}")
        self.addr = fields["addr"]

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> str:
        """Interrupt the relay, wait for it and return what it printed after start."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


def _expect(endpoint, kind: MsgKind) -> Frame:
    frame = endpoint.recv_frame(5.0)
    if frame.kind is not kind:
        raise RuntimeError(f"expected {kind.name}, got {frame.kind.name} {frame.payload!r}")
    return frame


def hello(endpoint) -> None:
    endpoint.send_frame(Frame(MsgKind.HELLO, pack_hello(DEFAULT_PARAMS)))
    if unpack_hello(_expect(endpoint, MsgKind.HELLO_ACK).payload) != DEFAULT_PARAMS:
        raise RuntimeError("relay negotiated different session parameters")


def register(endpoint, client_id: str) -> None:
    endpoint.send_frame(Frame(MsgKind.REGISTER, client_id.encode()))
    _expect(endpoint, MsgKind.REGISTER_ACK)


@dataclass
class Session:
    """A started relay with ``alice`` and ``bob`` connected and registered."""

    relay: RelayProcess
    alice: object
    bob: object
    echo_ready_s: float  # launch until alice finished HELLO
    direct_ready_s: float  # launch until both finished HELLO and REGISTER

    def close(self) -> str:
        for endpoint in (self.alice, self.bob):
            endpoint.close()
        return self.relay.stop()


def open_session(traced: bool = False) -> Session:
    started = time.perf_counter()
    relay = RelayProcess(traced)
    try:
        alice = connect(relay.addr)
        hello(alice)
        echo_ready = time.perf_counter() - started
        bob = connect(relay.addr)
        hello(bob)
        register(alice, "alice")
        register(bob, "bob")
    except BaseException:
        relay.stop()
        raise
    return Session(relay, alice, bob, echo_ready, time.perf_counter() - started)


@dataclass
class StepResult:
    rate: int
    sent: int
    latencies_ms: list[float]
    lateness_ms: list[float]
    achieved_rate: float
    failed: int  # messages not delivered exactly once, in order and intact
    violations: list[str] = field(default_factory=list)  # wrong output, never overload
    busy: int = 0

    @property
    def samples(self) -> int:
        return len(self.latencies_ms)

    @property
    def p50(self) -> float:
        return percentile(self.latencies_ms, 50) if self.latencies_ms else math.inf

    @property
    def p99(self) -> float:
        return percentile(self.latencies_ms, 99) if self.latencies_ms else math.inf

    @property
    def generator_bound(self) -> bool:
        return percentile(self.lateness_ms, 99) > GEN_SLACK_MS

    @property
    def backlog_growing(self) -> bool:
        half = len(self.latencies_ms) // 2
        if half == 0:
            return True
        first, second = self.latencies_ms[:half], self.latencies_ms[half:]
        return percentile(second, 50) - percentile(first, 50) > BACKLOG_GROWTH_MS

    @property
    def meets_limit(self) -> bool:
        return (self.failed == 0 and self.p99 <= LIMIT_P99_MS
                and not self.backlog_growing and not self.generator_bound)


def merge_steps(steps: list[StepResult]) -> StepResult:
    """Pool chunks sent at one rate into one step."""
    return StepResult(
        rate=steps[0].rate,
        sent=sum(s.sent for s in steps),
        latencies_ms=[x for s in steps for x in s.latencies_ms],
        lateness_ms=[x for s in steps for x in s.lateness_ms],
        achieved_rate=statistics.fmean(s.achieved_rate for s in steps),
        failed=sum(s.failed for s in steps),
        violations=[v for s in steps for v in s.violations],
        busy=sum(s.busy for s in steps),
    )


def make_messages(rng, stream: int, count: int) -> list[bytes]:
    body = rng.randbytes(count * (MSG_SIZE - TAG.size))
    step = MSG_SIZE - TAG.size
    return [TAG.pack(stream, i) + body[i * step:(i + 1) * step] for i in range(count)]


def direct_step(session: Session, rng, stream: int, rate: int, count: int) -> StepResult:
    """Send ``count`` DIRECT messages alice -> bob at ``rate``/s on a fixed schedule.

    Latency runs from each message's due time to the moment bob's endpoint
    returns its DELIVER, so a stall also charges the messages queued behind it.
    """
    messages = make_messages(rng, stream, count)
    frames = [Frame(MsgKind.DIRECT, pack_addressed("bob", m)) for m in messages]
    alice, bob = session.alice, session.bob
    period = 1.0 / rate
    arrived = [None] * count
    lateness = []
    violations = []
    duplicates = 0
    in_order = 0
    expected = 0
    sent = 0
    clock = time.perf_counter
    t0 = clock() + 0.002
    end = t0 + count * period + DRAIN_S
    received = 0
    while received < count:
        now = clock()
        while sent < count and t0 + sent * period <= now:
            alice.send_frame(frames[sent])
            lateness.append(clock() - (t0 + sent * period))
            sent += 1
            now = clock()
        if sent < count:
            wait = t0 + sent * period - now
        else:
            wait = end - now
            if wait <= 0:
                break
        if wait <= 0:
            continue
        try:
            frame = bob.recv_frame(wait)
        except TimedOut:
            continue
        at = clock()
        if frame.kind is not MsgKind.DELIVER:
            received += 1
            violations.append(f"bob got {frame.kind.name}")
            continue
        sender, message = unpack_addressed(frame.payload)
        got_stream, seq = TAG.unpack_from(message)
        if sender == "alice" and got_stream < stream:
            continue  # a straggler from an earlier step, already counted lost there
        received += 1
        if sender != "alice" or got_stream != stream or seq >= count:
            violations.append(f"misdelivered {sender!r} stream={got_stream} seq={seq}")
            continue
        if arrived[seq] is not None:
            duplicates += 1
            violations.append(f"duplicate seq={seq}")
            continue
        arrived[seq] = at
        if message != messages[seq]:
            violations.append(f"altered seq={seq}")
        elif seq < expected:
            violations.append(f"out of order seq={seq} after seq={expected - 1}")
        else:
            in_order += 1  # a gap before it is a loss, counted below
        expected = max(expected, seq + 1)
    busy = 0
    for code in drain_errors(alice):
        if code == "RECIPIENT_BUSY":
            busy += 1
        else:
            violations.append(f"alice got ERROR {code}")
    latencies = [(at - (t0 + i * period)) * 1000 for i, at in enumerate(arrived) if at is not None]
    last = max((at for at in arrived if at is not None), default=t0)
    return StepResult(
        rate=rate,
        sent=sent,
        latencies_ms=latencies,
        lateness_ms=[x * 1000 for x in lateness],
        achieved_rate=len(latencies) / max(last - t0, 1e-9),
        failed=count - in_order + duplicates,
        violations=violations,
        busy=busy,
    )


def drain_errors(endpoint) -> list[str]:
    """Read every frame already waiting on ``endpoint``; return ERROR code names."""
    codes = []
    while True:
        try:
            frame = endpoint.recv_frame(0.005)
        except TimedOut:
            return codes
        if frame.kind is MsgKind.ERROR:
            codes.append(unpack_error(frame.payload)[0].name)
        else:
            codes.append(f"unexpected {frame.kind.name}")


@dataclass
class EchoResult:
    rtts_ms: list[float]
    payload_bytes: int
    elapsed_s: float
    failed: int
    violations: list[str]

    @property
    def samples(self) -> int:
        return len(self.rtts_ms)

    @property
    def p50(self) -> float:
        return percentile(self.rtts_ms, 50)

    @property
    def p99(self) -> float:
        return percentile(self.rtts_ms, 99)


def merge_echoes(chunks: list[EchoResult]) -> EchoResult:
    return EchoResult(
        rtts_ms=[x for c in chunks for x in c.rtts_ms],
        payload_bytes=sum(c.payload_bytes for c in chunks),
        elapsed_s=sum(c.elapsed_s for c in chunks),
        failed=sum(c.failed for c in chunks),
        violations=[v for c in chunks for v in c.violations],
    )


def echo_size(rng) -> int:
    """A payload size drawn log-uniform over [ECHO_MIN, ECHO_MAX]."""
    return min(ECHO_MAX, int(math.exp(rng.uniform(math.log(ECHO_MIN), math.log(ECHO_MAX)))))


def set_cpus(pid, cpus) -> None:
    """Set the CPU affinity of every thread of process ``pid`` (0: this process)."""
    for tid in os.listdir(f"/proc/{pid or os.getpid()}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


@contextmanager
def one_cpu(session: Session):
    """Run the generator and every relay thread on one CPU for the block.

    It turns each hand-off between them into a context switch on a busy CPU
    instead of a wake-up of an idle one, whose latency on a shared virtual
    machine follows the host's load rather than relaykit's code.  In the
    closed ECHO loop only one side works at a time, so this costs no
    parallelism; in the rate search it makes the capacity found that of one
    CPU running both the generator and the relay.
    """
    cpus = os.sched_getaffinity(0)
    pids = (0, session.relay.proc.pid)
    for pid in pids:
        set_cpus(pid, {min(cpus)})
    try:
        yield
    finally:
        for pid in pids:
            set_cpus(pid, cpus)


def echo_loop(session: Session, rng, stream: int, count: int) -> EchoResult:
    """Closed loop of ``count`` ECHOs from alice, one outstanding at a time, on one CPU."""
    with one_cpu(session):
        return _echo_loop(session.alice, rng, stream, count)


def _echo_loop(endpoint, rng, stream: int, count: int) -> EchoResult:
    pool = rng.randbytes(2 * ECHO_MAX)
    rtts = []
    violations = []
    failed = 0
    total = 0
    clock = time.perf_counter
    started = clock()
    for i in range(count):
        size = echo_size(rng)
        offset = rng.randrange(ECHO_MAX)
        payload = TAG.pack(stream, i) + pool[offset:offset + size - TAG.size]
        frame = Frame(MsgKind.ECHO, payload)
        sent_at = clock()
        endpoint.send_frame(frame)
        reply = endpoint.recv_frame(5.0)
        rtts.append((clock() - sent_at) * 1000)
        if reply.kind is not MsgKind.ECHO_REPLY or reply.payload != payload:
            failed += 1
            violations.append(f"wrong echo #{i}: {reply.kind.name} {len(reply.payload)} bytes")
        else:
            total += size
    return EchoResult(rtts, total, clock() - started, failed, violations)
