"""Command-line entry point: serve, client, bench, matmul, arq-sim.

All output is line-oriented ``key=value`` so integration tests can shell out
and parse.  Exit status: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import random
import struct
import sys
import time
from dataclasses import replace

from .bench import BenchConfig, CONCURRENT, SEQUENTIAL, compare_modes, run_service_bench
from .channel import ChannelConfig
from .client import ChatClient, run_script
from .gbn import run_transfer
from .matmul import Matrix, matmul_parallel, matmul_serial
from .server import RelayServer, ServerConfig, hello_reply
from .transport import bind_datagram, connect, listen
from .wire import DEFAULT_PARAMS, ErrorCode, Frame, MsgKind, pack_error

# Datagram sessions cap the payload below the usual MTU to avoid fragmentation.
DATAGRAM_MAX_PAYLOAD = 1400


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; runtime failures exit 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error={message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relaykit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the relay server")
    p.add_argument("--addr", default="127.0.0.1:7000", help="bind address host:port")
    p.add_argument("--transport", choices=["tcp", "udp"], default="tcp")
    p.add_argument("--max-clients", type=int, default=64)

    p = sub.add_parser("client", help="connect, register, and run commands")
    p.add_argument("--addr", required=True, help="server address host:port")
    p.add_argument("--id", required=True, help="client id (UTF-8, 1..64 bytes)")
    p.add_argument("--script", help="file of /msg, /all, /ping, /quit lines (default: stdin)")

    p = sub.add_parser("bench", help="sequential vs thread-per-client service bench")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--work-ms", type=float, default=50.0)
    p.add_argument("--mode", choices=[SEQUENTIAL, CONCURRENT, "both"], default="both")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--csv", help="write per-repetition totals to this CSV file")

    p = sub.add_parser("matmul", help="serial vs row-partitioned matrix product")
    p.add_argument("--n", type=int, default=256, help="square matrix size")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--check", action="store_true", help="verify against the serial product")
    p.add_argument("--seed", type=int, default=1, help="matrix content seed")

    p = sub.add_parser("arq-sim", help="go-back-N transfer over the lossy channel")
    p.add_argument("--segments", type=int, default=1000)
    p.add_argument("--payload-size", type=int, default=32)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--dup", type=float, default=0.0)
    p.add_argument("--corrupt", type=float, default=0.0)
    p.add_argument("--max-delay", type=int, default=0)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--timeout", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-ticks", type=int, default=1_000_000)
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject bad flag combinations before any network or thread activity."""
    if args.command == "serve" and args.max_clients < 1:
        parser.error("--max-clients must be >= 1")
    if args.command == "bench":
        if args.clients < 1:
            parser.error("--clients must be >= 1")
        if args.work_ms < 0:
            parser.error("--work-ms must be >= 0")
        if args.reps < 3:
            parser.error("--reps must be >= 3")
    if args.command == "matmul":
        if args.n < 1:
            parser.error("--n must be >= 1")
        if args.threads < 1:
            parser.error("--threads must be >= 1")
    if args.command == "arq-sim":
        for name in ("loss", "dup", "corrupt"):
            value = getattr(args, name)
            if not 0.0 <= value <= 1.0:
                parser.error(f"--{name} must be in [0, 1]")
        if args.segments < 1:
            parser.error("--segments must be >= 1")
        if args.payload_size < 4 or args.payload_size > 0xFFFF:
            parser.error("--payload-size must be in [4, 65535]")
        if args.max_delay < 0:
            parser.error("--max-delay must be >= 0")
        if args.window < 1:
            parser.error("--window must be >= 1")
        if args.timeout < 1:
            parser.error("--timeout must be >= 1")
        if args.max_ticks < 1:
            parser.error("--max-ticks must be >= 1")
        if args.seed == 0:
            parser.error("--seed must be nonzero")


def _serve_udp(addr: str) -> int:
    """Connectionless responder: handshake negotiation and echo only."""
    supported = replace(DEFAULT_PARAMS, max_payload=DATAGRAM_MAX_PAYLOAD)
    endpoint = bind_datagram(addr)
    print(f"event=listening transport=udp addr={endpoint.local_addr}", flush=True)
    try:
        while True:
            try:
                frame, peer = endpoint.recv_frame_from(0.2)
            except Exception:  # a timeout, or a datagram that is not a frame
                continue
            if frame.kind is MsgKind.HELLO:
                reply, _ = hello_reply(frame.payload, supported)
            elif frame.kind is MsgKind.ECHO:
                reply = Frame(MsgKind.ECHO_REPLY, frame.payload)
            elif frame.kind is MsgKind.BYE:
                continue
            else:
                reply = Frame(MsgKind.ERROR, pack_error(ErrorCode.MALFORMED, "datagram mode supports HELLO/ECHO/BYE"))
            endpoint.send_frame(reply, dest=peer)
    except KeyboardInterrupt:
        return 0
    finally:
        endpoint.close()


def _cmd_serve(args) -> int:
    if args.transport == "udp":
        return _serve_udp(args.addr)
    listener = listen(args.addr)
    server = RelayServer(listener, ServerConfig(max_clients=args.max_clients))
    print(f"event=listening transport=tcp addr={server.addr}", flush=True)
    server.serve_forever()
    return 0


def _cmd_client(args) -> int:
    endpoint = connect(args.addr)
    client = ChatClient(endpoint)
    agreed = client.handshake()
    print(f"event=handshake version={agreed.version} window={agreed.window} "
          f"max_payload={agreed.max_payload}", flush=True)
    client.register(args.id)
    print(f"event=registered id={args.id}", flush=True)
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin
    ok = run_script(client, lines, emit=lambda s: print(s, flush=True))
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    if args.mode == "both":
        seq, conc = compare_modes(args.clients, args.work_ms, args.reps)
        reports = [seq, conc]
    else:
        reports = [run_service_bench(BenchConfig(args.clients, args.work_ms, args.mode, args.reps))]
    for report in reports:
        for line in report.to_lines():
            print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            for report in reports:
                fh.write(report.to_csv())
    return 0


def _cmd_matmul(args) -> int:
    rng = random.Random(args.seed)
    a = Matrix.random(args.n, args.n, rng)
    b = Matrix.random(args.n, args.n, rng)
    started = time.perf_counter()
    result = matmul_parallel(a, b, args.threads)
    parallel_ms = (time.perf_counter() - started) * 1000.0
    print(f"n={args.n}")
    print(f"threads={args.threads}")
    print(f"parallel_ms={parallel_ms:.2f}")
    if args.check:
        started = time.perf_counter()
        expected = matmul_serial(a, b)
        serial_ms = (time.perf_counter() - started) * 1000.0
        print(f"serial_ms={serial_ms:.2f}")
        print(f"equal={'true' if result == expected else 'false'}")
        if result != expected:
            return 2
    return 0


def _cmd_arqsim(args) -> int:
    payloads = [
        struct.pack(">I", i) + bytes([i & 0xFF]) * (args.payload_size - 4)
        for i in range(args.segments)
    ]
    config = ChannelConfig(
        loss_prob=args.loss,
        dup_prob=args.dup,
        corrupt_prob=args.corrupt,
        max_delay=args.max_delay,
        seed=args.seed,
    )
    stats = run_transfer(payloads, config, window=args.window,
                         timeout_ticks=args.timeout, max_ticks=args.max_ticks)
    print(f"completed={'true' if stats.completed else 'false'}")
    print(f"retransmissions={stats.retransmissions}")
    print(f"ticks={stats.ticks_elapsed}")
    print(f"delivered={stats.delivered_count}")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "client": _cmd_client,
    "bench": _cmd_bench,
    "matmul": _cmd_matmul,
    "arq-sim": _cmd_arqsim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        return 0
    except Exception as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
