"""The arq-lossy phase: ``gbn.run_transfer`` on the inputs ``relaykit arq-sim`` builds.

Run as a script, this file is the worker process that holds the program
under test, so its peak RSS is the simulator's own.  It reads one command a
line on stdin and answers each with one JSON line:

    setup     build the inputs again; answer {"setup_s": ...}
    run       one transfer; answer {"time_s": ..., "outcome": [...]}
    trace     wrap the channel and gbn calls for every later transfer
    finish    answer {"peak_rss_mib": ..., "trace": {...} if traced} and exit

``Worker`` drives it from the benchmark, and ``reference`` runs
``relaykit arq-sim`` with the same flags, whose retransmission and tick
counts every transfer must reproduce.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PAYLOAD_SIZE = 32
LOSS, DUP, CORRUPT, MAX_DELAY = 0.2, 0.01, 0.01, 3
WINDOW, TIMEOUT, MAX_TICKS = 8, 8, 1_000_000


def cli_flags(segments: int, channel_seed: int) -> list[str]:
    return ["--segments", str(segments), "--payload-size", str(PAYLOAD_SIZE),
            "--loss", str(LOSS), "--dup", str(DUP), "--corrupt", str(CORRUPT),
            "--max-delay", str(MAX_DELAY), "--window", str(WINDOW),
            "--timeout", str(TIMEOUT), "--seed", str(channel_seed)]


def build_inputs(segments: int, channel_seed: int):
    """The payload list and channel config ``relaykit arq-sim`` builds for these flags."""
    from relaykit.channel import ChannelConfig

    payloads = [struct.pack(">I", i) + bytes([i & 0xFF]) * (PAYLOAD_SIZE - 4)
                for i in range(segments)]
    config = ChannelConfig(loss_prob=LOSS, dup_prob=DUP, corrupt_prob=CORRUPT,
                           max_delay=MAX_DELAY, seed=channel_seed)
    return payloads, config


def serve(segments: int, channel_seed: int) -> None:
    """The worker's command loop."""
    from relay import peak_rss_mib
    from relaykit import gbn

    payloads, config = build_inputs(segments, channel_seed)
    tracer = None
    traced = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "setup":
            t = time.perf_counter()
            payloads, config = build_inputs(segments, channel_seed)
            reply = {"setup_s": time.perf_counter() - t}
        elif command == "run":
            t = time.perf_counter()
            stats = gbn.run_transfer(payloads, config, window=WINDOW,
                                     timeout_ticks=TIMEOUT, max_ticks=MAX_TICKS)
            elapsed = time.perf_counter() - t
            traced += tracer is not None
            reply = {"time_s": elapsed,
                     "outcome": [stats.completed, stats.delivered == payloads,
                                 stats.retransmissions, stats.ticks_elapsed,
                                 stats.delivered_count]}
        elif command == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install_arq()
            reply = {}
        elif command == "finish":
            reply = {"peak_rss_mib": peak_rss_mib()}
            if tracer is not None:
                reply["trace"] = tracer.summarise_arq(max(traced, 1))
        else:
            reply = {"error": f"unknown command {command!r}"}
        print(json.dumps(reply), flush=True)
        if command == "finish":
            return


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class Worker:
    """A worker process that repeats one transfer on request."""

    def __init__(self, segments: int, channel_seed: int, traced: bool = False):
        from relay import die_with_parent

        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "arq.py"), str(segments), str(channel_seed)],
            cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=die_with_parent)
        if traced:
            self._ask("trace")

    def _ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"arq worker exited with {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def setup(self) -> float:
        return self._ask("setup")["setup_s"]

    def transfer(self) -> tuple[float, tuple]:
        reply = self._ask("run")
        return reply["time_s"], tuple(reply["outcome"])

    def finish(self) -> dict:
        try:
            return self._ask("finish")
        finally:
            self.close()

    def close(self) -> None:
        self.proc.stdin.close()  # end of input ends the command loop
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reference(segments: int, channel_seed: int) -> tuple:
    """``relaykit arq-sim`` output for the same flags, as a transfer outcome tuple."""
    done = subprocess.run(
        [sys.executable, "-m", "relaykit.cli", "arq-sim"] + cli_flags(segments, channel_seed),
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"arq-sim failed ({done.returncode}): {done.stderr.strip()}")
    out = dict(line.split("=", 1) for line in done.stdout.split())
    return (out["completed"] == "true", True, int(out["retransmissions"]),
            int(out["ticks"]), int(out["delivered"]))


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
