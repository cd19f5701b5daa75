"""relaykit benchmark: relay delivery ladder, bulk echo and lossy go-back-N.

    python3 perfbench/run.py --workload relay-direct --seed 1 --seconds 36 --trace 0

Builds nothing: the program is the Python package under ``src/`` of the
checkout this file sits in, and the run fails without it.  Every untraced
run, whatever its workload, reports every end-to-end metric, so it drives
the relay (a ``relaykit serve`` child process) with DIRECT and ECHO traffic
and runs ``gbn.run_transfer`` in a worker process, in rounds that spread
each metric's samples over the whole run.  The workload names the phase
that gets twice the share of each round, the set-up that ``setup_s`` times
and the process whose memory ``peak_rss_mib`` reads; with ``--trace 1`` it
names the one phase that runs, half of it traced.  README.md gives the
reasons for each workload and metric.

Lines before the last are ``key=value`` run metadata; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("relay-direct", "echo-bulk", "arq-lossy")

END_TO_END = {
    "setup_s": "s",
    "light_p50_ms": "ms",
    "light_p99_ms": "ms",
    "heavy_p50_ms": "ms",
    "heavy_p99_ms": "ms",
    "max_rate_msg_s": "msg/s",
    "rtt_p50_ms": "ms",
    "rtt_p99_ms": "ms",
    "goodput_mib_s": "MiB/s",
    "segments_s": "segments/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.checksum_us": "us",
    "wire.frames": "count",
    "wire.payload_bytes": "bytes",
    "wire.self_ms": "ms",
    "transport.send_us": "us",
    "transport.recv_calls": "count",
    "transport.recv_useful_ratio": "ratio",
    "transport.recv_wait_ms": "ms",
    "transport.self_ms": "ms",
    "server.route_us": "us",
    "server.mailbox_wait_p50_ms": "ms",
    "server.mailbox_wait_p99_ms": "ms",
    "server.mailbox_depth_max": "count",
    "server.drain_useful_ratio": "ratio",
    "server.busy": "count",
    "server.self_ms": "ms",
    "channel.push_us": "us",
    "channel.pop_us": "us",
    "channel.pushes": "count",
    "channel.dropped": "count",
    "channel.self_ms": "ms",
    "gbn.codec_us": "us",
    "gbn.sender_us": "us",
    "gbn.receiver_us": "us",
    "gbn.retransmissions": "count",
    "gbn.ticks": "count",
    "gbn.useful_ratio": "ratio",
    "gbn.self_ms": "ms",
    "overhead.heavy_p50_ms": "ms",
    "overhead.rtt_p50_ms": "ms",
    "overhead.segments_s": "segments/s",
}

# The percentile over a run's chunks (or set-ups, steps, transfers) that each
# metric reports.  The shared host interferes in two ways, both more in some
# minutes than in others: it switches between a fast and a slow state about
# 1.5x apart, and it stalls processes for milliseconds.  A median over chunks
# follows both.  Metrics bound by the interpreter's speed report their worst
# decile, the level of the slow state, which every run reaches.  The relay's
# open-loop latencies are set mostly by its 20 ms poll, and a stall only adds
# to them; they report their best decile, the chunks that no host stall
# reached.  A stall of the relay's own that recurs still reaches every chunk.
OVER_CHUNKS = {
    "setup_s": 90,
    "light_p50_ms": 10,
    "light_p99_ms": 10,
    "heavy_p50_ms": 10,
    "heavy_p99_ms": 10,
    "max_rate_msg_s": 10,
    "rtt_p50_ms": 90,
    "rtt_p99_ms": 90,
    "goodput_mib_s": 10,
    "segments_s": 10,
}

LIGHT_RATE, HEAVY_RATE = 1000, 8000  # offered msg/s of the two named relay-direct steps
MIN_OPS = 1000  # >= 10 samples above every p99
MIN_ROUNDS = 3
ARQ_SEGMENTS = 1000
TRACED_TRANSFERS = 8  # bounds the span store of a traced arq-lossy run
# What one round runs.  The machine's speed drifts over seconds, so every
# metric is taken from chunks spread over the whole run rather than from
# one block.  Every relay and echo chunk holds >= MIN_OPS operations, so
# each has its own p99.  The phase a workload names gets HOME_BOOST times
# its heavy chunks and rate-search steps, its echo chunks or its transfers.
LIGHT_CHUNK_S, HEAVY_CHUNK_S, STAIR_STEP_S = 1.0, 0.15, 0.2
HEAVY_CHUNKS, STAIR_STEPS, ECHO_CHUNKS, ECHOES, ARQ_TRANSFERS = 2, 4, 2, MIN_OPS, 4
ARQ_SETUPS = 50  # building the ARQ inputs takes under 1 ms, so a round times it often
RELAY_SETUPS = 2  # spare relay start-ups per round, about 0.15 s each
HOME_BOOST = 2
CLIMB_FACTOR, STAIR_FACTOR = 1.5, 1.05


def quantile(values, q: int) -> float:
    """The interpolated ``q``-th percentile of ``values`` (the value itself if only one)."""
    values = list(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def emit(kind: str, **fields) -> None:
    print(kind + "".join(f" {k}={v}" for k, v in fields.items()), flush=True)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Operations attempted and failed, plus wrong outputs found anywhere."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def add(self, attempted: int, failed: int, violations=()):
        self.attempted += attempted
        self.failed += failed
        self.violations.extend(violations)


def report_step(label: str, step) -> None:
    from relay import percentile

    emit("step", name=label, offered_msg_s=step.rate, achieved_msg_s=round(step.achieved_rate, 1),
         samples=len(step.latencies_ms), p50_ms=round(step.p50, 3), p99_ms=round(step.p99, 3),
         gen_late_p99_ms=round(percentile(step.lateness_ms, 99), 3),
         gen_late_max_ms=round(max(step.lateness_ms), 3), failed=step.failed, busy=step.busy,
         generator_bound=str(step.generator_bound).lower(),
         backlog_growing=str(step.backlog_growing).lower(), meets_limit=str(step.meets_limit).lower())


def report_percentile(name: str, samples: int, **extra) -> None:
    """Sample count behind a percentile; with ``chunks``, per chunk (the smallest chunk)."""
    q = 99 if "p99" in name else 50
    emit("percentile", name=name, samples=samples,
         above=samples - math.ceil(q / 100 * samples), **extra)


class Staircase:
    """Search for the highest offered rate whose step meets the limit.

    Climbs from the heavy rate by CLIMB_FACTOR while steps meet the limit.
    Then the search walks a grid of STAIR_FACTOR steps, up after a pass and
    down after a miss, so that it keeps returning to the edge.  The walk
    starts halfway, on a log scale, between the climb's last pass and its
    miss, near the edge.  In the climb and the walk alike a miss is tried
    once more before it counts, because one stall of the machine can fail a
    step.  Steps are spread over the run's rounds.  ``max_rate_msg_s`` is
    taken over the walk's passing rates, or is the climb's best rate when
    the walk has none.
    """

    def __init__(self):
        self.rate = float(HEAVY_RATE)
        self.climbing = True
        self.retrying = False
        self.best = 0
        self.passed: list[int] = []

    def step(self, run):
        rate = round(self.rate)
        step = run(rate)
        report_step("stair", step)
        if step.meets_limit:
            self.retrying = False
            if self.climbing:
                self.best = rate
                self.rate *= CLIMB_FACTOR
            else:
                self.passed.append(rate)
                self.rate *= STAIR_FACTOR
        elif not self.retrying:
            self.retrying = True
        else:
            self.retrying = False
            if self.climbing:
                self.climbing = False
                self.rate = math.sqrt(self.best * rate) if self.best else rate / STAIR_FACTOR
            else:
                self.rate /= STAIR_FACTOR
        return step


def channel_seed(seed: int) -> int:
    return random.Random(f"{seed}/arq").getrandbits(63) | 1


def check_transfers(outcomes, seed: int, tally: Tally) -> tuple:
    """Each transfer must complete, deliver the inputs and match ``relaykit arq-sim``."""
    import arq

    expected = arq.reference(ARQ_SEGMENTS, channel_seed(seed))
    violations = [] if expected[0] and expected[4] == ARQ_SEGMENTS else [f"arq-sim reference {expected}"]
    wrong = [got for got in outcomes if got != expected]
    violations += [f"transfer {got} != arq-sim {expected}" for got in wrong[:5]]
    tally.add(len(outcomes), len(wrong), violations)
    emit("arq", segments=ARQ_SEGMENTS, channel_seed=channel_seed(seed), transfers=len(outcomes),
         retransmissions=expected[2], ticks=expected[3])
    return expected


class Rounds:
    """Counts rounds until ``seconds`` have passed, and at least MIN_ROUNDS."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.done = 0

    def more(self) -> bool:
        if self.done >= MIN_ROUNDS and time.perf_counter() - self.started >= self.seconds:
            return False
        self.done += 1
        return True


def full_run(home: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Every phase, untraced, in rounds; returns every end-to-end metric."""
    import arq
    from relay import (ECHO, HEAVY, LIGHT, STAIR, direct_step, echo_loop, merge_echoes,
                       merge_steps, one_cpu, open_session, stream_id)

    boost = lambda phase: HOME_BOOST if phase == home else 1
    relay_rng, echo_rng = random.Random(f"{seed}/relay"), random.Random(f"{seed}/echo")
    setups = {"relay-direct": [], "echo-bulk": [], "arq-lossy": []}
    lights, heavies, echoes, times, outcomes = [], [], [], [], []
    stair = Staircase()
    stair_steps = 0
    worker = arq.Worker(ARQ_SEGMENTS, channel_seed(seed))
    session = None
    try:
        session = open_session()
        setups["relay-direct"].append(session.direct_ready_s)
        setups["echo-bulk"].append(session.echo_ready_s)

        def send(kind: int, n: int, rate: int, seconds: float):
            count = max(MIN_OPS, round(rate * seconds))
            return direct_step(session, relay_rng, stream_id(kind, n), rate, count)

        rounds = Rounds(seconds)
        while rounds.more():
            n = rounds.done
            lights.append(send(LIGHT, n, LIGHT_RATE, LIGHT_CHUNK_S))
            for _ in range(HEAVY_CHUNKS * boost("relay-direct")):
                heavies.append(send(HEAVY, len(heavies), HEAVY_RATE, HEAVY_CHUNK_S))
            for _ in range(STAIR_STEPS * boost("relay-direct")):
                stair_steps += 1
                with one_cpu(session):
                    step = stair.step(lambda rate: send(STAIR, stair_steps, rate, STAIR_STEP_S))
                tally.add(0, 0, step.violations)  # its losses to overload are not failures
            for _ in range(ECHO_CHUNKS * boost("echo-bulk")):
                echoes.append(echo_loop(session, echo_rng, stream_id(ECHO, len(echoes)), ECHOES))
            for _ in range(ARQ_TRANSFERS * boost("arq-lossy")):
                elapsed, outcome = worker.transfer()
                times.append(elapsed)
                outcomes.append(outcome)
            setups["arq-lossy"] += [worker.setup() for _ in range(ARQ_SETUPS)]
            for _ in range(RELAY_SETUPS):
                spare = open_session()
                spare.close()
                setups["relay-direct"].append(spare.direct_ready_s)
                setups["echo-bulk"].append(spare.echo_ready_s)
        relay_rss = session.relay.peak_rss_mib()
    finally:
        if session is not None:
            session.close()
        arq_rss = worker.finish()["peak_rss_mib"]
    light, heavy, echo = merge_steps(lights), merge_steps(heavies), merge_echoes(echoes)
    for label, step in (("light", light), ("heavy", heavy)):
        report_step(label, step)
        tally.add(step.sent, step.failed, step.violations)
    tally.add(echo.samples, echo.failed, echo.violations)
    check_transfers(outcomes, seed, tally)
    emit("rounds", rounds=rounds.done, setups=len(setups[home]),
         stair_passed_after_first_miss=",".join(map(str, stair.passed)) or "none")
    for prefix, chunks in (("light", lights), ("heavy", heavies), ("rtt", echoes)):
        for q in (50, 99):
            report_percentile(f"{prefix}_p{q}_ms", min(c.samples for c in chunks),
                              chunks=len(chunks))
    # Per-chunk values of each metric: the run's spread, printed as metadata.
    per_chunk = {
        "setup_s": setups[home],
        "light_p50_ms": [c.p50 for c in lights],
        "light_p99_ms": [c.p99 for c in lights],
        "heavy_p50_ms": [c.p50 for c in heavies],
        "heavy_p99_ms": [c.p99 for c in heavies],
        "max_rate_msg_s": stair.passed or [stair.best],
        "rtt_p50_ms": [c.p50 for c in echoes],
        "rtt_p99_ms": [c.p99 for c in echoes],
        "goodput_mib_s": [c.payload_bytes / c.elapsed_s / 2**20 for c in echoes],
        "segments_s": [ARQ_SEGMENTS / t for t in times],
    }
    for name, values in per_chunk.items():
        emit("chunks", name=name, n=len(values),
             **{f"p{q}": f"{quantile(values, q):.6g}" for q in (10, 25, 50, 75, 90)})
    metrics = {name: quantile(values, OVER_CHUNKS[name]) for name, values in per_chunk.items()}
    metrics["peak_rss_mib"] = arq_rss if home == "arq-lossy" else relay_rss
    return metrics


def traced_run(home: str, seed: int, seconds: float, tally: Tally) -> dict:
    """The ``home`` phase, alternating untraced and traced chunks; every per-layer metric.

    Layers the phase does not reach read 0, as do the overheads of the
    other phases.
    """
    import arq
    from relay import (ECHO, HEAVY, LIGHT, direct_step, echo_loop, merge_echoes, merge_steps,
                       open_session, stream_id)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    rounds = Rounds(seconds)
    if home == "arq-lossy":
        plain, traced = arq.Worker(ARQ_SEGMENTS, channel_seed(seed)), None
        times = {False: [], True: []}
        outcomes = []
        try:
            traced = arq.Worker(ARQ_SEGMENTS, channel_seed(seed), traced=True)
            while len(times[True]) < TRACED_TRANSFERS and rounds.more():
                for is_traced, worker in ((False, plain), (True, traced)):
                    elapsed, outcome = worker.transfer()
                    times[is_traced].append(elapsed)
                    outcomes.append(outcome)
            summary = traced.finish()["trace"]
        finally:
            plain.close()
            if traced is not None:
                traced.close()
        expected = check_transfers(outcomes, seed, tally)
        metrics.update({k: v for k, v in summary.items() if k in PER_LAYER})
        metrics.update({
            "gbn.retransmissions": expected[2],
            "gbn.ticks": expected[3],
            "gbn.useful_ratio": ARQ_SEGMENTS / (ARQ_SEGMENTS + expected[2]),
            "overhead.segments_s": ARQ_SEGMENTS * len(times[True]) / sum(times[True])
                                   - ARQ_SEGMENTS * len(times[False]) / sum(times[False]),
        })
        emit("trace", spans=summary["spans"], transfers=len(times[True]))
        return metrics

    pools = {is_traced: {"light": [], "heavy": [], "echo": []} for is_traced in (False, True)}
    sessions = {}
    try:
        for is_traced in (False, True):
            sessions[is_traced] = open_session(traced=is_traced)
        # Both sides get the same seeded inputs, chunk by chunk.
        rngs = {is_traced: random.Random(f"{seed}/{home}") for is_traced in sessions}
        while rounds.more():
            n = rounds.done
            for is_traced, session in sessions.items():
                pool, rng = pools[is_traced], rngs[is_traced]
                if home == "relay-direct":
                    pool["light"].append(direct_step(session, rng, stream_id(LIGHT, n), LIGHT_RATE,
                                                     max(MIN_OPS, round(LIGHT_RATE * LIGHT_CHUNK_S))))
                    pool["heavy"].append(direct_step(session, rng, stream_id(HEAVY, n), HEAVY_RATE,
                                                     max(MIN_OPS, round(HEAVY_RATE * HEAVY_CHUNK_S))))
                else:
                    pool["echo"].append(echo_loop(session, rng, stream_id(ECHO, n), ECHOES))
    finally:
        outputs = {is_traced: session.close() for is_traced, session in sessions.items()}
    p50 = {}
    for is_traced, pool in pools.items():
        if home == "relay-direct":
            for step in (merge_steps(pool["light"]), merge_steps(pool["heavy"])):
                tally.add(step.sent, step.failed, step.violations)
            p50[is_traced] = statistics.median(c.p50 for c in pool["heavy"])
        else:
            echo = merge_echoes(pool["echo"])
            tally.add(echo.samples, echo.failed, echo.violations)
            p50[is_traced] = statistics.median(c.p50 for c in pool["echo"])
    summary = next(json.loads(line[len("trace="):]) for line in outputs[True].splitlines()
                   if line.startswith("trace="))
    metrics.update({k: v for k, v in summary.items() if k in PER_LAYER})
    light_wait = summary["mailbox_wait_ms"].get(str(LIGHT))
    if light_wait:
        metrics["server.mailbox_wait_p50_ms"] = light_wait["p50"]
        metrics["server.mailbox_wait_p99_ms"] = light_wait["p99"]
        emit("percentile", name="server.mailbox_wait_ms", traffic="light", samples=light_wait["n"])
    key = "overhead.heavy_p50_ms" if home == "relay-direct" else "overhead.rtt_p50_ms"
    metrics[key] = p50[True] - p50[False]
    emit("trace", spans=summary["spans"], rounds=rounds.done,
         untraced_p50_ms=p50[False], traced_p50_ms=p50[True])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaykit" / "__init__.py").is_file():
        print(f"error=no relaykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relaykit

    if Path(relaykit.__file__).resolve().parent != SRC / "relaykit":
        print(f"error=imported relaykit from {relaykit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    emit("meta", python=platform.python_version(), nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(),
         network="loopback", workload=args.workload, seed=args.seed, seconds=args.seconds,
         trace=args.trace)
    tally = Tally()
    if args.trace:
        metrics, units = traced_run(args.workload, args.seed, args.seconds, tally), PER_LAYER
    else:
        metrics, units = full_run(args.workload, args.seed, args.seconds, tally), END_TO_END
    for violation in tally.violations[:20]:
        emit("violation", detail=json.dumps(violation))
    emit("errors", attempted=tally.attempted, failed=tally.failed,
         error_rate=tally.failed / max(tally.attempted, 1))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
