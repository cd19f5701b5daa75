"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload briefly, untraced and traced, and checks the result
line; checks that an altered delivery is counted as a failure; and checks
that the benchmark refuses to run without the program's sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import relay  # noqa: E402
import run  # noqa: E402
from relaykit import server, transport  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_reported(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_altered_delivery_counts_as_failure(monkeypatch):
    route_direct = server.Registry.route_direct

    def tamper(self, from_id, to_id, message):
        if relay.TAG.unpack_from(message)[1] == 5:
            message = message[:-1] + bytes([message[-1] ^ 0xFF])
        return route_direct(self, from_id, to_id, message)

    monkeypatch.setattr(server.Registry, "route_direct", tamper)
    relay_server = server.RelayServer(transport.listen("127.0.0.1:0"))
    relay_server.start()
    alice, bob = transport.connect(relay_server.addr), transport.connect(relay_server.addr)
    try:
        for endpoint, name in ((alice, "alice"), (bob, "bob")):
            relay.hello(endpoint)
            relay.register(endpoint, name)
        session = SimpleNamespace(alice=alice, bob=bob)
        step = relay.direct_step(session, random.Random(1), relay.stream_id(relay.LIGHT, 0), 2000, 50)
    finally:
        alice.close()
        bob.close()
        relay_server.shutdown()
    assert step.failed == 1
    assert step.violations == ["altered seq=5"]
    tally = run.Tally()
    tally.add(step.sent, step.failed, step.violations)
    assert tally.failed / tally.attempted == 1 / 50


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "relay-direct", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
