import signal
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "relaykit.cli"]


def run_cli(*args, timeout=120):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=timeout
    )


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out.setdefault(key, []).append(value)
    return out


class TestUsageErrors:
    def test_no_subcommand(self):
        assert run_cli().returncode == 1

    def test_unknown_flag(self):
        assert run_cli("arq-sim", "--bogus").returncode == 1

    def test_loss_out_of_range(self):
        assert run_cli("arq-sim", "--loss", "1.5").returncode == 1

    def test_zero_seed(self):
        assert run_cli("arq-sim", "--seed", "0").returncode == 1

    def test_bad_transport(self):
        assert run_cli("serve", "--transport", "carrier-pigeon").returncode == 1

    def test_bench_too_few_reps(self):
        assert run_cli("bench", "--reps", "1").returncode == 1


class TestArqSim:
    ARGS = ["arq-sim", "--segments", "1000", "--loss", "0.2",
            "--window", "8", "--timeout", "8", "--seed", "42"]

    def test_pinned_regression_output(self):
        result = run_cli(*self.ARGS)
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["completed"] == ["true"]
        assert kv["retransmissions"] == ["2005"]
        assert kv["ticks"] == ["2522"]
        assert kv["delivered"] == ["1000"]

    def test_byte_identical_across_runs(self):
        first = run_cli(*self.ARGS)
        second = run_cli(*self.ARGS)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_lossy_run_output_is_pinned(self):
        # The flags of the benchmark's arq-lossy workload; the segment
        # checksum feeds every accept/discard decision, so this pins it too.
        result = run_cli("arq-sim", "--segments", "1000", "--payload-size", "32",
                         "--loss", "0.2", "--dup", "0.01", "--corrupt", "0.01",
                         "--max-delay", "3", "--window", "8", "--timeout", "8",
                         "--seed", "42")
        assert result.returncode == 0
        assert result.stdout == (
            "completed=true\nretransmissions=5192\nticks=7163\ndelivered=1000\n"
        )

    def test_lossless_quick(self):
        result = run_cli("arq-sim", "--segments", "50", "--seed", "3")
        kv = parse_kv(result.stdout)
        assert kv["completed"] == ["true"]
        assert kv["retransmissions"] == ["0"]


class TestMatmulCommand:
    def test_check_passes(self):
        result = run_cli("matmul", "--n", "48", "--threads", "4", "--check")
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["equal"] == ["true"]
        assert kv["n"] == ["48"]

    def test_reports_timing(self):
        result = run_cli("matmul", "--n", "32", "--threads", "2")
        kv = parse_kv(result.stdout)
        assert float(kv["parallel_ms"][0]) > 0


class TestBenchCommand:
    def test_both_modes_with_speedup(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        result = run_cli(
            "bench", "--clients", "2", "--work-ms", "10", "--mode", "both",
            "--reps", "3", "--csv", str(csv_path),
        )
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["mode"] == ["sequential", "concurrent"]
        assert len(kv["median_total_ms"]) == 2
        assert float(kv["speedup"][0]) >= 1.0
        assert csv_path.read_text().count("rep,total_ms") == 2


class _ServeProcess:
    def __init__(self, *extra):
        self.proc = subprocess.Popen(
            CLI + ["serve", "--addr", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().strip()
        kv = dict(part.split("=", 1) for part in line.split())
        assert kv["event"] == "listening", line
        self.addr = kv["addr"]

    def interrupt(self) -> int:
        self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=10)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture
def serve_proc():
    server = _ServeProcess()
    yield server
    server.kill()


class TestServeAndClient:
    def test_scripted_session_and_interrupt_exit_zero(self, serve_proc, tmp_path):
        alice_script = tmp_path / "alice.txt"
        alice_script.write_text("/msg bob hello-bob\n/ping\n/quit\n")

        # bob reads stdin, so he stays connected until we send /quit
        bob = subprocess.Popen(
            CLI + ["client", "--addr", serve_proc.addr, "--id", "bob"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(20):
            if "event=registered" in bob.stdout.readline():
                break
        alice = subprocess.run(
            CLI + ["client", "--addr", serve_proc.addr, "--id", "alice",
                   "--script", str(alice_script)],
            capture_output=True, text=True, timeout=30,
        )
        bob_out, bob_err = bob.communicate(input="/quit\n", timeout=30)
        assert alice.returncode == 0, alice.stderr
        assert "event=pong" in alice.stdout
        assert bob.returncode == 0, bob_err
        assert "event=deliver from=alice text=hello-bob" in bob_out
        assert serve_proc.interrupt() == 0

    def test_unknown_recipient_fails_script(self, serve_proc, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("/msg nobody are-you-there\n/ping\n/quit\n")
        result = subprocess.run(
            CLI + ["client", "--addr", serve_proc.addr, "--id", "alice",
                   "--script", str(script)],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert "event=error code=2" in result.stdout

    def test_bare_line_is_an_error(self, serve_proc, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("hello without a verb\n")
        result = subprocess.run(
            CLI + ["client", "--addr", serve_proc.addr, "--id", "alice",
                   "--script", str(script)],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert "event=bad_command" in result.stdout

    def test_connect_failure_is_runtime_error(self):
        result = run_cli("client", "--addr", "127.0.0.1:1", "--id", "x", timeout=30)
        assert result.returncode == 2


class TestServeUdp:
    def test_udp_handshake_and_echo(self):
        server = _ServeProcess("--transport", "udp")
        try:
            from relaykit.transport import connect_datagram
            from relaykit.wire import (
                Frame, HandshakeParams, MsgKind, pack_hello, unpack_hello,
            )

            client = connect_datagram(server.addr)
            client.send_frame(Frame(MsgKind.HELLO, pack_hello(HandshakeParams(1, 8, 65536))))
            reply = client.recv_frame(5.0)
            assert reply.kind is MsgKind.HELLO_ACK
            # datagram sessions cap the payload below fragmentation size
            assert unpack_hello(reply.payload).max_payload == 1400
            client.send_frame(Frame(MsgKind.ECHO, b"over-udp"))
            assert client.recv_frame(5.0).payload == b"over-udp"
            client.close()
            assert server.interrupt() == 0
        finally:
            server.kill()
