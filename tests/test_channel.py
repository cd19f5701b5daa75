import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from relaykit.channel import (
    ChannelConfig,
    InFlight,
    LossyChannel,
    ZeroSeedError,
    rng_next,
)

_U64 = (1 << 64) - 1


def _oracle_step(state):
    # the three-shift recurrence written out by hand, independent of the library
    x = state
    x ^= x >> 12
    x ^= (x << 25) & _U64
    x ^= x >> 27
    return x, (x * 0x2545F4914F6CDD1D) & _U64


class TestRng:
    def test_zero_state_rejected(self):
        with pytest.raises(ZeroSeedError):
            rng_next(0)

    def test_state_zero_mod_2_64_rejected(self):
        # 2**64 masks to the fixed point 0, which would return (0, 0) forever
        for state in (2**64, 2**65, 3 * 2**64):
            with pytest.raises(ZeroSeedError):
                rng_next(state)

    def test_first_output_from_state_one(self):
        # frozen from the hand-run recurrence: 1 -> 0x2000001 -> * multiplier
        assert _oracle_step(1) == (0x2000001, 0x47E4CE4B896CDD1D)
        assert rng_next(1) == (0x2000001, 0x47E4CE4B896CDD1D)

    @given(st.integers(1, _U64))
    @settings(max_examples=200)
    def test_matches_oracle(self, state):
        assert rng_next(state) == _oracle_step(state)

    @given(st.integers(1, _U64), st.integers(1, 40))
    @settings(max_examples=100)
    def test_channel_draws_follow_rng_next_chain(self, seed, n):
        ch = LossyChannel(ChannelConfig(seed=seed))
        state = seed
        for _ in range(n):
            state, out = rng_next(state)
            assert ch._draw() == out

    def test_outputs_fit_u64(self):
        state = 42
        for _ in range(100):
            state, out = rng_next(state)
            assert 0 < state <= _U64
            assert 0 <= out <= _U64


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(loss_prob=1.5)
        with pytest.raises(ValueError):
            ChannelConfig(dup_prob=-0.1)
        with pytest.raises(ValueError):
            ChannelConfig(max_delay=-1)

    def test_zero_seed_rejected_at_channel(self):
        with pytest.raises(ZeroSeedError):
            LossyChannel(ChannelConfig(seed=0))


class TestChannel:
    def test_perfect_fifo_when_all_knobs_off(self):
        ch = LossyChannel(ChannelConfig(seed=3))
        payloads = [b"m%d" % i for i in range(50)]
        for i, p in enumerate(payloads):
            ch.push(p, i)
        out = []
        for t in range(50):
            out.extend(ch.pop_ready(t))
        assert out == payloads

    def test_certain_loss_delivers_nothing(self):
        ch = LossyChannel(ChannelConfig(loss_prob=1.0, seed=5))
        for i in range(100):
            ch.push(b"gone", i)
        assert ch.pop_ready(10**9) == []
        assert ch.pending == 0

    def test_push_at_zero_delay_pops_same_tick(self):
        ch = LossyChannel(ChannelConfig(seed=9))
        ch.push(b"now", 0)
        assert ch.pop_ready(0) == [b"now"]

    def test_determinism_same_seed_same_trace(self):
        config = ChannelConfig(loss_prob=0.5, dup_prob=0.2, corrupt_prob=0.2, max_delay=3, seed=42)
        traces = []
        for _ in range(2):
            ch = LossyChannel(config)
            trace = []
            for t in range(200):
                ch.push(b"payload-%03d" % t, t)
                trace.append(ch.pop_ready(t))
            trace.append(ch.pop_ready(10**9))
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_pinned_delivery_count(self):
        # frozen against the xorshift64* trace: seed 42, half loss, 1000 pushes
        ch = LossyChannel(ChannelConfig(loss_prob=0.5, seed=42))
        for t in range(1000):
            ch.push(b"datagram-%d" % t, t)
        assert len(ch.pop_ready(10**9)) == 494

    def test_pinned_trace_digest_every_impairment_on(self):
        # frozen: pins the draw order (loss, delay, dup, dup delay, corrupt index
        # and mask) on its own; payload lengths 0-22 include empty datagrams,
        # which draw the corruption chance but are never mutated
        ch = LossyChannel(ChannelConfig(0.2, 0.3, 0.3, 4, seed=0xC0FFEE))
        out = []
        for t in range(400):
            ch.push(bytes(range(t % 23)), t)
            out.extend((t, p) for p in ch.pop_ready(t))
        out.extend((-1, p) for p in ch.pop_ready(10**9))
        assert len(out) == 413
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "31c337ce187e34ee802d3ba3eb943d259a8f62b385b50faab1f25ce7c34bba33"

    def test_forced_delays_order_by_deliver_tick(self):
        ch = LossyChannel(ChannelConfig(seed=1))
        ch.schedule(b"first-pushed", 3)
        ch.schedule(b"second-pushed", 1)
        assert ch.pop_ready(10) == [b"second-pushed", b"first-pushed"]

    def test_equal_ticks_keep_insertion_order(self):
        ch = LossyChannel(ChannelConfig(seed=1))
        ch.schedule(b"a", 2)
        ch.schedule(b"b", 2)
        ch.schedule(b"c", 1)
        assert ch.pop_ready(2) == [b"c", b"a", b"b"]

    def test_pop_ready_respects_now(self):
        ch = LossyChannel(ChannelConfig(seed=1))
        ch.schedule(b"later", 5)
        assert ch.pop_ready(4) == []
        assert ch.pending == 1
        assert ch.pop_ready(5) == [b"later"]

    def test_conservation_without_loss_or_dup(self):
        config = ChannelConfig(max_delay=7, seed=11)
        ch = LossyChannel(config)
        payloads = [b"p%03d" % i for i in range(300)]
        for i, p in enumerate(payloads):
            ch.push(p, i)
        out = []
        for t in range(400):
            out.extend(ch.pop_ready(t))
        assert sorted(out) == sorted(payloads)

    def test_no_corruption_means_byte_identical_payloads(self):
        config = ChannelConfig(loss_prob=0.3, dup_prob=0.3, max_delay=4, seed=13)
        ch = LossyChannel(config)
        sent = {bytes([i]) * 8 for i in range(200)}
        for i in range(200):
            ch.push(bytes([i]) * 8, i)
        for raw in ch.pop_ready(10**9):
            assert raw in sent

    def test_duplicate_always(self):
        ch = LossyChannel(ChannelConfig(dup_prob=1.0, seed=17))
        for i in range(50):
            ch.push(b"twin-%d" % i, 0)
        out = ch.pop_ready(10**9)
        assert len(out) == 100
        for i in range(50):
            assert out.count(b"twin-%d" % i) == 2

    def test_corruption_flips_exactly_one_byte_of_original(self):
        ch = LossyChannel(ChannelConfig(dup_prob=1.0, corrupt_prob=1.0, seed=19))
        ch.push(b"\x00" * 16, 0)
        out = ch.pop_ready(10**9)
        assert len(out) == 2
        corrupted = [d for d in out if d != b"\x00" * 16]
        pristine = [d for d in out if d == b"\x00" * 16]
        assert len(corrupted) == 1 and len(pristine) == 1
        diffs = [i for i, b in enumerate(corrupted[0]) if b != 0]
        assert len(diffs) == 1
        assert corrupted[0][diffs[0]] != 0  # mask drawn from 1..255

    def test_pushed_buffer_is_copied(self):
        ch = LossyChannel(ChannelConfig(dup_prob=1.0, seed=29))
        buf = bytearray(b"before")
        ch.push(buf, 0)
        ch.schedule(memoryview(buf), 0)
        buf[:] = b"after!"
        out = ch.pop_ready(10**9)
        assert out == [b"before"] * 3
        assert all(type(raw) is bytes for raw in out)

    def test_in_flight_snapshot(self):
        ch = LossyChannel(ChannelConfig(max_delay=6, seed=23))
        for i in range(20):
            ch.push(b"x%d" % i, 5)
        for item in ch.in_flight():
            assert isinstance(item, InFlight)
            assert item.deliver_at >= 5

    @given(seed=st.integers(1, _U64), n=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_determinism_property(self, seed, n):
        config = ChannelConfig(loss_prob=0.3, dup_prob=0.2, corrupt_prob=0.2, max_delay=4, seed=seed)
        runs = []
        for _ in range(2):
            ch = LossyChannel(config)
            out = []
            for t in range(n):
                ch.push(b"d%d" % t, t)
                out.append(ch.pop_ready(t))
            out.append(ch.pop_ready(10**9))
            runs.append(out)
        assert runs[0] == runs[1]
