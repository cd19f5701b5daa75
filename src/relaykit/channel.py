"""Deterministic unreliable-datagram simulator.

Time is a logical tick counter supplied by the caller, and all randomness
comes from a seeded xorshift64* generator, so a given (config, push sequence,
tick sequence) always produces the same deliveries bit for bit.  The channel
can lose, delay, duplicate, and corrupt datagrams; with every knob at zero it
is a perfect FIFO pipe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

_U64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_TWO64 = 1 << 64


class ZeroSeedError(Exception):
    """xorshift64* has no zero state; seed must be nonzero."""


def rng_next(state: int) -> tuple[int, int]:
    """Advance the xorshift64* generator one step.

    Recurrence: x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
    output = x * 0x2545F4914F6CDD1D (mod 2^64).

    Returns:
        (new_state, output).

    Raises:
        ZeroSeedError: on state 0 (the generator's only fixed point).
    """
    x = state & _U64
    if x == 0:
        raise ZeroSeedError("rng state must be nonzero mod 2**64")
    x ^= x >> 12
    x ^= (x << 25) & _U64
    x ^= x >> 27
    return x, (x * _MULT) & _U64


@dataclass(frozen=True)
class ChannelConfig:
    """Impairment knobs. Probabilities are in [0, 1]; delay is in ticks."""

    loss_prob: float = 0.0
    dup_prob: float = 0.0
    corrupt_prob: float = 0.0
    max_delay: int = 0
    seed: int = 1

    def __post_init__(self):
        for name in ("loss_prob", "dup_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if not 0 <= self.seed <= _U64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class InFlight:
    """A scheduled datagram waiting for its delivery tick."""

    payload: bytes
    deliver_at: int


class LossyChannel:
    """One-directional datagram pipe with seeded loss/delay/dup/corruption.

    A channel instance is single-threaded: it is owned and driven by one
    simulation loop (or guarded externally).
    """

    def __init__(self, config: ChannelConfig):
        if config.seed == 0:
            raise ZeroSeedError("channel seed must be nonzero")
        self.config = config
        self._state = config.seed
        self._heap: list[tuple[int, int, bytes]] = []
        self._counter = 0
        # Integer thresholds, so prob=0 never fires and prob=1 always does.
        self._loss_below = int(config.loss_prob * _TWO64)
        self._dup_below = int(config.dup_prob * _TWO64)
        self._corrupt_below = int(config.corrupt_prob * _TWO64)
        self._delays = config.max_delay + 1

    def _draw(self) -> int:
        # rng_next, inlined: one draw per impairment decision.
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _U64
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _U64

    def push(self, payload: bytes, now: int) -> None:
        """Submit a datagram at tick ``now``.

        Draws happen in a fixed order per push -- loss, delay, duplicate,
        (duplicate delay,) corruption -- so traces stay reproducible across
        refactors.  A draw ``d`` picks from {0..n-1} as ``(d * n) >> 64``.
        Corruption XORs one byte of the original copy with a nonzero mask; a
        duplicate is a pristine copy of the pushed bytes, inserted after the
        original.
        """
        draw = self._draw
        if draw() < self._loss_below:
            return
        delay = (draw() * self._delays) >> 64
        dup_delay = None
        if draw() < self._dup_below:
            dup_delay = (draw() * self._delays) >> 64
        delivered = payload
        if draw() < self._corrupt_below and payload:
            index = (draw() * len(payload)) >> 64
            mask = 1 + ((draw() * 255) >> 64)
            delivered = bytearray(payload)
            delivered[index] ^= mask
        self.schedule(delivered, now + delay)
        if dup_delay is not None:
            self.schedule(payload, now + dup_delay)

    def schedule(self, payload: bytes, deliver_at: int) -> None:
        """Queue a datagram for a specific tick, bypassing the impairment draws.

        A bytes-like ``payload`` that is not ``bytes`` is copied, so the caller
        may reuse its buffer.
        """
        if type(payload) is not bytes:
            payload = bytes(payload)
        heapq.heappush(self._heap, (deliver_at, self._counter, payload))
        self._counter += 1

    def pop_ready(self, now: int) -> list[bytes]:
        """Remove and return every datagram due by ``now``.

        Ordered by (deliver_at, insertion order).
        """
        heap = self._heap
        if not heap or heap[0][0] > now:
            return []
        out = []
        while heap and heap[0][0] <= now:
            out.append(heapq.heappop(heap)[2])
        return out

    @property
    def pending(self) -> int:
        return len(self._heap)

    def in_flight(self) -> list[InFlight]:
        """Snapshot of everything still scheduled, in delivery order."""
        return [InFlight(p, t) for t, _, p in sorted(self._heap)]
