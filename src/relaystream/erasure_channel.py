"""Erasure patterns for the two hops: admissibility and enumeration.

A pattern is a tuple or list of 0/1 ints, one per slot (1 = packet erased);
`pattern_from_bits` checks one that comes from outside.  Admissibility for
bound N with deadline parameter T means every window of T+1 consecutive
slots holds at most N erasures; windows past the horizon are constrained
through their in-range part (a partial window is a subset of a full one).
`sim_harness.loss_probability` draws a `ChannelConfig`'s i.i.d. patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate


class HorizonTooLarge(ValueError):
    """Enumeration horizon beyond the supported 3*(T+1) bound."""


def pattern_from_bits(bits) -> tuple[int, ...]:
    """The 0/1 int tuple of a bit sequence; any value other than 0 or 1
    (True, 1.0 and the like count as 1) raises ValueError."""
    bits = tuple(bits)
    if not all(b in (0, 1) for b in bits):
        raise ValueError("pattern bits must be 0 or 1")
    return tuple(map(int, bits))


@dataclass(frozen=True)
class ChannelConfig:
    """i.i.d. channel pair: P(erase link1) = alpha, P(erase link2) = beta."""

    alpha: float
    beta: float
    seed: int
    horizon: int

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must be probabilities in [0, 1]")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def _burst_family(horizon: int, n: int, starts) -> list[list[int]]:
    """The clean pattern, then an n-slot burst at each start of ``starts``
    that fits in [0, horizon), in that order (no bursts when n <= 0)."""
    family = [[0] * horizon]
    if n > 0:
        for s in starts:
            if 0 <= s and s + n <= horizon:
                family.append([0] * s + [1] * n + [0] * (horizon - s - n))
    return family


def is_admissible(bits, T: int, N: int) -> bool:
    """True iff every (T+1)-slot window of the 0/1 sequence ``bits`` holds
    at most N erasures (all of them, when the horizon is shorter)."""
    c = list(accumulate(bits, initial=0))
    w = min(T + 1, len(c) - 1)
    return all(c[s + w] - c[s] <= N for s in range(len(c) - w))


def _enumerable(T: int, horizon: int) -> bool:
    """Whether ``enumerate_admissible`` takes ``horizon``: at most 3*(T+1)."""
    return horizon <= 3 * (T + 1)


def enumerate_admissible(T: int, N: int, horizon: int):
    """Yield every admissible pattern as a tuple of 0/1 ints, ascending when
    read as an integer whose bit i is slot i (so the all-clear pattern comes
    first, then the single erasure at slot 0, at slot 1, ...).
    """
    if not _enumerable(T, horizon):
        raise HorizonTooLarge(f"horizon {horizon} > 3*(T+1) = {3 * (T + 1)}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    w = T + 1
    bits = [0] * horizon

    def rec(slot: int):
        # bits for slots > slot are already fixed; fill right to left so the
        # emitted order is ascending in the integer encoding above
        if slot < 0:
            yield tuple(bits)
            return
        for b in (0, 1):
            bits[slot] = b
            # windows [slot, slot+w) are complete once their left edge is set
            if b and sum(bits[slot : slot + w]) > N:
                continue
            yield from rec(slot - 1)
        bits[slot] = 0

    yield from rec(horizon - 1)


def count_admissible(T: int, N: int, horizon: int) -> int:
    """Window-state dynamic program; cross-checks enumerate_admissible."""
    w = T + 1
    # state: occupancy of the last min(w-1, slots so far) slots
    states = {(): 1}
    for _ in range(horizon):
        nxt: dict[tuple[int, ...], int] = {}
        for st, cnt in states.items():
            for b in (0, 1):
                win = st + (b,)
                if sum(win) > N:
                    continue
                key = win[-(w - 1) :] if w > 1 else ()
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())
