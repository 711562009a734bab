"""Erasure-pattern model: sliding-window admissibility and enumeration.

Oracles: a brute-force filter over all 2^h bit vectors (small horizons) for
the enumerator, the admissibility predicate, and the DP counter.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaystream.erasure_channel import (
    ChannelConfig,
    HorizonTooLarge,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    pattern_from_bits,
)


def brute_force(T, N, horizon):
    w = T + 1
    out = []
    for bits in itertools.product((0, 1), repeat=horizon):
        ok = all(sum(bits[s : s + w]) <= N for s in range(max(1, horizon - w + 1)))
        if ok:
            out.append(bits)
    return out


def test_pattern_basics():
    p = pattern_from_bits([1, 0, 1, 1, 0])
    assert p == (1, 0, 1, 1, 0)
    assert len(p) == 5
    assert sum(p[2:4]) == 2
    got = pattern_from_bits([True, 0, 1.0, False, 1])
    assert got == (1, 0, 1, 0, 1)
    assert all(type(b) is int for b in got)
    assert pattern_from_bits([]) == ()


def test_pattern_rejects_non_binary():
    with pytest.raises(ValueError):
        pattern_from_bits((0, 2, 1))
    with pytest.raises(ValueError):
        pattern_from_bits([1, -1])


@pytest.mark.parametrize(
    "T,N,h", [(2, 1, 5), (3, 2, 7), (4, 2, 8), (2, 0, 4), (1, 1, 6)]
)
def test_enumeration_matches_brute_force(T, N, h):
    got = list(enumerate_admissible(T, N, h))
    want = brute_force(T, N, h)
    assert sorted(got) == sorted(want)
    assert len(set(got)) == len(got)  # no duplicates
    assert count_admissible(T, N, h) == len(want)
    # the predicate accepts exactly the brute-force set among all 2^h tuples
    accepted = [b for b in itertools.product((0, 1), repeat=h) if is_admissible(b, T, N)]
    assert accepted == want


def test_enumeration_order_is_ascending_integers():
    vals = [
        sum(b << i for i, b in enumerate(p))
        for p in enumerate_admissible(2, 1, 5)
    ]
    assert vals == sorted(vals)
    assert vals[0] == 0  # all-clear first


def test_enumeration_horizon_guard():
    with pytest.raises(HorizonTooLarge):
        list(enumerate_admissible(3, 1, 3 * 4 + 1))
    with pytest.raises(ValueError):
        list(enumerate_admissible(3, 1, 0))


@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_count_matches_brute_force(T, N, h):
    assert count_admissible(T, N, h) == len(brute_force(T, N, h))


def test_every_enumerated_pattern_is_admissible():
    for p in enumerate_admissible(3, 1, 10):
        assert is_admissible(p, 3, 1)
        # its complemented window count exceeds the bound somewhere unless N
        # is large; just sanity-check the predicate on a mutated copy
    bad = pattern_from_bits([1, 1, 0, 0])
    assert not is_admissible(bad, 3, 1)
    assert is_admissible(bad, 3, 2)
    assert is_admissible(pattern_from_bits([]), 3, 0)


def test_is_admissible_short_horizon():
    # horizon smaller than the window still counts every erasure once
    assert not is_admissible(pattern_from_bits([1, 1]), 5, 1)
    assert is_admissible(pattern_from_bits([1, 0]), 5, 1)


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(alpha=-0.1, beta=0.5, seed=0, horizon=4)
    with pytest.raises(ValueError):
        ChannelConfig(alpha=0.1, beta=1.5, seed=0, horizon=4)
    with pytest.raises(ValueError):
        ChannelConfig(alpha=0.1, beta=0.5, seed=0, horizon=0)
    with pytest.raises(ValueError):
        ChannelConfig(alpha=0.1, beta=0.5, seed=-1, horizon=4)
