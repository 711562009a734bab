"""Relay scheduling, grouping structure, packet assembly, pattern header.

The two frozen schedules below were worked out by hand from the scheduling
rule (commit at t+j, steady rate while past erasures stay <= j-1, otherwise
pause until t+N1 and drain at the fallback rate):

* (T=5, N1=2, N2=3, j=0), message 1 erased with a second erasure right after
  (prefix [1, 0]): nothing can move until slot t+2, then all three estimates
  drain at once -> alpha = (0, 0, 3, | 3, 3, 3), grouped.
* (T=6, N1=2, N2=3, j=1), message 4 erased with an isolated erasure at slot 6
  (prefix [0, 1, 0]): two symbols ride slot 5 at the committed rate, the
  leftover third symbol slot 6, and the erasure at 6 forces the fallback
  drain of the remaining three at slot 7 -> alpha = (0, 2, 1, 3, | 3, 3, 3),
  grouped.
"""

import itertools

import numpy as np
import pytest

from codec_reference import make_codes
from plan_reference import InadmissiblePattern, compute_schedule
from relaystream import source_codec
from relaystream.erasure_channel import enumerate_admissible
from relaystream.relay_codec import (
    RelayState,
    ScheduleOverrun,
    build_message_plan,
    build_parity_groups,
    decode_header,
    encode_header,
    second_code,
)
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params
from relaystream.source_codec import encode_source

P523 = SchemeParams(5, 2, 3, 0)
P623 = SchemeParams(6, 2, 3, 1)


def test_schedule_burst_worked_example():
    s = compute_schedule(P523, t=1, erased=True, prefix=[1, 0])
    assert s.alpha == (0, 0, 3, 3, 3, 3)
    assert s.grouped
    assert s.t == 1 and s.erased
    assert sum(s.alpha[: P523.T - P523.N2 + 1]) == 3  # whole message crosses by t+T-N2


def test_schedule_isolated_worked_example():
    s = compute_schedule(P623, t=4, erased=True, prefix=[0, 1, 0])
    assert s.alpha == (0, 2, 1, 3, 3, 3, 3)
    assert s.grouped
    assert sum(s.alpha[: P623.T - P623.N2 + 1]) == 6


def test_schedule_clean_message_rides_steady_rate():
    s = compute_schedule(P623, t=0, erased=False, prefix=[0, 0, 0])
    # steady rate l'' from slot t+j on, parity tail at the same rate
    assert s.alpha == (0, 2, 2, 2, 2, 2, 2)
    assert not s.grouped


def test_schedule_commit_when_prefix_stays_quiet():
    # erased message, but no further erasures by t+j: stays at the high rate
    s = compute_schedule(P623, t=0, erased=True, prefix=[0, 0, 0])
    assert s.alpha == (0, 2, 2, 2, 2, 2, 2)
    assert not s.grouped


def test_schedule_zero_estimates_sends_no_parities():
    # everything after the erased message erased too: nothing transmitted
    p = P523
    s = compute_schedule(p, t=0, erased=True, prefix=[1, 0])
    assert s.alpha == (0, 0, 3, 3, 3, 3)
    # same but the whole data window erased is inadmissible for N1=2
    with pytest.raises(InadmissiblePattern):
        compute_schedule(p, t=0, erased=True, prefix=[1, 1])


def test_schedule_rejects_bad_prefix():
    with pytest.raises(InadmissiblePattern):
        compute_schedule(P523, t=0, erased=True, prefix=[0])  # wrong length
    with pytest.raises(InadmissiblePattern):
        compute_schedule(P623, t=0, erased=True, prefix=[1, 1, 0])  # 3 > N1


def admissible_prefixes(p):
    """All (erased, prefix) pairs a valid pattern can show message t."""
    for erased in (False, True):
        for bits in itertools.product((0, 1), repeat=p.T - p.N2):
            if int(erased) + sum(bits) <= p.N1:
                yield erased, list(bits)


@pytest.mark.parametrize("p", [P523, P623, SchemeParams(7, 3, 2, 1)])
def test_schedule_conservation_and_tail(p):
    d = derive_dims(p)
    cut = p.T - p.N2 + 1
    for erased, prefix in admissible_prefixes(p):
        s = compute_schedule(p, 0, erased, prefix)
        assert len(s.alpha) == p.T + 1
        assert all(a >= 0 for a in s.alpha)
        # the whole message crosses within the data window
        assert sum(s.alpha[:cut]) == d.k_src
        # parity tail is flat: k'' per slot if grouped, l'' otherwise
        tail = d.k_dprime if s.grouped else d.l_dprime
        assert s.alpha[cut:] == (tail,) * p.N2
        # alpha never exceeds the declared per-slot budget
        assert all(a <= e for a, e in zip(s.alpha, s.ell))
        # grouped exactly when an erasure strictly before the last data-window
        # slot (the only ones that can disturb a commitment) exceeded j-1
        late_erasures = sum(prefix[: p.T - p.N2 - 1])
        if erased:
            assert s.grouped == (late_erasures > p.j - 1)
        else:
            assert not s.grouped


def worked_pattern_623():
    # first-hop erasures at slots 4 and 6 on an otherwise clean horizon
    bits = [0] * 12
    bits[4] = bits[6] = 1
    return bits


def test_plan_grouping_structure_worked_example():
    """Queue order and codeword layout: two groups of three, transmitted
    group-1 first, and the p-th codeword pairs the p-th symbol of each group
    into a (5, 2) code -- three short concatenations instead of one long."""
    bits = worked_pattern_623()
    look = lambda s: 0 <= s < len(bits) and bits[s] == 1
    plan = build_message_plan(P623, look, 4)
    assert plan.erased and plan.schedule.grouped
    assert [item.flat for item in plan.tx] == [1, 3, 5, 0, 2, 4]
    assert [item.slot for item in plan.tx] == [5, 5, 6, 7, 7, 7]
    assert len(plan.codewords) == 3
    for pos, cw in enumerate(plan.codewords):
        assert (cw.n, cw.k) == (5, 2)  # (T+1-N1, l'')
        assert cw.sys_items == (pos, 3 + pos)
        assert cw.parity_slots == ((8, pos), (9, pos), (10, pos))
    # first codeword combines the second and first message symbols
    assert plan.tx[plan.codewords[0].sys_items[0]].flat == 1
    assert plan.tx[plan.codewords[0].sys_items[1]].flat == 0


def test_plan_ungrouped_structure():
    look = lambda s: False
    plan = build_message_plan(P623, look, 3)
    d = derive_dims(P623)
    assert not plan.schedule.grouped
    assert len(plan.codewords) == d.l_dprime
    for layer, cw in enumerate(plan.codewords):
        assert (cw.n, cw.k) == (d.n_dprime, d.k_dprime)  # (7, 3)
        assert cw.sys_items == tuple(w * d.l_dprime + layer for w in range(3))


@pytest.mark.parametrize("p", [P523, P623])
def test_codeword_symbols_never_share_a_slot(p):
    """At most one symbol of any second-hop codeword rides a given slot, so
    w erased relay slots erase at most w symbols of each codeword."""
    horizon = 2 * (p.T + 1)
    for bits in enumerate_admissible(p.T, p.N1, horizon):
        look = lambda s: 0 <= s < horizon and bits[s] == 1
        for t in range(horizon - p.T):
            plan = build_message_plan(p, look, t)
            for cw in plan.codewords:
                slots = [plan.tx[i].slot for i in cw.sys_items]
                slots += [s for s, _ in cw.parity_slots]
                assert len(set(slots)) == len(slots), (bits, t)


def drive_relay(p, bits, messages, header_mode=False):
    """Feed an episode through the relay, returning its emitted packets."""
    relay = RelayState(p, header_mode=header_mode)
    packets = []
    for s in range(len(bits)):
        pkt = encode_source(p, messages, s)
        relay.ingest_source(s, None if bits[s] else pkt)
        packets.append(relay.emit(s))
    return relay, packets


def episode_messages(p, horizon, seed):
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(seed)
    return [list(map(int, rng.integers(0, field.q, d.k_src))) for _ in range(horizon)]


def test_relay_emits_plan_sizes_and_codewords():
    """Value-level check of the worked example: emitted subpacket sizes match
    the schedule and every grouped codeword is a valid (5,2) MDS word over
    the true message symbols."""
    p = P623
    bits = worked_pattern_623()
    messages = episode_messages(p, len(bits), seed=11)
    relay, packets = drive_relay(p, bits, messages)

    def subpacket(slot, t):
        for tt, syms in packets[slot].subpackets:
            if tt == t:
                return syms
        return ()

    assert len(subpacket(5, 4)) == 2
    assert len(subpacket(6, 4)) == 1
    assert len(subpacket(7, 4)) == 3
    # isolated erasure: estimates equal the true symbols, in queue order
    assert subpacket(5, 4) == (messages[4][1], messages[4][3])
    assert subpacket(6, 4) == (messages[4][5],)
    assert subpacket(7, 4) == (messages[4][0], messages[4][2], messages[4][4])

    plan = build_message_plan(p, relay.ledger.erased, 4)
    code = second_code(p, 5, 2)
    sys_vals = {
        0: (messages[4][1], messages[4][0]),
        1: (messages[4][3], messages[4][2]),
        2: (messages[4][5], messages[4][4]),
    }
    for pos, cw in enumerate(plan.codewords):
        word = code.encode(list(sys_vals[pos]))
        got = [subpacket(s, 4)[idx] for s, idx in cw.parity_slots]
        assert got == word[2:], pos


@pytest.mark.parametrize("p", [P523, P623])
def test_causal_emission_matches_retrospective_plan(p):
    """The slot-by-slot relay must reproduce exactly the sizes of the plan
    built after the fact from the full pattern."""
    horizon = 2 * (p.T + 1)
    for pat in enumerate_admissible(p.T, p.N1, horizon):
        bits = list(pat)
        messages = episode_messages(p, horizon, seed=13)
        relay, packets = drive_relay(p, bits, messages)
        sizes: dict[int, list[int]] = {}
        for s, pkt in enumerate(packets):
            for t, syms in pkt.subpackets:
                sizes.setdefault(t, [0] * (p.T + 1))[s - t] = len(syms)
        for t in range(horizon - p.T):
            plan = build_message_plan(p, relay.ledger.erased, t)
            got = tuple(sizes.get(t, [0] * (p.T + 1)))
            assert got == plan.schedule.alpha, (bits, t)


def test_emit_subpacket_interface():
    p = P523
    bits = [0] * 10
    bits[1] = bits[2] = 1
    messages = episode_messages(p, 10, seed=17)
    _, packets = drive_relay(p, bits, messages, header_mode=True)
    for s, pkt in enumerate(packets):
        assert pkt.slot == s
        ts = [t for t, _ in pkt.subpackets]
        assert ts == sorted(ts)  # oldest message first
        assert all(max(0, s - p.T) <= t <= s - p.j for t in ts)
        assert pkt.payload_symbols == sum(len(sy) for _, sy in pkt.subpackets)
        assert len(pkt.header) == derive_dims(p).delta
        assert pkt.wire_symbols() == list(pkt.header) + [
            v for _, sy in pkt.subpackets for v in sy
        ]


def test_queue_guard_refuses_an_estimate_not_yet_ingested():
    """The relay values an estimate only once its emission slot has been
    ingested; a plan that runs ahead of the first hop is refused."""
    p = P623
    bits = worked_pattern_623()
    look = lambda s: 0 <= s < len(bits) and bits[s] == 1
    messages = episode_messages(p, len(bits), seed=19)
    relay, _ = drive_relay(p, bits[:6], messages[:6])
    plan = build_message_plan(p, look, 4)  # estimates of message 4 at slots 5 and 7
    alpha = plan.shape.schedule.alpha
    assert relay._queue_values(4, plan.shape, 0, alpha[1] + alpha[2])
    with pytest.raises(ScheduleOverrun):
        relay._queue_values(4, plan.shape, 0, plan.n_tx)


def test_parity_groups_value_guard():
    p = P623
    bits = worked_pattern_623()
    look = lambda s: 0 <= s < len(bits) and bits[s] == 1
    plan = build_message_plan(p, look, 4)
    from relaystream.relay_codec import IncompleteEstimates

    with pytest.raises(IncompleteEstimates):
        build_parity_groups(p, plan, [0] * (len(plan.tx) - 1))


def test_header_round_trip_exhaustive_small():
    for p in (P523, P623):
        for n in range(2 ** (p.T + 1)):
            bits = tuple((n >> i) & 1 for i in range(p.T + 1))
            syms = encode_header(p, bits)
            assert len(syms) == derive_dims(p).delta
            assert decode_header(p, syms) == bits


def test_header_round_trip_sampled_large():
    p = SchemeParams(15, 4, 6, 0)
    rng = np.random.default_rng(23)
    for _ in range(300):
        bits = tuple(int(b) for b in rng.integers(0, 2, p.T + 1))
        assert decode_header(p, encode_header(p, bits)) == bits


def test_header_memos_round_trip_every_window():
    """For every (T+1)-bit window of every set of all_valid_params(5), given
    as bytes or as a list: decoding the encoded header gives the window
    back, and each header memo ends with one entry per window, the window
    memo keyed by bytes."""
    for p in all_valid_params(5):
        source_codec._STORE.pop(p, None)
        for window in itertools.product((0, 1), repeat=p.T + 1):
            syms = encode_header(p, bytes(window))
            assert encode_header(p, list(window)) == syms
            assert decode_header(p, syms) == window
            assert decode_header(p, list(syms)) == window
        headers, windows = source_codec._STORE[p].headers, source_codec._STORE[p].windows
        assert len(headers) == len(windows) == 2 ** (p.T + 1)
        assert all(type(key) is bytes for key in headers)


def test_malformed_header_is_never_memoized():
    """A header no window encodes to raises on every occurrence, and
    neither header memo changes; nor does a window of the wrong length.
    A symbol that is not an int is such a header, one equal to an int
    (2.0) among them."""
    p = P523
    for window in itertools.product((0, 1), repeat=p.T + 1):
        decode_header(p, encode_header(p, window))
    entry = source_codec._entry(p)
    headers, windows = entry.headers, entry.windows
    before = (dict(headers), dict(windows))
    bad_types = ((2.5, 0, 0), (0, None, 0), (2.0, 0, 0))
    for bad in ((7, 0, 0), (0, -1, 0), (0, 0, 6), (1, 0), (1, 0, 0, 0)) + bad_types:
        for _ in range(2):
            with pytest.raises(ValueError):
                decode_header(p, bad)
    for _ in range(2):
        with pytest.raises(ValueError):
            encode_header(p, bytes(p.T))
    assert (headers, windows) == before


def test_header_length_errors():
    with pytest.raises(ValueError):
        encode_header(P523, [0] * 5)
    with pytest.raises(ValueError):
        decode_header(P523, (0,))


def test_header_rejects_symbols_no_header_holds():
    """Symbols outside [0, q) and values of T+2 bits or more raise instead
    of turning into arbitrary bits.  At (5,2,3,0) q = 7 and delta = 3, so
    the 343 symbol triples hold 64 headers."""
    p = P523
    valid = encode_header(p, [1, 0, 1, 1, 0, 1])
    for bad in (7, 14, -1):
        for k in range(len(valid)):
            syms = list(valid)
            syms[k] = bad
            with pytest.raises(ValueError):
                decode_header(p, syms)
    decoded = 0
    for syms in itertools.product(range(7), repeat=3):
        value = syms[0] + 7 * syms[1] + 49 * syms[2]
        if value < 2 ** (p.T + 1):
            decode_header(p, syms)
            decoded += 1
        else:
            with pytest.raises(ValueError):
                decode_header(p, syms)
    assert decoded == 64


def test_relay_state_stays_bounded_over_a_long_episode():
    """Per-message relay state is dropped once slot t+T has been emitted:
    after 3000 slots every per-message store of the relay holds at most T+1
    entries, one per message still in flight."""
    p = P523
    horizon = 3000
    rng = np.random.default_rng(29)
    bits = [int(b) for b in rng.random(horizon) < 0.2]
    relay, packets = drive_relay(p, bits, episode_messages(p, horizon, seed=29))
    assert len(packets) == horizon
    stores = {name: v for name, v in vars(relay).items() if isinstance(v, dict)}
    assert "queues" in stores
    for name, store in stores.items():
        assert len(store) <= p.T + 1, (name, len(store))
