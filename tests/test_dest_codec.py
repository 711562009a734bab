"""Destination decoding: deadline decode, oracle agreement, loss propagation.

The strongest checks run the full source -> relay -> destination pipeline and
compare the structured decoder against ``oracle_decode``, which solves one
generic linear system per message and shares no code path with it.
"""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from codec_reference import (
    MissingDependency,
    cancel_interference,
    dest_ingest,
    make_codes,
    oracle_decode,
    queue_reference,
)
from decode_programs import outcome, same
from relaystream import source_codec
from relaystream.dest_codec import FAILED, DecoderState, MalformedPacket
from relaystream.erasure_channel import enumerate_admissible, is_admissible
from relaystream.field_mds import InconsistentSymbols, MdsCode
from relaystream.relay_codec import RelayState, second_code, slot_layout
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import run_episode
from relaystream.source_codec import encode_source

P523 = SchemeParams(5, 2, 3, 0)
P623 = SchemeParams(6, 2, 3, 1)


def episode_messages(p, horizon, seed):
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(seed)
    return [list(map(int, rng.integers(0, field.q, d.k_src))) for _ in range(horizon)]


def run_pipeline(p, bits1, bits2, messages, header_mode=False, decode_slots=None, filed=None):
    """Drive an episode; returns the decoder after the last slot.  If
    ``decode_slots`` is a dict, it gets each message's slot of its first
    ``try_decode`` that was not pending.  If ``filed`` is a dict, it gets a
    copy of each message's filed symbols as they stood when it was last
    polled, since ``try_decode`` retires them with the message."""
    horizon = len(bits1)
    relay = RelayState(p, header_mode=header_mode)
    if header_mode:
        dest = DecoderState(p, header_mode=True)
    else:
        dest = DecoderState(p, e1_bits=bits1)
    for s in range(horizon):
        pkt = encode_source(p, messages, s)
        relay.ingest_source(s, None if bits1[s] else pkt)
        rp = relay.emit(s)
        dest_ingest(dest, s, None if bits2[s] else rp.wire_symbols())
        if filed is not None:
            filed.update((t, dict(st.got)) for t, st in dest.msgs.items())
        # attempt in ascending t so interference dependencies resolve first
        for t in range(0, s + 1):
            if dest.try_decode(t) != "pending" and decode_slots is not None:
                decode_slots.setdefault(t, s)
    return dest


def outcomes(dest, horizon, T):
    return {t: dest.try_decode(t) for t in range(horizon - T)}


def test_worked_example_decodes_under_every_parity_erasure_triple():
    """Message 4 of the grouped worked example survives any N2=3 erasures
    among the six relay slots that carry it, and decodes to the exact value
    no later than its deadline t+T."""
    p = P623
    horizon = 13
    bits1 = [0] * horizon
    bits1[4] = bits1[6] = 1
    messages = episode_messages(p, horizon, seed=31)
    for erased_slots in itertools.combinations(range(5, 11), 3):
        bits2 = [1 if s in erased_slots else 0 for s in range(horizon)]
        decode_slots = {}
        dest = run_pipeline(p, bits1, bits2, messages, decode_slots=decode_slots)
        got = dest.try_decode(4)
        assert got == messages[4], erased_slots
        # decoded by the deadline, not after it
        assert decode_slots[4] <= 4 + p.T, erased_slots
        # every other assessable message decodes too (the pattern stays
        # admissible for the second hop)
        for t in range(horizon - p.T):
            assert dest.try_decode(t) == messages[t], (erased_slots, t)


@pytest.mark.parametrize(
    "e2_bits",
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
        [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0],
    ],
)
def test_structured_decoder_agrees_with_linear_algebra_oracle(e2_bits):
    """Across every admissible first-hop pattern, the structured decoder and
    the generic linear-system oracle recover identical messages."""
    p = P523
    horizon = 12
    messages = episode_messages(p, horizon, seed=37)
    for bits1 in enumerate_admissible(p.T, p.N1, horizon):
        filed = {}
        dest = run_pipeline(p, bits1, e2_bits, messages, filed=filed)
        history = {}
        for t in range(horizon - p.T):
            got = dest.try_decode(t)
            assert got == messages[t], (bits1, t)
            history[t] = got
            plan = dest.plan(t)
            assert oracle_decode(p, plan, filed[t], history) == messages[t], (bits1, t)


def admissible(bits, T, N):
    return all(sum(bits[lo : lo + T + 1]) <= N for lo in range(max(1, len(bits) - T)))


@pytest.mark.parametrize(
    "p", [SchemeParams(7, 2, 3, 0), SchemeParams(8, 2, 3, 0)], ids=["GF8", "GF9"]
)
def test_queue_decode_agrees_with_the_oracle_over_extension_fields(p, monkeypatch):
    """test_structured_decoder_agrees_with_linear_algebra_oracle on GF(8)
    and GF(9), where enumerating every first-hop pattern takes too long: a
    seeded sample of admissible first-hop patterns, and second-hop bursts
    of b = 1..N2 slots every T+1 slots, which cost a codeword up to b
    systematic symbols.  The second-hop codes must solve for each count
    1..N2 of lost systematic symbols.  The decoder runs programs compiled
    from ``erasure_decode``, once per codeword layout and set of symbols
    held, so the set's store entry is dropped first: every program the run
    needs compiles under the recorder."""
    horizon = 2 * (p.T + 1)
    rng = np.random.default_rng(p.T)
    source_codec._STORE.pop(p, None)
    lost_counts = set()
    decode = MdsCode.erasure_decode

    def recording(code, received):
        if code is second_code(p, code.n, code.k):  # not the first-hop code
            base = sorted({pos for pos, _ in received})[: code.k]
            lost_counts.add(sum(1 for pos in base if pos >= code.k))
        return decode(code, received)

    monkeypatch.setattr(MdsCode, "erasure_decode", recording)
    samples = []
    while len(samples) < 8:
        bits1 = [int(b) for b in rng.random(horizon) < 0.2]
        if admissible(bits1, p.T, p.N1) and sum(bits1):
            samples.append(bits1)
    for i, bits1 in enumerate(samples):
        messages = episode_messages(p, horizon, seed=100 + i)
        for b in range(1, p.N2 + 1):
            for phase in range(p.T + 1 - b):
                e2_bits = [int((s - phase) % (p.T + 1) < b) for s in range(horizon)]
                filed = {}
                dest = run_pipeline(p, bits1, e2_bits, messages, filed=filed)
                history = {}
                for t in range(horizon - p.T):
                    got = dest.try_decode(t)
                    assert got == messages[t], (bits1, e2_bits, t)
                    history[t] = got
                    want = oracle_decode(p, dest.plan(t), filed[t], history)
                    assert want == messages[t], (bits1, e2_bits, t)
    assert lost_counts >= set(range(1, p.N2 + 1)), lost_counts


@pytest.mark.parametrize("p", [P523, SchemeParams(12, 3, 4, 1)])
def test_surplus_parity_off_the_codeword_raises_as_the_reference_does(p):
    """Oracle mode, seeded messages, a clean first hop and one erased relay
    slot, t+j, which costs message t's codewords a queue item each.  With
    every slot ingested before t is attempted, each such codeword decodes
    from one parity and checks the other N2-1.  Changing the first symbol
    of t's last parity ride in-field -- a surplus parity of codeword 0 --
    makes the compiled check raise ``InconsistentSymbols`` with the
    reference's text, and ``try_decode`` raises it too; unchanged, t
    decodes.  In-field corruption lies outside the erasure model, so it is
    not turned into an erasure (see ``DecoderState``)."""
    assert p.N2 >= 2
    t, horizon = 5, 3 * (p.T + 1)
    bits1, bits2 = [0] * horizon, [0] * horizon
    bits2[t + p.j] = 1
    field, _ = make_codes(p)
    messages = episode_messages(p, horizon, seed=53)
    for corrupt in (False, True):
        relay, dest = RelayState(p), DecoderState(p, e1_bits=bits1)
        for s in range(horizon):
            relay.ingest_source(s, encode_source(p, messages, s))
            wire = list(relay.emit(s).wire_symbols())
            if corrupt and s == t + p.T:
                rides = slot_layout(p, bytes(p.T + 1), s)
                x = sum(size for t2, _, _, size in rides if t2 < t)
                wire[x] = (wire[x] + 1) % field.q
            dest.ingest(s, None if bits2[s] else wire)
        plan, got = dest.plan(t), dest.msgs[t].got
        assert sum(len(v) for start, v in got.items() if start < plan.n_tx) < plan.n_tx
        want = outcome(queue_reference, p, plan, got)
        assert same(outcome(dest._queue, plan, got), want)
        if corrupt:
            assert type(want) is InconsistentSymbols, want
            with pytest.raises(InconsistentSymbols, match=re.escape(str(want))):
                dest.try_decode(t)
        else:
            assert want is not None and dest.try_decode(t) == messages[t]


def test_header_mode_matches_oracle_mode():
    p = P623
    horizon = 14
    bits1 = [0] * horizon
    bits1[3] = bits1[5] = 1
    bits2 = [0] * horizon
    bits2[6] = bits2[9] = bits2[12] = 1
    messages = episode_messages(p, horizon, seed=41)
    d_oracle = run_pipeline(p, bits1, bits2, messages, header_mode=False)
    d_header = run_pipeline(p, bits1, bits2, messages, header_mode=True)
    for t in range(horizon - p.T):
        assert d_header.try_decode(t) == d_oracle.try_decode(t) == messages[t]


def _filed_state(dest):
    """What ingesting a slot may change: every message's filed symbols and
    the decoder's pattern."""
    filed = {t: (dict(st.got), st.received) for t, st in dest.msgs.items()}
    return filed, bytes(dest.pattern.bits)


def test_malformed_packet_lengths():
    """At every slot of seeded episodes, in oracle and header mode, a
    payload one symbol short or one symbol long is one malformed slot: it
    raises before filing a ride or recording a header bit, the real packet
    then ingests, and every message decodes as in an unperturbed run.  So
    is a slot with a symbol that is not an int: a float last (payload)
    symbol, a float first (in header mode, header) symbol, or None."""
    cases = [
        (P523, 30, [3, 4, 15, 22], [10, 11, 25]),
        (SchemeParams(12, 3, 4, 1), 40, [2, 5, 6, 20, 33], [9, 10, 28]),
    ]
    for p, horizon, lost1, lost2 in cases:
        bits1 = [int(s in lost1) for s in range(horizon)]
        bits2 = [int(s in lost2) for s in range(horizon)]
        assert is_admissible(bits1, p.T, p.N1) and is_admissible(bits2, p.T, p.N2)
        messages = episode_messages(p, horizon, seed=43)
        for header_mode in (True, False):
            relay = RelayState(p, header_mode=header_mode)
            kw = {"header_mode": True} if header_mode else {"e1_bits": bits1}
            dest, clean = DecoderState(p, **kw), DecoderState(p, **kw)
            yielded = {dest: [], clean: []}  # (t, slot) per message finalize yields
            for s in range(horizon):
                relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
                packet = relay.emit(s)
                wire = None if bits2[s] else packet.wire_symbols()
                bads = [] if wire is None else [wire[:-1], wire + [0]]
                if wire:
                    bads += [wire[:-1] + [wire[-1] + 0.5], [wire[0] + 0.5] + wire[1:],
                             wire[:-1] + [None]]
                for bad in bads:
                    if bad == wire:
                        continue  # an empty payload has no symbol to cut
                    before = _filed_state(dest)
                    with pytest.raises(MalformedPacket):
                        dest.ingest(s, bad)
                    assert _filed_state(dest) == before, (p, header_mode, s, len(bad))
                for d in (dest, clean):
                    d.ingest(s, wire)
                    yielded[d] += [(t, s) for t, _ in d.finalize(s)]
            assert yielded[dest] == yielded[clean], (p, header_mode)
            for t in range(horizon - p.T):
                got = dest.try_decode(t)
                assert got == clean.try_decode(t), (p, t)
                assert got == messages[t], (p, header_mode, t)


def test_plan_of_a_final_message_leaves_the_live_store_as_it_was():
    """``plan(t)`` still answers for a final message, which the oracle
    tests rebuild from it, but puts nothing back into ``msgs``: after a
    header-mode episode driven by ``finalize``, asking for the plan of every
    final message leaves the live store as it was."""
    p, horizon = P523, 40
    bits1 = [int(s in (3, 4, 15, 22, 33)) for s in range(horizon)]
    assert is_admissible(bits1, p.T, p.N1)
    messages = episode_messages(p, horizon, seed=43)
    relay, dest = RelayState(p, header_mode=True), DecoderState(p, header_mode=True)
    final = []
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        dest.ingest(s, relay.emit(s).wire_symbols())
        final += [t for t, _ in dest.finalize(s)]
    assert set(range(horizon - p.T)) <= set(final)
    live = dict(dest.msgs)
    for t in final:
        assert dest.plan(t) is not None, t
        assert dest.try_decode(t) == messages[t], t
    assert dest.msgs == live


def test_payload_symbol_outside_the_field_is_malformed():
    """Symbols index the field tables, so a payload symbol outside [0, q)
    makes its slot malformed before any symbol of it is filed."""
    p = P523
    horizon = 8
    messages = episode_messages(p, horizon, seed=43)
    q = make_codes(p)[0].q
    relay = RelayState(p)
    dest = DecoderState(p, e1_bits=[0] * horizon)
    for s in range(horizon):
        relay.ingest_source(s, encode_source(p, messages, s))
        wire = relay.emit(s).wire_symbols()
        filed = {t: dict(st.got) for t, st in dest.msgs.items()}
        for bad in (q, -1):
            with pytest.raises(MalformedPacket):
                dest.ingest(s, wire[:-1] + [bad])
            assert {t: st.got for t, st in dest.msgs.items()} == filed
        dest.ingest(s, wire)
    for t in range(horizon - p.T):
        assert dest.try_decode(t) == messages[t]


def test_corrupted_header_is_one_malformed_slot():
    """A header symbol outside the field makes its own slot malformed and
    nothing else: the slot writes no pattern bit, the clean packets after it
    ingest, and every message decodes as after a hop-2 erasure of the slot."""
    p = P523
    horizon, bad = 20, 8
    bits1 = [0] * horizon
    bits1[3] = bits1[9] = bits1[15] = 1
    messages = episode_messages(p, horizon, seed=47)
    q = make_codes(p)[0].q
    relay = RelayState(p, header_mode=True)
    dest = DecoderState(p, header_mode=True)
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        wire = relay.emit(s).wire_symbols()
        if s == bad:
            wire[0] = q + 7
            known = bytes(dest.pattern.bits)
            with pytest.raises(MalformedPacket):
                dest.ingest(s, wire)
            assert dest.pattern.bits == known
        else:
            dest.ingest(s, wire)
    bits2 = [0] * horizon
    bits2[bad] = 1
    erased = run_pipeline(p, bits1, bits2, messages, header_mode=True)
    for t in range(horizon - p.T):
        assert dest.try_decode(t) == erased.try_decode(t) == messages[t], t


# the report of gap_episode() as the decoder gave it before the known-prefix
# watermark: SHA-256 of the sorted-key JSON of decode slots, failures,
# violations and payloads
GAP_EPISODE_SHA256 = "a2199832d5841bbb449411c6b71acf62ef6e026fc138776b9a2038c24ca794df"


def gap_episode():
    """(6,2,3,1), header mode, i.i.d. hops and a 9-slot hop-2 burst over
    slots 24-32: longer than T+1, so no header covers slots 24-26."""
    p = P623
    horizon = 72
    rng = np.random.default_rng([61, 623])
    bits1 = (rng.random(horizon) < 0.12).astype(int).tolist()
    bits2 = (rng.random(horizon) < 0.1).astype(int).tolist()
    for s in range(24, 24 + p.T + 3):
        bits2[s] = 1
    return p, bits1, bits2, horizon


def header_covered(dest, x):
    """Whether a header has covered slot x: its byte, behind the T bytes of
    slots before 0, is present and not the unseen marker."""
    i = x + dest.params.T
    return i < len(dest.pattern.bits) and dest.pattern.bits[i] != source_codec._UNSEEN


def test_plan_ready_matches_the_scan_across_a_header_gap():
    """At every slot, for every pending message, ``_plan_ready`` equals the
    plain scan of the bits a plan can read, for messages whose window ends
    before the gap and for messages past it, and the episode's report is
    the one the decoder gave before the watermark."""
    p, bits1, bits2, horizon = gap_episode()
    k = derive_dims(p).k_prime
    messages = episode_messages(p, horizon, seed=61)
    relay = RelayState(p, header_mode=True)
    dest = DecoderState(p, header_mode=True)
    ready_before_gap = ready_past_gap = 0
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        wire = relay.emit(s).wire_symbols()
        dest.ingest(s, None if bits2[s] else wire)
        for t in range(s + 1):
            if t in dest.outcomes:
                continue
            lo, hi = max(0, t - 2 * (k - 1)), t + p.T - p.N2
            scan = all(header_covered(dest, x) for x in range(lo, hi + 1))
            assert dest._plan_ready(t) == scan, (s, t)
            ready_before_gap += scan and hi < 24
            ready_past_gap += scan and hi >= 24
        list(dest.finalize(s))
    assert not header_covered(dest, 24)  # the gap
    assert ready_before_gap and ready_past_gap

    rep = run_episode(p, bits1, bits2, horizon, seed=61, header_mode=True)
    observed = {
        "decode_slots": [[t, x] for t, x in rep.decode_slots.items()],
        "failed": list(rep.failed),
        "violations": [list(v) for v in rep.violations],
        "payloads": list(rep.payloads),
    }
    assert list(rep.failed) == list(range(21, 30))
    digest = hashlib.sha256(json.dumps(observed, sort_keys=True).encode()).hexdigest()
    assert digest == GAP_EPISODE_SHA256


def test_oracle_pattern_shorter_than_the_horizon_reads_clean_beyond_it():
    """An oracle ``e1_bits`` that stops before the horizon reads clean after
    its end: fed the same packets, the decoder decodes every message as one
    given the whole pattern, whose tail is clean."""
    p = P623
    horizon, known = 30, 12
    bits1 = [0] * horizon
    bits1[3] = bits1[9] = 1
    messages = episode_messages(p, horizon, seed=53)
    relay = RelayState(p)
    short, full = DecoderState(p, e1_bits=bits1[:known]), DecoderState(p, e1_bits=bits1)
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        wire = relay.emit(s).wire_symbols()
        short.ingest(s, wire)
        full.ingest(s, wire)
    assert not any(short.pattern.erased(s) for s in range(known, horizon + p.T))
    assert [short.pattern.erased(s) for s in range(-p.T, known)] == [False] * p.T + [
        b == 1 for b in bits1[:known]
    ]
    for t in range(horizon - p.T):
        assert short.try_decode(t) == full.try_decode(t) == messages[t], t


def test_decoder_constructor_guards():
    with pytest.raises(ValueError):
        DecoderState(P523)  # oracle mode without a pattern
    with pytest.raises(ValueError):
        DecoderState(P523, e1_bits=[], header_mode=True)


def test_side_info_cross_check():
    dest = DecoderState(P523, e1_bits=[])
    with pytest.raises(ValueError):
        dest_ingest(dest, 0, None, side_info=True)


def test_pending_then_failed_after_deadline():
    p = P523
    dest = DecoderState(p, e1_bits=[])
    for s in range(p.T + 1):
        dest.ingest(s, None)  # second hop fully erased
        assert dest.try_decode(0, now=s) in ("pending", FAILED)
    assert dest.try_decode(0, now=p.T + 1) is FAILED
    # FAILED is permanent even if symbols appear later
    assert dest.try_decode(0) is FAILED


def test_cancel_interference_helper():
    field, _ = make_codes(P523)
    records = {0: (5, [(2, 1, 3)]), 1: (1, [])}
    history = {2: [0, 4, 0]}
    out = cancel_interference(field, records, history)
    assert out[1] == 1
    assert out[0] == field.sub(5, field.mul(3, 4))
    with pytest.raises(MissingDependency):
        cancel_interference(field, {0: (5, [(9, 0, 1)])}, {})
    with pytest.raises(MissingDependency):
        cancel_interference(field, {0: (5, [(2, 0, 1)])}, {2: FAILED})


def test_failure_propagates_through_interference():
    """An inadmissible second hop starves message 4; message 6 receives
    enough codeword symbols (the oracle decodes it given message 4's true
    value) yet must fail because its estimates embed the starved message."""
    p = SchemeParams(7, 3, 1, 1)
    horizon = 19
    bits1 = [0] * horizon
    bits1[4] = bits1[6] = 1
    bits2 = [0] * horizon
    bits2[5] = bits2[7] = 1  # two erasures in one window: beyond N2=1
    messages = episode_messages(p, horizon, seed=47)
    filed = {}
    dest = run_pipeline(p, bits1, bits2, messages, filed=filed)

    assert dest.try_decode(4) is FAILED  # symbol starvation
    assert dest.try_decode(6) is FAILED  # dependency propagation
    # message 6's own symbols would have sufficed: the generic oracle
    # recovers it once message 4's value is supplied out of band
    truth = {t: messages[t] for t in range(horizon)}
    plan6 = dest.plan(6)
    assert plan6 is not None
    assert oracle_decode(p, plan6, filed[6], truth) == messages[6]
    # messages clear of both failures still decode
    assert dest.try_decode(10) == messages[10]


def _decode_both_ways(p, bits1, bits2, messages, header_mode):
    """Feed one relay's packets to two decoders: one attempts every pending
    message on every slot, the other is driven by ``finalize``.  Returns the
    (outcome, decode slot) per message of the first, the list of ``(t,
    (outcome, decode slot))`` that ``finalize`` yielded, and the two
    decoders."""
    horizon = len(bits1)
    relay = RelayState(p, header_mode=header_mode)

    def decoder():
        if header_mode:
            return DecoderState(p, header_mode=True)
        return DecoderState(p, e1_bits=bits1)

    polled, driven = decoder(), decoder()
    seen = {"polled": {}, "driven": []}
    pending = []
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        rp = relay.emit(s)
        wire = None if bits2[s] else rp.wire_symbols()
        polled.ingest(s, wire)
        driven.ingest(s, wire)
        pending.append(s)
        for t in pending:
            r = polled.try_decode(t, now=s)
            if r != "pending":
                seen["polled"][t] = (r, s)
        pending = [t for t in pending if t not in seen["polled"]]
        for t, r in driven.finalize(s):
            seen["driven"].append((t, (r, s)))
    return seen["polled"], seen["driven"], polled, driven


@pytest.mark.parametrize(
    "p", [P523, P623, SchemeParams(7, 3, 1, 1), SchemeParams(12, 3, 4, 1)]
)
@pytest.mark.parametrize("header_mode", [False, True])
def test_event_driven_decoding_matches_polling(p, header_mode):
    """Finalizing by ``finalize``'s scan finalizes every message with the
    same outcome in the same slot as attempting all of them, including losses
    through dependencies and past deadlines (i.i.d. loss, often inadmissible);
    it yields each message once and retires it.  A message polled to its
    outcome is retired too, so the polled decoder's live store ends with no
    final message and at most the T+1 of the last window.  At (12,3,4,1),
    k'=6, the dependency chains are the deepest."""
    horizon = 40
    messages = episode_messages(p, horizon, seed=53)
    failed = decoded = 0
    for seed in range(8):
        rng = np.random.default_rng([seed, p.T, header_mode])
        bits1 = (rng.random(horizon) < 0.2).astype(int).tolist()
        bits2 = (rng.random(horizon) < 0.25).astype(int).tolist()
        polled, driven, polled_dest, dest = _decode_both_ways(
            p, bits1, bits2, messages, header_mode
        )
        assert driven == list(polled.items()), (bits1, bits2)
        assert len({t for t, _ in driven}) == len(driven)
        assert all(t not in dest.msgs and t in dest.outcomes for t, _ in driven)
        assert not polled_dest.msgs.keys() & polled_dest.outcomes.keys(), (bits1, bits2)
        assert len(polled_dest.msgs) <= p.T + 1, (bits1, bits2)
        failed += sum(r is FAILED for r, _ in polled.values())
        decoded += sum(r is not FAILED for r, _ in polled.values())
    assert failed and decoded
