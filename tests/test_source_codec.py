"""First-hop codec and the relay-side estimate ledger.

The main oracles here are value-level and independent of the implementation:
every diagonal of the emitted packet stream must be a codeword of the layer
MDS code, and every estimate the plan places, valued by the ledger, must
equal the target symbol plus its declared interference terms when evaluated
against the ground-truth messages.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import plan_reference
from codec_reference import estimates_available, make_codes
from relaystream.dest_codec import interference_terms
from relaystream.erasure_channel import enumerate_admissible, pattern_from_bits
from relaystream.field_mds import DimensionMismatch
from relaystream.relay_codec import build_message_plan
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params
from relaystream.source_codec import (
    EpisodeMessages,
    ErasedKnownTerm,
    EstimateLedger,
    OutOfOrder,
    SourcePacket,
    emission_coefficients,
    encode_source,
    relay_recovery_slot,
)

P523 = SchemeParams(5, 2, 3, 0)
P623 = SchemeParams(6, 2, 3, 1)
P7313 = SchemeParams(7, 3, 1, 1)


def random_history(p, horizon, seed=0):
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(seed)
    return [list(map(int, rng.integers(0, field.q, d.k_src))) for _ in range(horizon)]


def encode_stream(p, history):
    return [encode_source(p, history, t) for t in range(len(history))]


@pytest.mark.parametrize("p", [P523, P623, P7313])
def test_packet_shape(p):
    d = derive_dims(p)
    history = random_history(p, 6, seed=1)
    pkt = encode_stream(p, history)[-1]
    assert len(pkt.rows) == d.l_prime
    assert all(len(row) == d.n_prime for row in pkt.rows)
    assert sum(map(len, pkt.rows)) == d.n1
    # systematic prefix carries the current message verbatim
    for c in range(d.l_prime):
        assert list(pkt.rows[c][: d.k_prime]) == history[-1][c * d.k_prime : (c + 1) * d.k_prime]


@pytest.mark.parametrize("p", [P523, P623, P7313])
def test_every_diagonal_is_a_codeword(p):
    """Packet (u+q, row c, pos q) for q < k' plus parities at (u+k'+m, k'+m)
    must form the layer code's codeword of the diagonal message."""
    d = derive_dims(p)
    field, code = make_codes(p)
    horizon = 3 * (p.T + 1)
    history = random_history(p, horizon, seed=2)
    packets = encode_stream(p, history)
    for u in range(0, horizon - d.n_prime):
        for c in range(d.l_prime):
            msg = [history[u + q][c * d.k_prime + q] for q in range(d.k_prime)]
            word = [packets[u + q].rows[c][q] for q in range(d.k_prime)]
            word += [
                packets[u + d.k_prime + m].rows[c][d.k_prime + m] for m in range(p.N1)
            ]
            assert word == code.encode(msg), (u, c)


def test_early_packets_use_zero_history():
    p = P523
    history = random_history(p, 1, seed=3)
    pkt = encode_source(p, history, 0)
    # parities at t=0 combine only negative-time (all-zero) messages
    for row in pkt.rows:
        assert all(v == 0 for v in row[1:])


def test_encode_validates_message_length():
    with pytest.raises(DimensionMismatch):
        encode_source(P523, [[1, 2]], 0)
    with pytest.raises(DimensionMismatch):
        encode_source(P523, [], 0)


@pytest.mark.parametrize("p", [P523, SchemeParams(7, 2, 3, 0)], ids=["GF7", "GF8"])
def test_encode_rejects_symbols_outside_the_field(p):
    """A message symbol of -1, q or a float -- 2.0 among them -- raises
    ``ValueError`` from a list of messages and from ``EpisodeMessages``,
    whose check covers the block it encodes; 0 and q-1 encode."""
    q = make_codes(p)[0].q
    k_src = derive_dims(p).k_src
    edge = [[0] * k_src, [q - 1] * k_src]
    assert encode_source(p, edge, 1) == encode_source(p, EpisodeMessages(np.array(edge)), 1)
    for bad in (-1, q, 2.5, 2.0):
        messages = [[1] * k_src for _ in range(6)]
        messages[3][k_src - 1] = bad
        with pytest.raises(ValueError, match=r"not an int in \[0, "):
            encode_source(p, messages, 3)
        with pytest.raises(ValueError, match=r"not an int in \[0, "):
            encode_source(p, EpisodeMessages(np.array(messages)), 0)


def ingest_pattern(p, history, bits):
    packets = encode_stream(p, history)
    ledger = EstimateLedger(p)
    for s, b in enumerate(bits):
        ledger.ingest(s, None if b else packets[s])
    return ledger, packets


def recovery_oracle(p, bits, t):
    """Brute-force per-diagonal MDS solvability: message t is known at the
    first slot where, on every diagonal through it, received symbols reach k'."""
    d = derive_dims(p)
    if not bits[t]:
        return t
    horizon = len(bits)

    def known_at(slot):
        for pos in range(d.k_prime):
            u = t - pos
            have = 0
            for q in range(d.k_prime):
                s = u + q
                if s < 0 or (s <= slot and s < horizon and not bits[s]):
                    have += 1
            for m in range(p.N1):
                s = u + d.k_prime + m
                if 0 <= s <= slot and s < horizon and not bits[s]:
                    have += 1
            if have < d.k_prime:
                return False
        return True

    return next((s for s in range(t, horizon) if known_at(s)), None)


@pytest.mark.parametrize("p", [P523, P623, P7313])
def test_relay_recovery_slot_matches_oracle(p):
    """The rule read from the pattern's bytes, and the reference copy read
    through a lookup, both give the brute-force oracle's slot."""
    horizon = 2 * (p.T + 1)
    for bits in enumerate_admissible(p.T, p.N1, horizon):
        look = lambda s: 0 <= s < horizon and bits[s] == 1
        for t in range(horizon - p.T):
            want = recovery_oracle(p, bits, t)
            assert relay_recovery_slot(p, bytes(bits), t) == want, (bits, t)
            assert plan_reference.relay_recovery_slot(p, look, t) == want, (bits, t)


def test_recovery_slot_burst_example():
    # back-to-back erasures at slots 1 and 2: both messages known by slot 3
    window = bytes([0, 1, 1, 0, 0, 0, 0, 0])
    assert relay_recovery_slot(P523, window, 1) == 3
    assert relay_recovery_slot(P523, window, 2) == 3
    assert relay_recovery_slot(P523, window, 0) == 0  # received at its own slot


def test_recovery_none_when_diagonal_starved():
    # every parity slot of the diagonal erased too -> unrecoverable
    assert relay_recovery_slot(P523, bytes([1, 1, 1, 0, 0]), 0) is None


def ground_truth_value(p, field, history, em, layer):
    """Evaluate the estimate's defining identity against the true messages:
    the target symbol plus the interference the destination will cancel."""
    val = history[em.t][layer * derive_dims(p).k_prime + em.pos]
    for t2, flat2, coeff in interference_terms(p, em, layer):
        val = field.add(val, field.mul(coeff, history[t2][flat2]))
    return val


def at_slot(erased, now):
    """The first-hop lookup as seen once slot ``now`` was ingested."""
    return lambda s: s > now or erased(s)


@pytest.mark.parametrize("p", [P523, P623])
def test_estimates_sound_under_all_admissible_patterns(p):
    """Each estimate the plan places, valued by the ledger after the whole
    stream was ingested, equals its target symbol plus the interference
    declared at the estimate's own slot."""
    d = derive_dims(p)
    field, _ = make_codes(p)
    horizon = 2 * (p.T + 1)
    history = random_history(p, horizon, seed=5)
    for pat in enumerate_admissible(p.T, p.N1, horizon):
        ledger, _ = ingest_pattern(p, history, pat)
        for t in range(horizon):
            plan = build_message_plan(p, ledger.erased, t)
            flats = [c * d.k_prime + em.pos for em in plan.emissions for c in range(d.l_prime)]
            assert len(set(flats)) == len(flats)  # no duplicate targets
            for em in plan.emissions:
                own = build_message_plan(p, at_slot(ledger.erased, em.slot), t)
                placed = next(e for e in own.emissions if e.pos == em.pos)
                assert placed == em  # interference fixed at the estimate's slot
                values = ledger.estimate(em)
                for c in range(d.l_prime):
                    assert values[c] == ground_truth_value(p, field, history, em, c), (
                        pat,
                        t,
                        em,
                    )


def engine_available(p, erased, t, now):
    """Symbols of message t the relay holds once slot ``now`` was ingested,
    counted from the plan the relay sees at that slot."""
    d = derive_dims(p)
    plan = build_message_plan(p, at_slot(erased, now), t)
    if not plan.erased:
        return plan.n_tx if now >= t else 0
    return d.l_prime * len(plan.shape.emissions)


def test_estimate_counts_match_closed_form():
    p = P623
    horizon = 2 * (p.T + 1)
    history = random_history(p, horizon, seed=6)
    for pat in enumerate_admissible(p.T, p.N1, horizon):
        ledger, _ = ingest_pattern(p, history, pat)
        for t in range(horizon - p.T):
            for now in range(t, horizon):
                assert engine_available(p, ledger.erased, t, now) == estimates_available(
                    ledger, t, now
                ), (pat, t, now)


def test_full_estimate_set_for_erased_message():
    # an erased message eventually yields exactly k_src estimates
    p = P623
    d = derive_dims(p)
    horizon = p.T + 3
    history = random_history(p, horizon, seed=7)
    bits = [0] * horizon
    bits[4] = 1
    ledger, _ = ingest_pattern(p, history, bits)
    plan = build_message_plan(p, ledger.erased, 4)
    values = {
        c * d.k_prime + em.pos: v for em in plan.emissions for c, v in enumerate(ledger.estimate(em))
    }
    assert len(plan.emissions) * d.l_prime == d.k_src
    assert sorted(values) == list(range(d.k_src))
    # isolated erasure, all neighbours received: no interference anywhere,
    # so every estimate is the symbol itself
    assert all(not em.interference for em in plan.emissions)
    assert values == dict(enumerate(history[4]))


def test_interference_only_on_unresolved_messages():
    p = P623
    horizon = 2 * (p.T + 1)
    history = random_history(p, horizon, seed=8)
    for bits in enumerate_admissible(p.T, p.N1, horizon):
        ledger, _ = ingest_pattern(p, history, bits)
        for t in range(horizon):
            for em in build_message_plan(p, ledger.erased, t).emissions:
                for t2, _pos in em.interference:
                    ready = relay_recovery_slot(p, bytes(bits), t2)
                    assert ready is None or ready > em.slot


def test_no_estimate_subtracts_a_term_of_an_erased_message():
    """Every leftover position of an emission's combination is either kept
    as interference or lies on a message the first hop delivered, so the
    relay never has to recover an erased message to value an estimate.
    Seeded i.i.d. patterns at eps 0.2/0.4/0.6 (inadmissible ones included)
    on every set of all_valid_params(6)."""
    known = kept = 0
    for p in all_valid_params(6):
        field, code = make_codes(p)
        horizon = 200
        for eps in (0.2, 0.4, 0.6):
            rng = np.random.default_rng([73, p.T, p.N1, p.N2, p.j, round(10 * eps)])
            bits = [int(b) for b in rng.random(horizon) < eps]
            look = lambda s: 0 <= s < horizon and bits[s] == 1
            for t in range(horizon):
                for em in build_message_plan(p, look, t).emissions:
                    _, mu = emission_coefficients(field, code, em)
                    inter = {q for _, q in em.interference}
                    u = t - em.pos
                    for q in mu:
                        if u + q < 0 or q in inter:
                            kept += q in inter
                            continue
                        assert not look(u + q), (p, bits, t, em)
                        known += 1
    assert known > 30_000 and kept > 10_000


def test_a_known_term_of_an_erased_message_raises():
    """The ledger values only received terms: an emission stripped of the
    interference its plan keeps would need an erased message's symbol."""
    p = P623
    horizon = 12
    history = random_history(p, horizon, seed=10)
    bits = [0] * horizon
    bits[3] = bits[4] = 1
    ledger, _ = ingest_pattern(p, history, bits)
    em = next(em for em in build_message_plan(p, ledger.erased, 4).emissions if em.interference)
    ledger.estimate(em)
    with pytest.raises(ErasedKnownTerm):
        ledger.estimate(dataclasses.replace(em, interference=()))


def test_ingest_order_is_enforced():
    p = P523
    history = random_history(p, 3, seed=9)
    packets = encode_stream(p, history)
    ledger = EstimateLedger(p)
    ledger.ingest(0, packets[0])
    with pytest.raises(OutOfOrder):
        ledger.ingest(2, packets[2])  # skipped slot 1
    with pytest.raises(OutOfOrder):
        ledger.ingest(1, packets[2])  # stamp mismatch


class CountingHistory(list):
    """A history that counts how many messages the encoder reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@pytest.mark.parametrize("p", [P523, P7313])
def test_encode_reads_a_bounded_window_of_history(p):
    """The packet at time t reads only s_i for i in [t-k'-N1+1, t], so its
    cost must not grow with the length of the history."""
    reads = []
    for horizon in (20, 200, 2000):
        history = CountingHistory(random_history(p, horizon, seed=horizon))
        pkt = encode_source(p, history, horizon - 1)
        reads.append(history.reads)
        assert pkt == encode_source(p, list(history), horizon - 1)
    assert reads[0] == reads[1] == reads[2]


def test_encode_validates_messages_the_packet_reads():
    p = P523
    d = derive_dims(p)
    history = random_history(p, 30, seed=5)
    oldest = len(history) - 1 - d.k_prime - p.N1 + 1
    for i in (oldest, len(history) - 2, len(history) - 1):
        bad = [list(m) for m in history]
        bad[i] = bad[i][:-1]
        with pytest.raises(DimensionMismatch):
            encode_source(p, bad, len(bad) - 1)
