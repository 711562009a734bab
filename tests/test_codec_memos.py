"""The codec's compiled structure against the rules it is compiled from.

The relay and the destination pass their first-hop pattern whole to
``build_message_plan``, which keys the plan by one slice of it; the ledger
values an estimate by an emission program memoized on the emission's
structure, and the destination cancels interference through the kept terms
of the same program.  Each is checked against the uncompiled rule: the
callable-keyed plan, the lambda/mu valuation of
``codec_reference.estimate_reference`` and ``interference_terms``; the
program of every structural key is checked against ``emission_coefficients``
and ``interference_terms``.  The two encoders run programs compiled into the
same store entry: the source's diagonal program and the relay's parity
programs, checked against ``encode_source_reference`` (the first at the
edges of its blocks too, ``source_blocks``) and
``build_parity_groups_reference``.  The destination's second-hop decode
runs programs compiled into the entry too, checked against
``queue_reference``.  Each plan shape holds its second-hop programs, the
parity program and a received message's gather and scatter, checked against
the per-symbol references (``shape_programs``).  The memos are bounded by
the layer code or the codeword layouts, not by the stream.
"""

import itertools
from math import comb

import numpy as np
import pytest

from codec_reference import (
    build_parity_groups_reference,
    encode_source_reference,
    estimate_reference,
    make_codes,
)
from decode_programs import check_bound, check_sets
from shape_programs import check_sets as check_shapes
from source_blocks import check_sets as check_blocks
from relaystream import dest_codec, relay_codec, sim_harness, source_codec
from relaystream.dest_codec import DecoderState, interference_terms
from relaystream.relay_codec import RelayState, build_message_plan
from relaystream.scheme_params import SchemeParams, derive_dims, implemented_field_size
from relaystream.sim_harness import all_valid_params, run_episode
from relaystream.source_codec import (
    EstimateLedger,
    PosEmission,
    emission_coefficients,
    encode_source,
)

P12 = SchemeParams(12, 3, 4, 1)
P7220 = SchemeParams(7, 2, 2, 0)


def random_bits(rng, n, p_erase):
    return [int(b) for b in rng.random(n) < p_erase]


def clear_memos(p):
    source_codec._entry(p).programs.clear()


def test_programs_and_term_lists_match_the_reference(monkeypatch):
    """Seeded i.i.d. streams at eps 0.2 and 0.4 on both hops over
    all_valid_params(6), oracle and header mode, from memos cleared before
    each set: every estimate the relay values equals the lambda/mu
    valuation, and the kept terms of every program the decoder's
    cancellation reads equal interference_terms for each layer, shifted by
    t.  The relay values an emission before the decoder cancels it, so the
    decoder's reads all hit.  The first stream of a set compiles (cold),
    the later ones mostly reuse (warm)."""
    real_estimate, real_program = EstimateLedger.estimate, dest_codec._emission_program
    counts = dict.fromkeys(("estimates", "programs", "kept reads", "first reads"), 0)
    seen = set()

    def estimate(self, em):
        cold = len(self._entry.programs)
        got = real_estimate(self, em)
        assert got == estimate_reference(self, em), em
        counts["estimates"] += 1
        counts["programs"] += len(self._entry.programs) > cold
        return got

    def program(p, entry, em):
        cold = len(entry.programs)
        got = real_program(p, entry, em)
        assert len(entry.programs) == cold, em  # the relay compiled it first
        d, mul = derive_dims(p), entry.field.MUL
        for layer in range(d.l_prime):
            want = [
                (mul[coeff], t2 - em.t, flat - layer * d.k_prime)
                for t2, flat, coeff in interference_terms(p, em, layer)
            ]
            assert list(got[2]) == want, (em, layer)
        key = (p, source_codec._structure_key(em))
        counts["kept reads"] += 1
        counts["first reads"] += key not in seen
        seen.add(key)
        return got

    monkeypatch.setattr(EstimateLedger, "estimate", estimate)
    monkeypatch.setattr(dest_codec, "_emission_program", program)
    for idx, p in enumerate(all_valid_params(6)):
        clear_memos(p)
        horizon = 6 * (p.T + 1)
        rng = np.random.default_rng([61, idx])
        for p_erase in (0.2, 0.4):
            e1, e2 = random_bits(rng, horizon, p_erase), random_bits(rng, horizon, p_erase)
            for header_mode in (False, True):
                run_episode(p, e1, e2, horizon, seed=idx, header_mode=header_mode)
    # cold lookups compile, warm ones reuse
    assert 0 < counts["programs"] < counts["estimates"] // 4, counts
    assert 0 < counts["first reads"] < counts["kept reads"] // 4, counts


def drive(p, bits1, known, seed):
    """Relay (header mode) over ``bits1`` with a clean second hop into three
    decoders: oracle, oracle given only the first ``known`` bits (the rest
    of ``bits1`` must be clean) and header mode.  At every slot, the relay's
    byte key of every message in flight, as its ledger masks it, gives the
    shape the ledger's callable gives.  Returns the decoders, the messages
    and how many masked keys were checked."""
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(seed)
    relay = RelayState(p, header_mode=True)
    ledger = relay.ledger
    dests = [
        DecoderState(p, e1_bits=bits1),
        DecoderState(p, e1_bits=bits1[:known]),
        DecoderState(p),
    ]
    messages, masked = [], 0
    for s, b in enumerate(bits1):
        messages.append([int(x) for x in rng.integers(0, field.q, d.k_src)])
        relay.ingest_source(s, None if b else encode_source(p, messages, s))
        for t in range(max(0, s - p.T), s + 1):
            keyed = build_message_plan(p, ledger.pattern, t)
            assert keyed.shape is build_message_plan(p, ledger.erased, t).shape, (s, t)
            masked += s < t + p.T - p.N2
        packet = relay.emit(s)
        wire = packet.wire_symbols()
        for dest in dests:
            dest.ingest(s, wire if dest.header_mode else wire[len(packet.header) :])
            list(dest.finalize(s))
    return dests, messages, masked


@pytest.mark.parametrize("p", [P12, P7220])
def test_byte_keys_give_the_shapes_of_the_callable(p):
    """Seeded i.i.d. first hops: the relay's byte keys at every slot, and
    every message's plan at the oracle, short-oracle and header-mode
    decoders -- messages t < 2(k'-1) included, whose interference reads
    slots before 0 -- are the very shape objects the callable form gives."""
    horizon, known = 240, 150
    masked = plans = 0
    for seed, p_erase in ((71, 0.1), (72, 0.3)):
        bits1 = random_bits(np.random.default_rng(seed), horizon, p_erase)
        bits1[known:] = [0] * (horizon - known)
        dests, messages, n = drive(p, bits1, known, seed)
        masked += n
        for dest in dests:
            # a header-mode plan needs the bits of [t, t+T-N2] delivered
            for t in range(horizon - (p.T - p.N2)):
                plan = dest.plan(t)
                assert plan.shape is build_message_plan(p, dest.pattern.erased, t).shape, (t, dest)
                plans += 1
        full, short, header = dests
        for t in range(horizon - p.T):
            want = full.try_decode(t)
            assert want == messages[t] or bits1[t], t  # a received message decodes
            assert short.try_decode(t) == want == header.try_decode(t), t
    assert masked > 1000 and plans > 1000


def header_covered(p, bits2, x):
    """Whether a header of slot x reached the destination: a relay slot in
    [x, x+T] that hop 2 did not erase."""
    return any(not bits2[s] for s in range(max(x, 0), min(x + p.T + 1, len(bits2))))


def first_hop_owner(rule, p, bits1, bits2):
    """The owner of the pattern ``rule`` names after slots 0 .. len(bits1)-1,
    and the bit that pattern must give slot x >= 0.  The relay has ingested
    hop 1 only and the oracle decoder is given it.  The header-mode decoder
    has ingested a relay's packets over ``bits2``: a slot no header has
    covered reads erased."""
    end = len(bits1)
    if rule == "oracle":
        return DecoderState(p, e1_bits=bits1), lambda x: x < end and bits1[x] == 1
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(end)
    relay = RelayState(p, header_mode=True)
    dest = DecoderState(p)
    messages = []
    for s, b in enumerate(bits1):
        messages.append([int(x) for x in rng.integers(0, field.q, d.k_src)])
        relay.ingest_source(s, None if b else encode_source(p, messages, s))
        wire = relay.emit(s).wire_symbols()
        dest.ingest(s, None if bits2[s] else wire)
    if rule == "relay":
        return relay.ledger, lambda x: x >= end or bits1[x] == 1
    return dest, lambda x: not header_covered(p, bits2, x) or bits1[x] == 1


@pytest.mark.parametrize("rule", ["relay", "oracle", "header"])
def test_first_hop_reads_past_its_end_by_its_owners_rule(rule):
    """Seeded (5,2,3,0) and (12,3,4,1) episodes, hop 2 with a burst longer
    than T+1: at every slot in [-3T, end+T] the pattern's ``erased``, the
    pattern called and a one-slot ``slice`` agree with the owner's rule --
    clean before 0, however far back; past the end erased at the relay,
    clean at the oracle and unseen in header mode, where an uncovered slot
    reads erased and leaves ``plan`` None.  Every slice of T+1 slots or of
    a plan window's 2(k'-1)+T-N2+1, from every lo in [-3T, end], is the
    slots' bits.  ``known`` over every plan window, from t = -T on, says
    whether each of its slots is covered: always at the relay and the
    oracle, and in header mode unless the window meets the burst's gap or
    a slot past the last header.  The pattern passed whole gives the very
    shape its lookup gives, cold (the store entry dropped) and warm."""
    for p, seed in ((SchemeParams(5, 2, 3, 0), 91), (P12, 92)):
        rng = np.random.default_rng(seed)
        horizon = 90
        bits1 = random_bits(rng, horizon, 0.15)
        bits2 = random_bits(rng, horizon, 0.1)
        bits2[30 : 30 + p.T + 3] = [1] * (p.T + 3)
        owner, want = first_hop_owner(rule, p, bits1, bits2)
        pattern = owner.pattern
        width = 2 * (derive_dims(p).k_prime - 1) + p.T - p.N2 + 1
        slots = range(-3 * p.T, horizon + max(p.T + 1, width))
        bit = {x: x >= 0 and want(x) for x in slots}
        for x in slots:
            assert pattern.erased(x) == pattern(x) == bit[x], (p, x)
            assert pattern.slice(x, 1) == bytes((bit[x],)), (p, x)
        for x in range(-3 * p.T, horizon + 1):
            for n in (p.T + 1, width):
                assert pattern.slice(x, n) == bytes(bit[y] for y in range(x, x + n)), (p, x, n)
        lag = 2 * (derive_dims(p).k_prime - 1)

        def covered(x):
            return rule != "header" or x < 0 or header_covered(p, bits2, x)

        assert covered(32) == (rule != "header"), p  # the burst left a gap
        for t in range(-p.T, horizon + 1):
            window = range(t - lag, t + p.T - p.N2 + 1)
            ready = all(covered(x) for x in window)
            assert pattern.known(window[0], window[-1]) == ready, (p, t)
            if rule != "relay" and t >= 0:
                assert (owner.plan(t) is not None) == ready, (p, t)
        for pattern_first in (True, False):
            source_codec._STORE.pop(p, None)
            for _warm in range(2):
                for t in range(horizon + p.T):
                    pair = [pattern, pattern.erased][:: 1 if pattern_first else -1]
                    a, b = (build_message_plan(p, fn, t).shape for fn in pair)
                    assert a is b, (p, t, pattern_first)


def structural_keys(p):
    """Every (pos, parity_rows, late, kept) an emission of ``p`` can have:
    late a subset of the positions after pos, parity_rows len(late)+1 of
    the N1 rows in arrival order, kept a subset of the positions before
    pos."""
    k = derive_dims(p).k_prime
    for pos in range(k):
        for n_late in range(min(k - 1 - pos, p.N1 - 1) + 1):
            for late in itertools.combinations(range(pos + 1, k), n_late):
                for rows in itertools.combinations(range(p.N1), n_late + 1):
                    for n_kept in range(pos + 1):
                        for kept in itertools.combinations(range(pos), n_kept):
                            yield pos, rows, late, kept


def test_program_and_term_memos_are_bounded_by_the_code():
    """The two 5000-slot (12,3,4,1) i.i.d. streams at eps=0.15 of
    test_plan_memo_is_bounded_by_the_window, run through the codec: the
    program memo, which the relay's estimates and the decoder's
    cancellation share, holds only structural keys, so it stays under the
    count of (pos, parity_rows, late) combinations times the kept subsets,
    after one stream and after both."""
    p = P12
    d = derive_dims(p)
    keys = set(structural_keys(p))
    cap = sum(
        comb(d.k_prime - 1 - pos, a) * comb(p.N1, a + 1) * 2**pos
        for pos in range(d.k_prime)
        for a in range(p.N1)
    )
    assert len(keys) == cap
    clear_memos(p)
    sizes = []
    for seed in (41, 42):
        bits = random_bits(np.random.default_rng(seed), 5000, 0.15)
        run_episode(p, bits, [0] * len(bits), len(bits), seed=seed)
        programs = source_codec._STORE[p].programs
        assert programs.keys() <= keys
        sizes.append(len(programs))
    assert all(0 < n <= cap for n in sizes), (sizes, cap)


# extension fields: q = 4 (T = 3, in all_valid_params(6)), 8 (7,2,2,0), 9 (8,2,3,0)
# and 27 (26,2,16,0)
ENCODER_SETS = [*all_valid_params(6), P12, P7220, SchemeParams(8, 2, 3, 0), SchemeParams(26, 2, 16, 0)]


def test_every_structural_key_compiles_to_its_rules():
    """Every key of ``structural_keys`` over all_valid_params(6),
    (12,3,4,1) and sets over GF(8), GF(9) and GF(27), each compiled from a
    cleared memo: the program's parities are lambda of
    ``emission_coefficients`` (MUL row, packet offset, column), its kept
    terms are ``interference_terms`` of layer 0 in offsets from t, and its
    known and kept terms are disjoint and together are mu's support, with
    mu's coefficients.  Unlike the seeded streams, this sees keys no
    stream reaches."""
    for p in ENCODER_SETS:
        clear_memos(p)
        entry, k = source_codec._entry(p), derive_dims(p).k_prime
        mul, t = entry.field.MUL, k - 1
        for n, (pos, rows, late, kept) in enumerate(structural_keys(p), 1):
            em = PosEmission(t, pos, t + 1, rows, late, tuple((t - pos + q, q) for q in kept))
            parities, known, kept_terms = source_codec._emission_program(p, entry, em)
            assert len(entry.programs) == n, (p, em)  # a miss compiled it
            lam, mu = emission_coefficients(entry.field, entry.code, em)
            assert parities == tuple((mul[c], k + m - pos, k + m) for c, m in zip(lam, rows))
            assert list(kept_terms) == [
                (mul[coeff], t2 - t, flat) for t2, flat, coeff in interference_terms(p, em, 0)
            ], (p, em)
            terms = {q: (row[1], off) for row, off, q in known + kept_terms}
            assert len(terms) == len(known) + len(kept_terms), (p, em)
            assert terms == {q: (coeff, q - pos) for q, coeff in mu.items()}, (p, em)


def test_compiled_encoders_match_the_reference(monkeypatch):
    """Seeded i.i.d. streams at eps 0.2 and 0.45 on both hops, oracle and
    header mode, over all_valid_params(6), (12,3,4,1) and sets over GF(8),
    GF(9) and GF(27): every source packet equals the per-call diagonal
    list's, slots t < k'+N1-1 (whose diagonals reach before time 0)
    included, and every message's parities equal the zero-padded
    ``MdsCode.encode`` of each codeword, grouped plans whose last codeword
    falls short of k included.  The store entry of each set is dropped
    first.  A parity program is compiled with the first shape of its
    codeword layout (cold), and every plan's shape holds the program its
    entry keeps for that layout, so the distinct programs the messages run
    are far fewer than the messages (warm).  The relay makes no parity ride
    at N2 = 0, so a set with N2 = 0 is checked by a direct call, on an
    erased (grouped) and a received plan: it has no parity rows."""
    real_encode, real_parities = sim_harness.encode_source, relay_codec.build_parity_groups
    counts = dict.fromkeys(("packets", "early", "messages", "padded", "compiled"), 0)

    def encode(p, messages, t):
        got = real_encode(p, messages, t)
        assert got == encode_source_reference(p, messages, t), (p, t)
        counts["packets"] += 1
        counts["early"] += t < derive_dims(p).k_prime + p.N1 - 1
        return got

    programs = {}  # id -> every distinct program run, held so no id is reused

    def parities(p, plan, values):
        got = real_parities(p, plan, values)
        assert got == build_parity_groups_reference(p, plan, values), (p, plan.t)
        codewords, program = plan.shape.codewords, plan.shape.parity
        assert program is source_codec._entry(p).parity_programs[codewords], (p, plan.t)
        counts["messages"] += 1
        counts["padded"] += plan.shape.schedule.grouped and len(codewords[-1][2]) < codewords[-1][1]
        counts["compiled"] += id(program) not in programs
        programs[id(program)] = program
        return got

    monkeypatch.setattr(sim_harness, "encode_source", encode)
    monkeypatch.setattr(relay_codec, "build_parity_groups", parities)
    fields = set()
    for idx, p in enumerate(ENCODER_SETS):
        source_codec._STORE.pop(p, None)
        fields.add(implemented_field_size(p))
        horizon = 4 * (p.T + 1)
        rng = np.random.default_rng([67, idx])
        for p_erase in (0.2, 0.45):
            e1, e2 = random_bits(rng, horizon, p_erase), random_bits(rng, horizon, p_erase)
            for header_mode in (False, True):
                run_episode(p, e1, e2, horizon, seed=idx, header_mode=header_mode)
    assert {4, 8, 9, 27} <= fields
    assert counts["early"] > 0 and counts["padded"] > 0, counts
    # cold lookups compile, warm ones reuse
    assert 0 < counts["compiled"] < counts["messages"] // 4, counts
    p = SchemeParams(5, 2, 0, 0)
    for erased in (True, False):
        plan = build_message_plan(p, lambda s: erased and s == 0, 0)
        values = [1] * plan.n_tx
        got = real_parities(p, plan, values)
        assert got.rows == () and got == build_parity_groups_reference(p, plan, values), erased


def test_shape_programs_match_the_per_symbol_references():
    """``shape_programs.check_sets`` over all_valid_params(6), (12,3,4,1)
    and the GF(8), GF(9) and GF(27) sets of ENCODER_SETS: every shape's
    parity program gives ``build_parity_groups_reference``'s rows and is
    its entry's program for the shape's codeword layout, and every received
    shape's gather and scatter give the per-symbol reads; an erased shape
    has neither."""
    counts = check_shapes(ENCODER_SETS)
    assert {4, 8, 9, 27} <= counts["fields"], counts
    assert 0 < counts["received"] < counts["shapes"], counts
    assert counts["sets"] <= counts["programs"] < counts["shapes"], counts


def test_block_encoder_matches_the_reference_at_the_block_edges(monkeypatch):
    """``source_blocks.check_sets`` over all_valid_params(4), (12,3,4,1)
    and the GF(8), GF(9) and GF(27) sets of ENCODER_SETS: horizons 1, B-1,
    B, B+1 and 3B+5, slots asked for in ascending, sparse and random order,
    slots t < k'+N1-1 included, every packet equal to the reference's and
    every symbol a Python int.  Then one episode per set at eps 0.3 on both
    hops: every symbol that reaches the relay is a Python int."""
    extension = [p for p in ENCODER_SETS if implemented_field_size(p) in (8, 9, 27)]
    sets = [*all_valid_params(4), P12, *extension]
    counts = check_blocks(sets)
    assert counts["sets"] == len(sets) and counts["early"] > 0, counts
    assert {"GF(8)", "GF(9)", "GF(27)"} <= set(counts), counts

    real_ingest = RelayState.ingest_source
    seen = []

    def ingest_source(self, slot, packet):
        if packet is not None:
            assert all(type(sym) is int for row in packet.rows for sym in row), (self.params, slot)
            seen.append(slot)
        return real_ingest(self, slot, packet)

    monkeypatch.setattr(RelayState, "ingest_source", ingest_source)
    rng = np.random.default_rng(71)
    horizon = source_codec._BLOCK + 1
    for p in (P12, *extension):
        e1, e2 = random_bits(rng, horizon, 0.3), random_bits(rng, horizon, 0.3)
        run_episode(p, e1, e2, horizon, seed=3)
    assert len(seen) > len(extension) * horizon // 2, len(seen)


def codeword_layouts(p):
    """Every codeword layout a plan of ``p`` can have: adaptive or grouped,
    over the first ``end`` queue items for each end in [0, k_src]."""
    d = derive_dims(p)
    out = set()
    for n_code, k_code, step in ((d.n_dprime, d.k_dprime, d.l_dprime),
                                 (p.T + 1 - p.N1, d.l_dprime, d.k_dprime)):
        for end in range(k_code * step + 1):
            out.add(tuple((n_code, k_code, tuple(range(c, end, step))) for c in range(step)))
    return out


@pytest.mark.parametrize("p", [P12, P7220])
def test_parity_programs_are_bounded_by_the_layouts(p):
    """Two 1500-slot i.i.d. streams at eps=0.3 on the first hop, from a
    dropped store entry: the parity programs are keyed by codeword layouts
    only, so after one stream and after both they stay under the
    2(k_src+1) layouts a plan can have."""
    layouts = codeword_layouts(p)
    cap = 2 * (derive_dims(p).k_src + 1)
    assert len(layouts) <= cap
    source_codec._STORE.pop(p, None)
    sizes = []
    for seed in (43, 44):
        bits = random_bits(np.random.default_rng(seed), 1500, 0.3)
        run_episode(p, bits, [0] * len(bits), len(bits), seed=seed)
        programs = source_codec._STORE[p].parity_programs
        assert programs.keys() <= layouts
        sizes.append(len(programs))
    assert 1 < sizes[0] <= sizes[1] <= cap, (sizes, cap)


# extension fields as for the encoders; (7,2,3,0) is GF(8)'s set here
DECODE_SETS = [*all_valid_params(6), P12, SchemeParams(7, 2, 3, 0), SchemeParams(8, 2, 3, 0),
               SchemeParams(26, 2, 16, 0)]


def test_decode_programs_match_the_reference():
    """``decode_programs.check_sets`` over all_valid_params(6), (12,3,4,1)
    and sets over GF(8), GF(9) and GF(27), in one process: every
    ``DecoderState._queue`` call of seeded i.i.d. streams, oracle and header
    mode, equals ``queue_reference``'s per-codeword ``erasure_decode``, as
    filed and with one symbol of each parity ride changed in-field, from
    each set's dropped store entry (cold) and then from its programs
    (warm).  A term table shared across entries would hand one field's MUL
    rows to another set and fail here."""
    counts = check_sets(DECODE_SETS)
    assert {4, 8, 9, 27} <= counts["fields"], counts
    # a parity changed in-field raises where it is surplus, and only there
    assert 0 < counts["raised"] < counts["corrupted"], counts
    # cold lookups compile, warm ones reuse
    assert 0 < counts["compiled"] < counts["calls"] // 2, counts


@pytest.mark.parametrize("p", [P12, P7220])
def test_decode_programs_are_bounded_by_the_masks(p):
    """Two 1500-slot streams, i.i.d. at eps=0.3 on the first hop and 0.2 on
    the second, from a dropped store entry: the decode programs are keyed
    by codeword layout and held mask, N2 bytes longer than the layout's
    queue items, and a codeword decodes from at least k of its n symbols.
    So after one stream and after both, the programs per (n, k, queue
    items) stay at most the sum over r >= k of C(n, r)."""
    source_codec._STORE.pop(p, None)
    sizes = []
    for seed in (45, 46):
        rng = np.random.default_rng(seed)
        bits1, bits2 = random_bits(rng, 1500, 0.3), random_bits(rng, 1500, 0.2)
        run_episode(p, bits1, bits2, len(bits1), seed=seed)
        counts = check_bound(p)  # asserts the bound per layout
        sizes.append(sum(counts.values()))
    assert 1 < sizes[0] <= sizes[1], sizes
