"""The memoized plan engine against the unmemoized rule, and its one causal rule.

``build_message_plan`` memoizes a t-relative plan shape on the first-hop
bits of [t, t+T-N2] and resolves interference, the only part that reads bits
before t, per message.  The differential tests replay seeded patterns through
it and through the reference copy in ``plan_reference.py`` under the three
views the codec uses:

* oracle: the full first-hop pattern;
* masked: every slot after some ``now`` reads as erased, as the relay and the
  ledger see the stream at slot ``now`` and a header-mode destination sees it
  before later headers arrive;
* clean past: the verify certificate's window, message at slot 0 and no
  erasure before it.

``slot_layout``, the per-slot rule the relay, the destination and the
verifier share, is checked against the per-message plans of the masked view,
and end to end: what the destination files is what the relay sent.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

import emission_rules
import plan_reference
from codec_reference import make_codes
from plan_reference import compute_schedule
from relaystream import source_codec
from relaystream.dest_codec import DecoderState
from relaystream.relay_codec import RelayState, build_message_plan, slot_layout
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params, run_episode
from relaystream.source_codec import encode_source

P12 = SchemeParams(12, 3, 4, 1)
P7311 = SchemeParams(7, 3, 1, 1)


def fields(plan):
    return plan.t, plan.erased, plan.schedule, plan.tx, plan.codewords


def oracle_view(bits):
    return lambda s: 0 <= s < len(bits) and bits[s] == 1


def masked_view(bits, now):
    return lambda s: 0 <= s and (s > now or (s < len(bits) and bits[s] == 1))


def random_bits(rng, n, p_erase):
    return [int(b) for b in rng.random(n) < p_erase]


def test_engine_matches_reference_on_every_parameter_set():
    """Oracle and masked views, t from 0 (the window reaches negative
    slots for t < 2(k'-1)) to the end of the stream."""
    plans = 0
    for idx, p in enumerate(all_valid_params(7)):
        d = derive_dims(p)
        rng = np.random.default_rng([31, idx])
        horizon = max(2 * (p.T + 1), 2 * (d.k_prime - 1) + p.T + 2)
        for p_erase in (p.N1 / (p.T + 1), 0.5):
            bits = random_bits(rng, horizon, p_erase)
            for t in range(horizon - p.T + p.N2):
                views = [oracle_view(bits)]
                views += [masked_view(bits, now) for now in (t, t + p.j, t + p.T - p.N2 - 1)]
                for view in views:
                    got = fields(build_message_plan(p, view, t))
                    assert got == plan_reference.build_message_plan(p, view, t), (p, bits, t)
                    assert build_message_plan(p, view, t).emissions == tuple(
                        plan_reference.emission_schedule(p, view, t)
                    )
                    plans += 1
    assert plans > 10_000


def test_engine_matches_reference_on_clean_past_windows():
    """The verify certificate's view: message at slot 0, window of T+1 bits."""
    for idx, p in enumerate(all_valid_params(7)):
        rng = np.random.default_rng([37, idx])
        for _ in range(6):
            window = tuple(random_bits(rng, p.T + 1, p.N1 / (p.T + 1)))
            view = oracle_view(window)
            got = fields(build_message_plan(p, view, 0))
            assert got == plan_reference.build_message_plan(p, view, 0), (p, window)


def first_hop(p, bits, now=None):
    """The ``FirstHop`` an oracle holds (``now`` None) or a relay that has
    ingested slots 0 .. now: the patterns ``oracle_view`` and
    ``masked_view`` look up."""
    pattern = source_codec.FirstHop(p.T, 0 if now is None else 1)
    pattern.bits.extend(bits if now is None else bits[: now + 1])
    return pattern


def test_plans_placed_from_the_window_match_the_lookup_reference():
    """Every set of all_valid_params(6) and (12,3,4,1), oracle and masked
    views, t from 0: a plan placed from its window of bytes -- built from
    the lookup or from the ``FirstHop`` the lookup reads -- equals the
    reference driven by the lookup in every field, its emissions placed
    with their interference included, and holds no callable.  Cold (the
    store entry dropped before each set, and its shapes before each t)
    and warm.  Windows reach below -T."""
    plans = below = 0
    for idx, p in enumerate([*all_valid_params(6), P12]):
        d = derive_dims(p)
        lag = 2 * (d.k_prime - 1)
        rng = np.random.default_rng([43, idx])
        horizon = lag + p.T + 2
        streams = [random_bits(rng, horizon, p_erase) for p_erase in (p.N1 / (p.T + 1), 0.5)]
        source_codec._STORE.pop(p, None)
        for warm in (False, True):
            for bits in streams:
                for t in range(horizon - p.T + p.N2):
                    if not warm:
                        source_codec._entry(p).shapes.clear()
                    views = [(oracle_view(bits), first_hop(p, bits))] + [
                        (masked_view(bits, now), first_hop(p, bits, now))
                        for now in (t, t + p.j, t + p.T - p.N2 - 1)
                    ]
                    for look, pattern in views:
                        want = plan_reference.build_message_plan(p, look, t)
                        want_emissions = tuple(plan_reference.emission_schedule(p, look, t))
                        for form in (look, pattern):
                            plan = build_message_plan(p, form, t)
                            assert fields(plan) == want, (p, bits, t, warm)
                            assert plan.emissions == want_emissions, (p, bits, t, warm)
                            assert plan.n_tx == len(want[3])
                            assert type(plan.window) is bytes and not any(
                                callable(v) for v in vars(plan).values()
                            )
                            plans += 1
                    below += t - lag < -p.T
    assert plans > 10_000 and below > 0


def test_emission_rule_matches_the_position_scan_on_every_shape_key():
    """``emission_schedule`` states the rule, one emission per received
    slot; the scan it replaced stays as the reference.  Every shape key of
    all_valid_params(7), (12,3,4,1), (15,4,6,0), (15,4,6,2) and
    (26,2,16,0), inadmissible windows included: only those tell the rule
    from one without its cutoff past the last parity row."""
    sets = [*all_valid_params(7), P12, SchemeParams(15, 4, 6, 0), SchemeParams(15, 4, 6, 2),
            SchemeParams(26, 2, 16, 0)]
    assert emission_rules.schedule_sweep(sets) == 10_982


def test_interference_is_the_erased_mask_at_every_emission():
    """Every emission of every plan window of all_valid_params(5) keeps
    every erased earlier position of its diagonal: ``emission_interference``
    is the erased mask of [t-pos, t-1]."""
    assert emission_rules.interference_sweep(all_valid_params(5)) == (24_279, 25_648)


def test_compute_schedule_matches_closed_form_availability():
    """Every admissible prefix of every parameter set: the engine's
    availability (estimates actually emitted) equals the closed form."""
    checked = 0
    for p in all_valid_params(7):
        for bits in itertools.product((False, True), repeat=p.T - p.N2 + 1):
            if sum(bits) > p.N1:
                continue
            erased, prefix = bits[0], list(bits[1:])
            want = plan_reference.closed_form_schedule(p, 3, erased, prefix)
            assert compute_schedule(p, 3, erased, prefix) == want, (p, bits)
            checked += 1
    assert checked > 5000


def test_interference_is_resolved_per_message():
    """Two messages with the same window bits share one shape, but each
    resolves its own interference from the bits before it."""
    p = P12
    d = derive_dims(p)
    k = d.k_prime
    lead = 2 * (k - 1)
    window = [1, 0, 0, 0, 1, 0, 0, 0, 0]  # bits [t, t+T-N2]
    quiet = [0] * lead + window
    noisy = [0] * lead + window
    noisy[lead - 1] = noisy[lead - 3] = 1  # erasures just before t
    a = build_message_plan(p, oracle_view(quiet), lead)
    b = build_message_plan(p, oracle_view(noisy), lead)
    assert a.shape is b.shape
    assert all(not em.interference for em in a.emissions)
    assert any(em.interference for em in b.emissions)
    for view, plan in ((oracle_view(quiet), a), (oracle_view(noisy), b)):
        assert fields(plan) == plan_reference.build_message_plan(p, view, lead)


def test_plan_memo_is_bounded_by_the_window():
    """After a 5000-slot i.i.d. stream at eps=0.15, seen by the oracle and
    by the relay at every message-phase slot, the memo for (12,3,4,1) holds
    at most 2^(T-N2+1) shapes, and still does after a second stream."""
    p = P12
    width = p.T - p.N2 + 1
    sizes = []
    for seed in (41, 42):
        bits = random_bits(np.random.default_rng(seed), 5000, 0.15)
        for t in range(5000 - p.T):
            build_message_plan(p, oracle_view(bits), t)
            for now in range(t + p.j, t + width):
                build_message_plan(p, masked_view(bits, now), t)
        sizes.append(len(source_codec._STORE[p].shapes))
    assert sizes[0] <= 2**width
    assert sizes[1] <= 2**width


def layout_from_plans(p, view, s):
    """slot_layout's rides at slot s, from each message's plan seen through
    ``view``: size alpha[s-t], start the sum of alpha before s-t."""
    rides = []
    for t in range(max(0, s - p.T), s - p.j + 1):
        plan, i = build_message_plan(p, view, t), s - t
        alpha = plan.shape.schedule.alpha
        if alpha[i]:
            rides.append((t, plan.shape, sum(alpha[:i]), alpha[i]))
    return rides


def test_slot_layout_matches_the_message_plans():
    """Every (T+1)-bit window of every parameter set, at slot T, and every
    slot of two i.i.d. streams at (12,3,4,1) from slot 0 on, where the
    window reaches negative slots."""
    rides = 0
    for p in all_valid_params(7):
        for window in itertools.product((0, 1), repeat=p.T + 1):
            view = masked_view(window, p.T)
            got = slot_layout(p, window, p.T)
            assert got == layout_from_plans(p, view, p.T), (p, window)
            rides += len(got)
    p = P12
    for seed, p_erase in ((53, 0.15), (54, 0.4)):
        bits = random_bits(np.random.default_rng(seed), 400, p_erase)
        for s in range(len(bits)):
            window = [bits[x] if x >= 0 else 0 for x in range(s - p.T, s + 1)]
            got = slot_layout(p, window, s)
            assert got == layout_from_plans(p, masked_view(bits, s), s), (seed, s)
            rides += len(got)
    assert rides > 100_000


def test_slot_layout_memo_matches_the_reference():
    """Every admissible window (at most N1 erasures in its T+1 bits) of every
    parameter set, at every slot s in [0, T]: the memoized layout equals the
    layout-free reference from a cold memo, then warm, and again once every
    window of the set is memoized.  The set's memo entry is removed before
    its first window; before each cold lookup its layouts are removed and
    its shapes kept (rebuilding every shape for each lookup takes 40 s)."""
    checked = 0
    for p in all_valid_params(7):
        source_codec._STORE.pop(p, None)
        wants = {}
        for window in itertools.product((0, 1), repeat=p.T + 1):
            if sum(window) > p.N1:
                continue
            for s in range(p.T + 1):
                want = wants[window, s] = plan_reference.slot_layout(p, window, s)
                source_codec._entry(p).layouts.clear()
                assert slot_layout(p, window, s) == want, (p, window, s)
                assert slot_layout(p, window, s) == want, (p, window, s)
                checked += 1
        for (window, s), want in wants.items():
            assert slot_layout(p, window, s) == want, (p, window, s)
    assert checked > 100_000


def test_slot_layout_keys_its_memo_by_bytes():
    """Every (T+1)-bit window of every set of all_valid_params(5), at slot T:
    a list, a tuple of bools and bytes give equal rides, and the memo ends
    with one layout per window, keyed by bytes, as are the shapes."""
    for p in all_valid_params(5):
        source_codec._STORE.pop(p, None)
        for window in itertools.product((0, 1), repeat=p.T + 1):
            want = slot_layout(p, bytes(window), p.T)
            assert slot_layout(p, list(window), p.T) == want, (p, window)
            assert slot_layout(p, tuple(map(bool, window)), p.T) == want, (p, window)
        shapes, layouts = source_codec._STORE[p].shapes, source_codec._STORE[p].layouts
        assert len(layouts) == 2 ** (p.T + 1)
        assert all(type(key) is bytes for key in layouts)
        assert all(type(key) is bytes for key in shapes)


def test_slot_layout_callers_cannot_change_the_memo():
    """Each call returns a fresh list of immutable rides: mutating it leaves
    later lookups, at the same slot and at an early one, as they were."""
    p = P12
    window = (0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
    for s in (p.T, 3):
        want = plan_reference.slot_layout(p, window, s)
        got = slot_layout(p, window, s)
        assert got == want and len(got) > 1
        got.reverse()
        got.append(got[0])
        del got[1]
        got[0] = (s, None, 0, 0, None)
        assert slot_layout(p, window, s) == want
        got.clear()
        assert slot_layout(p, window, s) == want
        assert slot_layout(p, window, s) is not slot_layout(p, window, s)


def test_slot_layout_memo_is_bounded_by_the_window():
    """From a cold memo, the two i.i.d. (12,3,4,1) streams of
    test_slot_layout_matches_the_message_plans, with each window passed as
    ints and as bools, leave one layout per distinct (T+1)-bit window:
    at most 2^(T+1)."""
    p = P12
    source_codec._STORE.pop(p, None)
    windows = set()
    for seed, p_erase in ((53, 0.15), (54, 0.4)):
        bits = random_bits(np.random.default_rng(seed), 400, p_erase)
        for s in range(len(bits)):
            window = [bits[x] if x >= 0 else 0 for x in range(s - p.T, s + 1)]
            assert slot_layout(p, window, s) == slot_layout(p, [b == 1 for b in window], s)
            windows.add(tuple(window))
    layouts = source_codec._STORE[p].layouts
    assert len(layouts) == len(windows) <= 2 ** (p.T + 1)

def drive(p, bits1, header_mode, seed):
    """Relay over ``bits1`` with a clean second hop.  Returns the relay's
    subpackets and what the destination filed, both as {t: {start in the
    second-hop sequence: symbols}}.  The relay's starts come from each
    message's full plan: the prefix sum of its alpha up to the slot
    offset."""
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng(seed)
    relay = RelayState(p, header_mode=header_mode)
    dest = (
        DecoderState(p, header_mode=True)
        if header_mode
        else DecoderState(p, e1_bits=bits1)
    )
    history = []
    sent = {}
    for s, b in enumerate(bits1):
        history.append([int(x) for x in rng.integers(0, field.q, d.k_src)])
        relay.ingest_source(s, None if b else encode_source(p, history, s))
        pkt = relay.emit(s)
        dest.ingest(s, pkt.wire_symbols())
        for t, syms in pkt.subpackets:
            alpha = build_message_plan(p, oracle_view(bits1), t).shape.schedule.alpha
            sent.setdefault(t, {})[sum(alpha[: s - t])] = list(syms)
    filed = {t: st.got for t, st in dest.msgs.items() if st.received}
    return sent, filed


@pytest.mark.parametrize("header_mode", [False, True])
@pytest.mark.parametrize("p", [P12, P7311])
def test_relay_and_destination_agree_on_every_subpacket(p, header_mode):
    """One causal rule: every subpacket the relay sends is filed by the
    destination under the same message and sequence start, with the
    same symbols, and nothing else is filed.  The first hops are i.i.d. and
    include inadmissible stretches, where the ledger runs short of
    estimates."""
    d = derive_dims(p)
    short = 0
    for seed, p_erase in ((51, 0.15), (52, 0.35)):
        bits = random_bits(np.random.default_rng(seed), 160, p_erase)
        sent, filed = drive(p, bits, header_mode, seed)
        assert sent.keys() == filed.keys(), (p, seed)
        for t in sent:
            assert sent[t] == filed[t], (p, seed, t)
        view = oracle_view(bits)
        short += sum(
            1
            for t in range(len(bits) - p.T)
            if bits[t] and len(build_message_plan(p, view, t).tx) < d.k_src
        )
    assert short > 0  # the inadmissible case was reached


def test_plan_reads_only_the_header_mode_window():
    """A plan, emissions and interference included, reads no first-hop bit
    outside [t-2(k'-1), t+T-N2]: the window a header-mode destination waits
    for before it builds message t's plan.  Both ends are reached."""
    plans = at_lower = 0
    for idx, p in enumerate(all_valid_params(7)):
        d = derive_dims(p)
        rng = np.random.default_rng([37, idx])
        horizon = max(2 * (p.T + 1), 2 * (d.k_prime - 1) + p.T + 2)
        for p_erase in (p.N1 / (p.T + 1), 0.5):
            bits = random_bits(rng, horizon, p_erase)
            for t in range(horizon - p.T + p.N2):
                lo, hi = t - 2 * (d.k_prime - 1), t + p.T - p.N2
                for look in [oracle_view(bits)] + [masked_view(bits, now) for now in (t, hi - 1)]:
                    reads = []
                    plan = build_message_plan(p, lambda s: reads.append(s) or look(s), t)
                    plan.emissions, plan.tx, plan.codewords  # force every lazy part
                    assert lo <= min(reads) and max(reads) == hi, (p, bits, t, min(reads))
                    at_lower += min(reads) == lo
                    plans += 1
    assert plans > 10_000
    assert at_lower > 0


def test_plan_memo_keeps_a_bounded_number_of_parameter_sets():
    """Sweeping all 210 sets of all_valid_params(7) twice keeps at most
    _STORE_SETS sets in the codec's store, the last ones inserted, and
    every shape, layout and report of a short seeded episode with
    first-hop erasures equals the one a fresh store gives.  Nothing of the
    other sets remains: no entry, so none of their programs and term lists,
    and none of their codes.  Up to _STORE_SETS sets never evict: looking
    them up again keeps their entries."""
    store = source_codec._STORE
    sets = list(all_valid_params(7))
    cap = source_codec._STORE_SETS
    assert cap >= 32 and len(sets) > cap

    def lookups(p):
        rng = np.random.default_rng([67, p.T, p.N1, p.N2, p.j])
        windows = [tuple(int(b) for b in rng.random(p.T + 1) < 0.3) for _ in range(4)]
        horizon = 2 * (p.T + 1)
        e1 = [1] + [int(b) for b in rng.random(horizon - 1) < 0.3]
        return [slot_layout(p, w, p.T) for w in windows] + [
            build_message_plan(p, oracle_view(w), 0).shape for w in windows
        ] + [run_episode(p, e1, [0] * horizon, horizon, seed=p.T)]

    fresh, codes = {}, []  # codes: (set, sweep, weak reference to one of its codes)
    made = set()  # ids of the entries made here; states other tests keep hold theirs

    def note_codes(p, sweep):
        entry = store[p]
        made.add(id(entry))
        codes.extend((p, sweep, weakref.ref(c)) for c in (entry.code, *entry.second_codes.values()))

    for p in sets:
        store.clear()
        fresh[p] = lookups(p)
        note_codes(p, 0)
    store.clear()
    for sweep in (1, 2):
        for p in sets:
            assert lookups(p) == fresh[p], p
            assert len(store) <= cap
            note_codes(p, sweep)
    assert list(store) == sets[-cap:]
    assert sum(len(e.programs) for e in store.values()) > 0
    gc.collect()
    live = [o for o in gc.get_objects() if type(o) is source_codec._Entry and id(o) in made]
    assert sorted(map(id, live)) == sorted(map(id, store.values()))
    # only its entry holds a set's emission programs
    memos = [e.programs for e in store.values()]
    assert all(type(h) is source_codec._Entry for h in gc.get_referrers(*memos) if h is not memos)
    for p, sweep, ref in codes:
        assert (ref() is not None) == (sweep == 2 and p in store), (p, sweep)

    store.clear()
    for p in sets[:cap]:
        lookups(p)
    entries = dict(store)
    for p in sets[:cap]:
        assert lookups(p) == fresh[p], p
    assert all(store[p] is entry for p, entry in entries.items())
