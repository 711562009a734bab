"""Long streams: pinned reports and codec state bounded by the stream window.

The relay prunes its ledger behind the oldest slot an in-flight message can
still read, and the destination retires each message ``try_decode``
finalizes, so what the codec holds per message must not grow with the
stream.  The two
3000-slot reports are pinned from the codec that kept every packet, plan and
filed symbol for the whole stream: pruning may not change one decode slot,
failure, violation or payload.  The (12,3,4,1) stream is i.i.d. at eps=0.1,
inadmissible in places, with k'=6 and chains of FAILED dependencies.
"""

import hashlib
import itertools
import json
from functools import cache

import numpy as np
import pytest

from relaystream import sim_harness, source_codec
from relaystream.dest_codec import FAILED
from relaystream.relay_codec import RelayState, _entry_shape
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params, run_episode
from stream_state import GROWTH_BOUND, P523, growth_per_slot, stream_inputs

P1234 = SchemeParams(12, 3, 4, 1)
HORIZON = 3000

# SHA-256 of the sorted-key JSON of decode slots, failures, violations and
# payloads, as the codec without pruning reported them
STREAM_PINS = {
    "523-header-3000": "876ec4bc876396bbb10aeed65b54b0801ace460022cf7cba73bc39899fc5c9ac",
    "1234-oracle-eps0.1-3000": "63e9c982cbcd9c8eaa5f1d589356b33c2fdb22d52532283172c2f1a2213106ca",
}


def stream_cases():
    """name -> (params, e1, e2, horizon, seed, header_mode)."""
    e1, e2 = stream_inputs(P523, HORIZON, 7)
    rng = np.random.default_rng([11, 1234])
    b1 = (rng.random(HORIZON) < 0.1).astype(int).tolist()
    b2 = (rng.random(HORIZON) < 0.1).astype(int).tolist()
    return {
        "523-header-3000": (P523, e1, e2, HORIZON, 7, True),
        "1234-oracle-eps0.1-3000": (P1234, b1, b2, HORIZON, 11, False),
    }


LEDGER_STORES = ("packets",)


@cache
def run_stream(name):
    """The report of one case, with the relay and the decoder that ran it.
    The relay records, after every slot it emits, how many slots each
    ledger store holds and how far back the oldest one lies; the decoder,
    after every ``finalize``, how many messages its live store holds and
    how many of them are final."""
    p, e1, e2, horizon, seed, header_mode = stream_cases()[name]
    made = []

    class TrackedRelay(sim_harness.RelayState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.held = dict.fromkeys(LEDGER_STORES, 0)
            self.reach = dict.fromkeys(LEDGER_STORES, 0)
            made.append(self)

        def emit(self, slot):
            packet = super().emit(slot)
            for name in LEDGER_STORES:
                store = getattr(self.ledger, name)
                self.held[name] = max(self.held[name], len(store))
                self.reach[name] = max(self.reach[name], slot - min(store, default=slot))
            return packet

    class TrackedDecoder(sim_harness.DecoderState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.dependency_losses = 0  # cancellations that met a FAILED message
            self.live_held = self.final_live = 0
            made.append(self)

        def finalize(self, now):
            yield from super().finalize(now)
            self.live_held = max(self.live_held, len(self.msgs))
            self.final_live += sum(t in self.outcomes for t in self.msgs)

        def _cancel(self, t, plan, queue):
            out = super()._cancel(t, plan, queue)
            self.dependency_losses += out is FAILED
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_harness, "RelayState", TrackedRelay)
        mp.setattr(sim_harness, "DecoderState", TrackedDecoder)
        rep = run_episode(p, e1, e2, horizon, seed=seed, header_mode=header_mode)
    relay, dest = made
    return rep, relay, dest


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_long_stream_report_is_pinned(name):
    rep = run_stream(name)[0]
    observed = {
        "decode_slots": [[t, s] for t, s in rep.decode_slots.items()],
        "failed": list(rep.failed),
        "violations": [list(v) for v in rep.violations],
        "payloads": list(rep.payloads),
    }
    digest = hashlib.sha256(json.dumps(observed, sort_keys=True).encode()).hexdigest()
    assert digest == STREAM_PINS[name]


def test_the_oracle_stream_loses_through_dependencies():
    """The (12,3,4,1) pin is not vacuous: messages fail, and some fail
    because their cancellation met a FAILED message, which had left the
    live store for ``outcomes`` by then."""
    rep, _, dest = run_stream("1234-oracle-eps0.1-3000")
    assert len(rep.failed) > 20
    assert dest.dependency_losses > 5


def ledger_reach(p):
    """How many slots before the one just emitted a later slot can read the
    ledger: T-N2-1, or T-N2-2 at k'=1 (see ``RelayState``)."""
    return p.T - p.N2 - 1 if derive_dims(p).k_prime > 1 else p.T - p.N2 - 2


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_ledger_holds_only_the_slots_in_flight_messages_read(name):
    """At every slot of the 3000, the relay's ledger holds packets of at
    most ``ledger_reach`` + 1 slots, none older than ``ledger_reach``
    slots; the erasure bits stay whole."""
    rep, relay, _ = run_stream(name)
    p, reach = rep.params, ledger_reach(rep.params)
    assert len(relay.ledger.pattern.bits) == p.T + HORIZON
    assert relay.held["packets"]  # filled, then pruned
    for name in LEDGER_STORES:
        assert relay.held[name] <= reach + 1, (name, relay.held[name])
        assert relay.reach[name] <= reach, (name, relay.reach[name])


def test_every_estimate_first_rides_within_the_ledger_reach():
    """The bound ``RelayState``'s lag rests on, over every window [t,
    t+T-N2] of an erased message, admissible or not, at every set of
    all_valid_params(7), (12,3,4,1) and (15,4,6,0): emission c is of
    position k'-1-c, and its first item rides by offset T-N2-pos.  The
    bound is reached at every set with k'>1."""
    for p in [*all_valid_params(7), P1234, SchemeParams(15, 4, 6, 0)]:
        d, last = derive_dims(p), p.T - p.N2
        entry, reached = source_codec._entry(p), 0
        for tail in itertools.product((0, 1), repeat=last):
            shape = _entry_shape(p, entry, bytes((1, *tail)))
            sent = list(itertools.accumulate(shape.schedule.alpha[: last + 1]))
            for c, em in enumerate(shape.emissions):
                assert em.pos == d.k_prime - 1 - c, (p, tail, c)
                first_ride = next(i for i, n in enumerate(sent) if n > c * d.l_prime)
                assert first_ride + em.pos <= last, (p, tail, c)
                reached = max(reached, first_ride + em.pos)
        assert reached == last or d.k_prime == 1, p


@pytest.mark.parametrize(
    "p", [P523, SchemeParams(4, 2, 2, 1), SchemeParams(7, 3, 4, 2), SchemeParams(6, 3, 2, 1)]
)
def test_a_ledger_that_forgets_one_slot_more_raises(p):
    """The relay's ledger reach is tight at k'=1 and at k'=2, where the
    furthest read is a known term of an estimate: seeded i.i.d. episodes,
    hop 1 at eps 0.3 (inadmissible in places), run through in both modes,
    and each raises ``KeyError`` once the relay forgets one slot more."""
    horizon = 3 * (p.T + 1)

    class Forgetful(sim_harness.RelayState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._ledger_lag -= 1

    assert derive_dims(p).k_prime <= 2 and RelayState(p)._ledger_lag == ledger_reach(p)
    for seed in range(3):
        rng = np.random.default_rng([seed, p.T])
        e1 = (rng.random(horizon) < 0.3).astype(int).tolist()
        e2 = (rng.random(horizon) < 0.1).astype(int).tolist()
        for header_mode in (False, True):
            run_episode(p, e1, e2, horizon, seed=seed, header_mode=header_mode)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sim_harness, "RelayState", Forgetful)
                with pytest.raises(KeyError):
                    run_episode(p, e1, e2, horizon, seed=seed, header_mode=header_mode)


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_decoder_holds_plans_and_symbols_only_near_the_last_slot(name):
    """After every ``finalize`` of the 3000 slots, the decoder's live store
    holds no final message and at most the T+1 messages of [now-T, now].
    After the last slot it holds plans and filed symbols only for messages
    within T+1+2(k'-1) of it; every older message is final, with an outcome
    that decoded exactly when the report has its decode slot."""
    rep, _, dest = run_stream(name)
    assert dest.final_live == 0
    assert 0 < dest.live_held <= rep.params.T + 1, dest.live_held
    p, k = rep.params, derive_dims(rep.params).k_prime
    reach = p.T + 1 + 2 * (k - 1)
    live = [t for t, st in dest.msgs.items() if st.plan is not None or st.got]
    assert live and min(live) >= dest.last_slot - reach, min(live)
    assert len(live) <= reach + 1
    for t in range(dest.last_slot - p.T):  # past their deadline
        assert t in dest.outcomes, t
        assert (dest.outcomes[t] is not FAILED) == (t in rep.decode_slots), t


def test_codec_state_grows_by_at_most_600_bytes_per_slot():
    """The tracemalloc peak of a header-mode (5,2,3,0) episode grows by at
    most 600 B per slot between 1000 and 8000 slots (about 1.9 KB before the
    relay pruned its ledger and the decoder retired finished messages)."""
    growth = growth_per_slot(1000, 8000)
    assert growth <= GROWTH_BOUND, growth
