"""Codec invariants over random episodes, inadmissible streams included.

Properties of ``run_episode`` that no pinned report checks:

(a) the report does not move with the message seed: no decision reads a
    symbol value;
(b) with hop 1 fixed, one more hop-2 erasure never makes a message decode
    that did not, nor decode earlier;
(c) header mode decodes a subset of what oracle mode decodes, never earlier;
(d) decisions are local: on admissible hops, one bit flipped outside message
    t's window, keeping its hop admissible, never changes t's outcome or
    decode slot.  The window is hop 1 over [t-2(k'-1), t+T], the bits t's
    plan reads up to its deadline, and hop 2 over [t+j, t+T], the slots t
    rides, or in header mode [t-2(k'-1), t+T], the relay slots whose
    headers deliver t's plan bits.

Parameter sets are ``all_valid_params(7)`` plus (12,3,4,1), horizons run
from T+1 to 3(T+1) slots, and each hop's erasures are an arbitrary set of
slots, or for (d) that set with each erasure dropped that would put more
than N in a (T+1)-slot window.  The profile is derandomized, so the
examples are the same on every run, and a failure of (a)-(c) shrinks to a
small pattern pair; (d) reports its failing example unshrunk.
"""

from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from relaystream.erasure_channel import is_admissible
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params, run_episode

# half the examples at (12,3,4,1), where k' = 6, half over the T <= 7 sweep
PARAMS = st.one_of(st.sampled_from(list(all_valid_params(7))), st.just(SchemeParams(12, 3, 4, 1)))
# the loaded profile's example count: 100, unless a run loads the larger
# profile of conftest.py
PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=settings.default.max_examples,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def episodes(draw):
    """(params, horizon, e1, e2, header_mode)."""
    p = draw(PARAMS)
    horizon = draw(st.integers(p.T + 1, 3 * (p.T + 1)))

    def hop():
        erased = draw(st.sets(st.integers(0, horizon - 1), max_size=horizon))
        return [int(s in erased) for s in range(horizon)]

    return p, horizon, hop(), hop(), draw(st.booleans())


def decoded(rep) -> dict:
    """Message -> (decode slot, whether its value was wrong), over the
    messages the episode finalized with a value."""
    wrong = {v[1] for v in rep.violations if v[0] == "wrong-value"}
    return {t: (s, t in wrong) for t, s in rep.decode_slots.items()}


def assert_no_better(rep, than):
    """Every message ``rep`` decoded, ``than`` decoded no later, to the same
    verdict."""
    mine, theirs = decoded(rep), decoded(than)
    for t, (slot, wrong) in mine.items():
        assert t in theirs, f"message {t} decodes only in the worse episode"
        assert slot >= theirs[t][0], f"message {t} decodes earlier in the worse episode"
        assert wrong == theirs[t][1], f"message {t} changes its verdict"


@PROFILE
@given(episodes(), st.integers(1, 2**32 - 1))
def test_report_does_not_move_with_the_message_seed(episode, seed):
    p, horizon, e1, e2, header_mode = episode
    a = run_episode(p, e1, e2, horizon, seed=0, header_mode=header_mode)
    b = run_episode(p, e1, e2, horizon, seed=seed, header_mode=header_mode)
    assert (a.decode_slots, a.failed, a.payloads, a.violations) == (
        b.decode_slots, b.failed, b.payloads, b.violations)


@PROFILE
@given(episodes(), st.data())
def test_one_more_hop2_erasure_never_helps(episode, data):
    p, horizon, e1, e2, header_mode = episode
    slot = data.draw(st.integers(0, horizon - 1), label="erased slot")
    more = [*e2[:slot], 1, *e2[slot + 1:]]
    base = run_episode(p, e1, e2, horizon, header_mode=header_mode)
    worse = run_episode(p, e1, more, horizon, header_mode=header_mode)
    assert_no_better(worse, base)


@PROFILE
@given(episodes())
def test_header_mode_never_beats_oracle_mode(episode):
    p, horizon, e1, e2, _ = episode
    header = run_episode(p, e1, e2, horizon, header_mode=True)
    oracle = run_episode(p, e1, e2, horizon)
    assert_no_better(header, oracle)


def admissible(bits, T: int, N: int) -> list[int]:
    """``bits`` with each erasure dropped that would put more than N in a
    (T+1)-slot window, earliest kept first."""
    out = []
    for s, b in enumerate(bits):
        out.append(int(b and sum(out[max(0, s - T) :]) < N))
    return out


@st.composite
def local_flips(draw):
    """(params, horizon, header_mode, t, (e1, e2), flips): admissible hops
    over at least 2(T+1) slots, an assessed message t, erased on hop 1 half
    the time, and the (hop, slot) flips to try.  On each hop those are the
    slots outside t's window whose flip keeps the hop admissible: the
    nearest below the window, the nearest above it and one drawn from all."""
    p = draw(PARAMS)
    horizon = draw(st.integers(2 * (p.T + 1), 3 * (p.T + 1)))
    hops = []
    for n in (p.N1, p.N2):
        erased = draw(st.sets(st.integers(0, horizon - 1), max_size=horizon))
        hops.append(admissible([s in erased for s in range(horizon)], p.T, n))
    header_mode = draw(st.booleans())
    last = horizon - p.T - 1  # the last message the episode assesses
    lost = [t for t in range(last + 1) if hops[0][t]]
    t = draw(st.one_of(st.integers(0, last), *([st.sampled_from(lost)] if lost else [])))
    lag = 2 * (derive_dims(p).k_prime - 1)
    flips = []
    for hop, (bits, n) in enumerate(zip(hops, (p.N1, p.N2)), 1):
        lo = t + p.j if hop == 2 and not header_mode else t - lag
        outside = [
            x for x in range(horizon)
            if not lo <= x <= t + p.T and is_admissible(flipped(bits, x), p.T, n)
        ]
        below, above = [x for x in outside if x < lo], [x for x in outside if x > t + p.T]
        if outside:
            near = below[-1:] + above[:1] + [draw(st.sampled_from(outside))]
            flips += [(hop, x) for x in sorted(set(near))]
    assume(flips)
    return p, horizon, header_mode, t, hops, flips


def flipped(bits, x):
    return [*bits[:x], 1 - bits[x], *bits[x + 1 :]]


# No shrink phase: an example runs up to seven episodes, and shrinking a
# failure took minutes where a passing run takes seconds.
@settings(PROFILE, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(local_flips())
def test_a_flip_outside_the_window_never_moves_the_message(case):
    p, horizon, header_mode, t, hops, flips = case
    want = decoded(run_episode(p, *hops, horizon, header_mode=header_mode)).get(t)
    for hop, x in flips:
        moved = [flipped(bits, x) if i == hop else bits for i, bits in enumerate(hops, 1)]
        got = decoded(run_episode(p, *moved, horizon, header_mode=header_mode)).get(t)
        assert got == want, f"flipping slot {x} of hop {hop} moves message {t}"
