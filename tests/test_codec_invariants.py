"""Codec invariants over random episodes, inadmissible streams included.

Properties of ``run_episode`` that no pinned report checks:

(a) the report does not move with the message seed: no decision reads a
    symbol value;
(b) with hop 1 fixed, one more hop-2 erasure never makes a message decode
    that did not, nor decode earlier;
(c) header mode decodes a subset of what oracle mode decodes, never earlier.

Parameter sets are ``all_valid_params(7)`` plus (12,3,4,1), horizons run
from T+1 to 3(T+1) slots, and each hop's erasures are an arbitrary set of
slots.  The profile is derandomized, so the examples are the same on every
run, and a failure shrinks to a small pattern pair.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaystream.scheme_params import SchemeParams
from relaystream.sim_harness import all_valid_params, run_episode

# half the examples at (12,3,4,1), where k' = 6, half over the T <= 7 sweep
PARAMS = st.one_of(st.sampled_from(list(all_valid_params(7))), st.just(SchemeParams(12, 3, 4, 1)))
PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
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
