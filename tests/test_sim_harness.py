"""Episode driver, adversarial verifier, Monte-Carlo loss estimation, CSVs.

The verifier's own teeth get tested here by mutation: corrupting the relay's
parity generation must flip exhaustive_verify to a counterexample.
"""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

import relaystream.relay_codec as relay_codec
import relaystream.source_codec as source_codec
import relaystream.sim_harness as sim_harness
from analytic_reference import analytic_losses_reference, chunk_losses_reference
from relaystream.erasure_channel import ChannelConfig, HorizonTooLarge
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import (
    _analytic_losses,
    all_valid_params,
    attainable_payload,
    emit_figure_data,
    exhaustive_verify,
    loss_probability,
    run_episode,
)

P523 = SchemeParams(5, 2, 3, 0)
P623 = SchemeParams(6, 2, 3, 1)


def burst_pattern(horizon, slots):
    bits = [0] * horizon
    for s in slots:
        bits[s] = 1
    return bits


def test_episode_worked_example_payload_peak():
    """The burst scenario drives the relay payload to exactly the worst case
    n2* = 10 at the drain slot, and never beyond it."""
    horizon = 12
    rep = run_episode(P523, burst_pattern(horizon, [1, 2]), [0] * horizon)
    assert rep.ok
    assert not rep.failed and not rep.violations
    assert rep.max_payload == 10 == derive_dims(P523).n2_star
    assert max(rep.payloads) == 10
    # both bursty messages decode by their deadlines
    assert all(rep.decode_slots[t] <= t + P523.T for t in rep.decode_slots)


def test_episode_erasure_free():
    horizon = 16
    rep = run_episode(P623, [0] * horizon, [0] * horizon)
    assert rep.ok
    assert rep.failed == () and rep.violations == ()
    # every message with a full deadline window inside the episode decodes
    assert set(range(horizon - P623.T)).issubset(rep.decode_slots)
    assert rep.max_payload <= derive_dims(P623).n2_star


def test_episode_inadmissible_second_hop_fails_cleanly():
    horizon = 14
    e2 = burst_pattern(horizon, [6, 7, 8, 9])  # 4 > N2=3 in one window
    rep = run_episode(P523, [0] * horizon, e2)
    assert not rep.ok
    assert rep.failed  # messages lost, not crashed
    assert all(v[0] == "payload-bound" for v in rep.violations) or not rep.violations


def test_episode_seed_reproducible():
    horizon = 12
    e1 = burst_pattern(horizon, [3])
    e2 = burst_pattern(horizon, [5, 9])
    a = run_episode(P623, e1, e2, seed=7)
    b = run_episode(P623, e1, e2, seed=7)
    assert a == b
    c = run_episode(P623, e1, e2, seed=8)
    # schedules and therefore payload profiles depend on the pattern alone
    assert c.payloads == a.payloads
    assert c.decode_slots == a.decode_slots


def test_exhaustive_verify_reference_sets():
    for p in (P523, P623):
        rep = exhaustive_verify(p)
        assert rep.ok, rep.counterexample
        assert rep.counterexample is None
        assert rep.windows_checked > 0 and rep.episodes_run > 0
        assert rep.max_payload == rep.payload_target == attainable_payload(p)


def test_attainable_payload_tight_and_loose():
    # tight whenever N1-j <= T+1-N1
    assert attainable_payload(P523) == derive_dims(P523).n2_star == 10
    assert attainable_payload(P623) == derive_dims(P623).n2_star == 13
    # loose case: N1-j fallback messages cannot all overlap one slot
    p = SchemeParams(5, 4, 1, 0)
    d = derive_dims(p)
    assert attainable_payload(p) == 14 < d.n2_star == 22
    rep = exhaustive_verify(p)
    assert rep.ok
    assert rep.max_payload == 14
    assert any("sizing bound" in n for n in rep.notes)


def test_verify_guards_large_t():
    big = SchemeParams(9, 2, 3, 0)
    with pytest.raises(HorizonTooLarge):
        exhaustive_verify(big)
    rep = exhaustive_verify(big, randomized=True, episode_budget=6)
    assert rep.ok, rep.counterexample


@pytest.mark.parametrize("budget, episodes", [(6, 17), (48, 57)])
def test_episode_budget_sizes_the_probe_episodes_without_bounding_them(budget, episodes):
    """(9,2,3,0) randomized: a budget b gives max(8, b // 6) = 8 hop-1
    patterns, each with a clean-hop-2 episode and max(1, b // 8) probes,
    after one opening episode: 17 episodes for b = 6 and 57 for b = 48."""
    rep = exhaustive_verify(SchemeParams(9, 2, 3, 0), randomized=True, episode_budget=budget)
    assert rep.ok, rep.counterexample
    assert rep.episodes_run == episodes


@pytest.mark.parametrize("how", ["report", "raise"])
def test_failed_verify_reports_the_target_and_the_combined_maximum(how, monkeypatch):
    """(5,4,1,0): attainable payload 14 and sizing bound n2* = 22.  An
    episode that fails, by its report or by raising, gives a report whose
    target is the attainable 14 and whose maximum includes the structural
    pass's 14, as a passing report's would."""
    p = SchemeParams(5, 4, 1, 0)
    assert attainable_payload(p) == 14 and derive_dims(p).n2_star == 22
    real = sim_harness.run_episode

    def failing(*args, **kwargs):
        if how == "raise":
            raise RuntimeError("codec fault")
        return dataclasses.replace(real(*args, **kwargs), failed=(0,))

    monkeypatch.setattr(sim_harness, "run_episode", failing)
    rep = exhaustive_verify(p)
    assert not rep.ok and rep.counterexample is not None
    assert (rep.payload_target, rep.max_payload) == (14, 14)
    assert rep.episodes_run == (1 if how == "report" else 0)


def test_randomized_verify_samples_windows_over_its_budget(monkeypatch):
    """(9,2,3,0) has 56 admissible windows: with the window budget at 20,
    a randomized verify certifies a seeded sample of 20, says so in its
    notes, and gives the same report for the same seed."""
    monkeypatch.setattr(sim_harness, "_VERIFY_WINDOW_BUDGET", 20)
    big = SchemeParams(9, 2, 3, 0)
    rep = exhaustive_verify(big, randomized=True, seed=5)
    assert rep.ok, rep.counterexample
    assert rep.windows_checked == 20
    assert "windows sampled 20/56" in rep.notes
    assert exhaustive_verify(big, randomized=True, seed=5) == rep


def test_verify_detects_corrupted_parities(monkeypatch):
    """Mutation check: a relay that emits one wrong parity symbol must be
    caught by the value-level episodes."""
    real = relay_codec.build_parity_groups

    def corrupted(p, plan, values):
        pg = real(p, plan, values)
        rows = [list(r) for r in pg.rows]
        if rows and rows[0]:
            rows[0][0] = (rows[0][0] + 1) % 7
            return relay_codec.ParityGroups(pg.t, pg.grouped, tuple(tuple(r) for r in rows))
        return pg

    monkeypatch.setattr(relay_codec, "build_parity_groups", corrupted)
    rep = exhaustive_verify(P523)
    assert not rep.ok
    assert rep.counterexample is not None


def test_verify_detects_truncated_schedule(monkeypatch):
    """Mutation check: a relay that silently drops the last message-phase
    symbol violates the structural certificate."""
    real = relay_codec._schedule_core

    def lazy(p, erased_msg, erased_after, avail):
        s = real(p, erased_msg, erased_after, avail)
        cut = p.T - p.N2
        alpha = list(s.alpha)
        if alpha[cut] > 0:
            alpha[cut] -= 1
        return relay_codec.Schedule(s.t, s.erased, s.grouped, tuple(alpha), s.ell, s.gamma)

    # the store entry memoizes shapes built by the rule in force: drop it
    # when the rule is swapped and again when it is restored, so no entry
    # built by the truncated rule outlives the test
    source_codec._STORE.pop(P523, None)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(relay_codec, "_schedule_core", lazy)
            rep = exhaustive_verify(P523)
    finally:
        source_codec._STORE.pop(P523, None)
    assert not rep.ok
    assert "k_src" in rep.counterexample["problem"]


P5221 = SchemeParams(5, 2, 2, 1)


def _plan_view(mutate):
    """A mutant of ``build_message_plan`` whose plans show the certificate
    the views it reads (erased, schedule, tx, codewords) with
    ``mutate(plan)``'s replacements."""

    def mutant(real):
        def patched(p, erased_fn, t):
            plan = real(p, erased_fn, t)
            view = {name: getattr(plan, name) for name in ("erased", "schedule", "tx", "codewords")}
            view.update(mutate(plan))
            return types.SimpleNamespace(**view)

        return patched

    return mutant


def _symbol_at_offset_0(plan):
    alpha = list(plan.schedule.alpha)
    first = next(i for i, a in enumerate(alpha) if a)
    alpha[first] -= 1
    alpha[0] += 1
    return {"schedule": dataclasses.replace(plan.schedule, alpha=tuple(alpha))}


def _first_codeword(**changes):
    def mutate(plan):
        cw = plan.codewords[0]
        new = {key: change(cw) for key, change in changes.items()}
        return {"codewords": (dataclasses.replace(cw, **new),) + plan.codewords[1:]}

    return mutate


# (binding, mutant of the real binding, problem text) at (5,2,2,1)
CERTIFICATE_MUTANTS = {
    "before-t+j": (
        "build_message_plan", _plan_view(_symbol_at_offset_0),
        "symbols scheduled before t+j",
    ),
    "queue-coverage": (
        "build_message_plan",
        _plan_view(lambda plan: {"tx": (
            dataclasses.replace(plan.tx[0], flat=plan.tx[-1].flat),) + plan.tx[1:]}),
        "transmission queue does not cover the message exactly once",
    ),
    "availability": (
        "build_message_plan",
        _plan_view(lambda plan: {"tx": tuple(
            dataclasses.replace(item, emission=None) for item in plan.tx)}),
        "availability at offset 1: 0 != 3",
    ),
    "codeword-count": (
        "build_message_plan",
        _plan_view(lambda plan: {"codewords": plan.codewords[:-1]}),
        "1 codewords, expected 2",
    ),
    "codeword-shape": (
        "build_message_plan",
        _plan_view(_first_codeword(sys_items=lambda cw: cw.sys_items[:-1])),
        "codeword shape (5,3) with 2 systematic",
    ),
    "one-slot-twice": (
        "build_message_plan",
        _plan_view(_first_codeword(
            parity_slots=lambda cw: (cw.parity_slots[0],) * 2)),
        "codeword rides one slot twice",
    ),
    "codeword-span": (
        "build_message_plan",
        _plan_view(_first_codeword(
            parity_slots=lambda cw: tuple((s + P5221.N2, c) for s, c in cw.parity_slots))),
        "codeword span [1,7] leaves [t,t+T]",
    ),
    "payload-bound": (
        "slot_layout",
        lambda real: lambda p, bits, s: real(p, bits, s) + [(s, None, 0, 12)],
        "payload 22 exceeds n2* 11",
    ),
    "payload-target": (
        "attainable_payload", lambda real: lambda p: real(p) + 1,
        "worst payload 11 != expected 12",
    ),
}


@pytest.mark.parametrize("check", list(CERTIFICATE_MUTANTS))
def test_every_certificate_check_fires(check, monkeypatch):
    """Mutation check of the structural certificate at (5,2,2,1): a plan view
    that breaks one check (from the verifier's own ``build_message_plan``
    binding), an extra 12-symbol ride in its ``slot_layout``, or a target one
    above the attainable payload each fail the verify with that check's own
    problem, before any episode runs."""
    binding, mutant, problem = CERTIFICATE_MUTANTS[check]
    monkeypatch.setattr(sim_harness, binding, mutant(getattr(sim_harness, binding)))
    rep = exhaustive_verify(P5221)
    assert not rep.ok
    assert rep.counterexample["problem"] == problem
    assert rep.episodes_run == 0 and rep.notes == ()


def test_all_valid_params_sweep_size():
    params = list(all_valid_params())
    assert len(params) == 210
    assert len(set(params)) == 210
    for p in params:
        assert 1 <= p.N1 <= p.T and p.N1 + p.N2 <= p.T and 0 <= p.j < p.N1
    assert list(all_valid_params(t_max=2)) == [
        SchemeParams(1, 1, 0, 0),
        SchemeParams(2, 1, 0, 0),
        SchemeParams(2, 1, 1, 0),
        SchemeParams(2, 2, 0, 0),
        SchemeParams(2, 2, 0, 1),
    ]


def test_loss_probability_deterministic_and_worker_invariant():
    cfg = ChannelConfig(0.05, 0.08, seed=5, horizon=256)
    a = loss_probability(P523, cfg, mode="analytic", trials=20_000, scheme="both")
    b = loss_probability(P523, cfg, mode="analytic", trials=20_000, scheme="both")
    assert a == b
    c = loss_probability(P523, cfg, mode="analytic", trials=20_000, scheme="both", workers=2)
    assert c == a
    assert a["adaptive"].trials == 20_000
    assert a["adaptive"].losses >= 0
    assert 0.0 <= a["adaptive"].probability <= 1.0


def test_analytic_losses_match_the_per_message_reference():
    """The vectorized analytic model classifies every message exactly as the
    per-message loop does, windows clipped to the pattern, at every message
    count a chunk can assess and on both bit dtypes it may be given."""
    cases = 0
    for p in all_valid_params(8):
        for h in sorted({p.T + 1, 3 * (p.T + 1), 64, 512}):
            for k, eps in enumerate((0.05, 0.3, 0.7)):
                rng = np.random.default_rng([p.T, p.N1, p.N2, p.j, h, k])
                e1 = rng.random(h) < eps
                e2 = rng.random(h) < eps
                if (h + k) % 2:
                    e1, e2 = e1.astype(np.int64), e2.astype(np.int64)
                # the reference classifies each message on its own, so one
                # pass over all h messages serves every n_assess
                want = analytic_losses_reference(p, e1, e2, h)
                for n_assess in sorted({1, h - p.T, h}):
                    got = _analytic_losses(p, e1, e2, n_assess)
                    for g, w in zip(got, want):
                        assert g.shape == (n_assess,), (p, h, eps, n_assess)
                        assert np.array_equal(g, w[:n_assess]), (p, h, eps, n_assess)
                    cases += 1
    assert cases == 330 * 3 * (2 + 3 + 3 + 3)


def test_analytic_losses_on_a_block_match_each_row():
    """A (chunks, n) block classifies every row exactly as the 1-D call on
    that row alone, on both bit dtypes."""
    params = list(all_valid_params(6))
    cases = 0
    for p in params:
        for h in sorted({p.T + 1, 64, 512}):
            rng = np.random.default_rng([p.T, p.N1, p.N2, p.j, h])
            e1 = rng.random((3, h)) < np.array([[0.05], [0.3], [0.7]])
            e2 = rng.random((3, h)) < np.array([[0.3], [0.7], [0.05]])
            for bits in ((e1, e2), (e1.astype(np.int64), e2.astype(np.int64))):
                for n_assess in sorted({1, h - p.T, h}):
                    got = _analytic_losses(p, *bits, n_assess)
                    for g in got:
                        assert g.shape == (3, n_assess), (p, h, n_assess)
                    for row in range(3):
                        want = _analytic_losses(p, bits[0][row], bits[1][row], n_assess)
                        for g, w in zip(got, want):
                            assert np.array_equal(g[row], w), (p, h, n_assess, row)
                    cases += 1
    assert cases == len(params) * 2 * (2 + 3 + 3)


@pytest.mark.parametrize("mode", ["analytic", "codec"])
def test_loss_probability_matches_the_per_chunk_reference(mode, monkeypatch):
    """The block-batched estimate counts exactly the losses of the per-chunk
    loop, for every scheme and worker count: below one chunk, ending in a
    partial chunk, exactly one block, one block plus one chunk, and at the
    shortest horizon T+1.  In codec mode it runs the same episodes, in the
    same order and through the module's ``run_episode`` binding."""
    block = sim_harness._BLOCK_CHUNKS
    episodes = []
    original = sim_harness.run_episode

    def recording(p, e1, e2, horizon, seed=0, **kw):
        episodes.append((horizon, seed, tuple(e1), tuple(e2)))
        return original(p, e1, e2, horizon, seed=seed, **kw)

    monkeypatch.setattr(sim_harness, "run_episode", recording)
    cases = 0
    for p in (P523, P623):
        for per_chunk in (1, 7) if mode == "codec" else (1, 64):
            trial_counts = sorted({
                max(1, per_chunk - 1),
                3 * per_chunk + max(1, per_chunk // 2),
                block * per_chunk,
                (block + 1) * per_chunk,
            })
            for k, eps in enumerate((0.0, 0.3, 1.0)):
                cfg = ChannelConfig(eps, eps, seed=20 + k, horizon=p.T + per_chunk)
                for trials in trial_counts:
                    episodes.clear()
                    want = chunk_losses_reference(p, cfg, mode, trials)
                    want_episodes = episodes[:]
                    episodes.clear()
                    both = loss_probability(p, cfg, mode=mode, trials=trials, scheme="both")
                    assert {t: e.losses for t, e in both.items()} == want, (p, cfg, trials)
                    assert episodes == want_episodes, (p, cfg, trials)
                    assert len(episodes) == (mode == "codec") * -(-trials // per_chunk)
                    for scheme in ("adaptive", "nonadaptive"):
                        one = loss_probability(p, cfg, mode=mode, trials=trials, scheme=scheme)
                        assert one == both[scheme], (p, cfg, trials, scheme)
                    if trials > block * per_chunk:  # two blocks: a pool of two
                        two = loss_probability(p, cfg, mode=mode, trials=trials,
                                               scheme="both", workers=2)
                        assert two == both, (p, cfg, trials)
                    cases += 1
    assert cases == 2 * 2 * 3 * 4


def test_loss_probability_starts_no_pool_for_one_block(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block estimate started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = ChannelConfig(0.1, 0.1, seed=3, horizon=64)
    trials = sim_harness._BLOCK_CHUNKS * (64 - P523.T)
    one = loss_probability(P523, cfg, trials=trials, scheme="both")
    assert loss_probability(P523, cfg, trials=trials, scheme="both", workers=2) == one


def test_loss_probability_modes_agree_roughly():
    """Fast version of the cross-validation: compare codec-mode and
    analytic-mode counts on identical pattern streams."""
    cfg = ChannelConfig(0.1, 0.1, seed=11, horizon=128)
    trials = 4_000
    ana = loss_probability(P523, cfg, mode="analytic", trials=trials, scheme="adaptive")
    cod = loss_probability(P523, cfg, mode="codec", trials=trials, scheme="adaptive")
    se = math.sqrt(ana.stderr**2 + cod.stderr**2)
    assert abs(ana.probability - cod.probability) <= 3 * max(se, 1e-9), (
        ana.probability,
        cod.probability,
    )


def test_loss_probability_nonadaptive_baseline_is_analytic_in_codec_mode():
    cfg = ChannelConfig(0.1, 0.1, seed=11, horizon=128)
    both = loss_probability(P523, cfg, mode="codec", trials=2_000, scheme="both")
    assert both["nonadaptive"].mode == "analytic"
    assert both["adaptive"].mode == "codec"
    na_only = loss_probability(P523, cfg, mode="analytic", trials=2_000, scheme="nonadaptive")
    assert na_only.losses == both["nonadaptive"].losses


def test_codec_losses_count_wrong_values_once(monkeypatch):
    """Codec mode counts a message lost when its episode reports it FAILED
    or decoded to a wrong value, once if both, and only among the chunk's
    assessed messages: every chunk here reports t=1 FAILED and wrong-value
    and t=4 wrong-value, so the 7 messages of chunk 0 lose t=1 and t=4 and
    the 2-message tail of chunk 1 loses t=1."""
    real = sim_harness.run_episode

    def wrong_values(*args, **kw):
        rep = real(*args, **kw)
        return dataclasses.replace(
            rep, failed=(1,), violations=(("wrong-value", 1), ("wrong-value", 4))
        )

    monkeypatch.setattr(sim_harness, "run_episode", wrong_values)
    cfg = ChannelConfig(0, 0, 5, 12)
    est = loss_probability(P523, cfg, trials=9, mode="codec", scheme="adaptive")
    assert est.losses == 3


def test_loss_probability_argument_validation():
    cfg = ChannelConfig(0.1, 0.1, seed=1, horizon=64)
    with pytest.raises(ValueError):
        loss_probability(P523, cfg, mode="magic")
    with pytest.raises(ValueError):
        loss_probability(P523, cfg, scheme="fastest")
    with pytest.raises(ValueError):
        loss_probability(P523, cfg, trials=0)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            loss_probability(P523, cfg, trials=100, workers=workers)
    with pytest.raises(ValueError):
        loss_probability(P523, ChannelConfig(0.1, 0.1, seed=1, horizon=4))


def test_figure_csvs_deterministic(tmp_path):
    for fig, kw in [
        (2, {}),
        (3, {}),
        (4, {"trials": 2_000, "horizon": 128}),
        (5, {"trials": 2_000, "horizon": 128}),
    ]:
        p1 = tmp_path / f"f{fig}_a.csv"
        p2 = tmp_path / f"f{fig}_b.csv"
        emit_figure_data(fig, str(p1), **kw)
        emit_figure_data(fig, str(p2), **kw)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2, fig
        assert b1.startswith(b"# ")


def test_figure_empty_range_writes_header_only(tmp_path):
    # a figure's CSV with no rows is its comment line and its header
    path = tmp_path / "empty.csv"
    sim_harness._write_csv(str(path), "no rows", ["T", "N1", "N2", "series", "j", "rate"], [])
    assert path.read_text().splitlines() == ["# no rows", "T,N1,N2,series,j,rate"]


def test_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ValueError):
        emit_figure_data(7, str(tmp_path / "x.csv"))
