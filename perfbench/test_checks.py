"""Self-tests of the benchmark's checks, generator and tracer.

    python3 -m pytest perfbench/test_checks.py

Each checker is shown to pass a healthy report and to trip on a corrupted
one, so a green benchmark run cannot be vacuous.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import relaystream as rs  # noqa: E402
from relaystream import sim_harness  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

P = rs.SchemeParams(5, 2, 3, 0)
H = 4 * (P.T + 1)


@pytest.fixture(scope="module")
def episode():
    rng = np.random.default_rng(0)
    e1 = workloads.admissible_pattern(rng, H, P.T, P.N1)
    e2 = workloads.admissible_pattern(rng, H, P.T, P.N2)
    return rs.run_episode(P, e1, e2, H, header_mode=True)


def test_healthy_episode_passes(episode):
    assert checks.episode_failures(episode, lossy=False) == []
    assert checks.episode_failures(episode, lossy=True) == []


@pytest.mark.parametrize(
    "corrupt, trips_lossy",
    [
        (lambda r: replace(r, violations=r.violations + (("wrong-value", 3),)), True),
        (lambda r: replace(r, violations=r.violations + (("late", 3, 20),)), True),
        (lambda r: replace(r, payloads=r.payloads[:-1]), True),
        (lambda r: replace(r, failed=(4,)), False),
        (lambda r: replace(r, violations=(("payload-bound", 2, 99),)), False),
        (lambda r: replace(r, decode_slots={t: s for t, s in r.decode_slots.items() if t}), False),
    ],
)
def test_episode_checker_trips(episode, corrupt, trips_lossy):
    bad = corrupt(episode)
    assert checks.episode_failures(bad, lossy=False)
    assert bool(checks.episode_failures(bad, lossy=True)) == trips_lossy


def test_verify_checker_trips():
    rep = rs.exhaustive_verify(rs.SchemeParams(2, 1, 1, 0))
    assert checks.verify_failures(rep) == []
    assert checks.verify_failures(replace(rep, ok=False, counterexample={"problem": "x"}))
    assert checks.verify_failures(replace(rep, episodes_run=0))


def test_estimate_checker_trips():
    cfg = rs.ChannelConfig(0.1, 0.1, 3, 64)
    est = rs.loss_probability(P, cfg, mode="analytic", trials=200, scheme="both")
    assert checks.estimate_failures(est, 200, "analytic") == []
    over = dict(est, adaptive=replace(est["adaptive"], losses=201))
    assert checks.estimate_failures(over, 200, "analytic")
    skewed = dict(est, adaptive=replace(est["adaptive"], probability=0.5))
    assert checks.estimate_failures(skewed, 200, "analytic")
    assert checks.estimate_failures(est, 200, "codec")


def test_region_and_recheck_checkers_trip():
    region = rs.build_region(workloads.REGION_MAC, mix_bound=4)
    assert checks.region_failures(region) == []
    assert checks.region_failures(replace(region, frontier=()))
    assert checks.region_failures(replace(region, frontier=((Fraction(2), Fraction(0)),)))
    assert checks.recheck_failures(((1, 2),), ((1, 2),)) == []
    assert checks.recheck_failures(((1, 2),), ((1, 3),))


def test_chunk_audit_sees_every_chunk(monkeypatch):
    real = sim_harness.run_episode

    def corrupted(*args, **kwargs):
        rep = real(*args, **kwargs)
        return replace(rep, violations=rep.violations + (("late", 0, 99),))

    monkeypatch.setattr(sim_harness, "run_episode", corrupted)
    cfg = rs.ChannelConfig(0.05, 0.05, 1, 2 * (P.T + 1))
    res = workloads.PassResult()
    with workloads.ChunkAudit(res) as audit:
        rs.loss_probability(P, cfg, mode="codec", trials=P.T + 4, scheme="both")
    assert audit.chunks == res.ops == res.failed == 2
    assert sim_harness.run_episode is corrupted


def test_admissible_pattern_is_dense_at_long_horizon():
    rng = np.random.default_rng(5)
    for n in (P.N1, P.N2):
        bits = workloads.admissible_pattern(rng, 20000, P.T, n)
        assert rs.is_admissible(rs.pattern_from_bits(bits), P.T, n)
        assert 0.15 < sum(bits) / len(bits) < 0.35


def test_tracer_splits_calls_by_binding_and_restores():
    original = rs.relay_codec.build_message_plan
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rs.run_episode(P, [1, 0, 0] * (2 * H // 3), [0] * 2 * H, 2 * H, header_mode=True)
    finally:
        tracer.uninstall()
    assert rs.relay_codec.build_message_plan is original
    assert rs.dest_codec.build_message_plan is original
    metrics = tracer.layer_metrics()
    assert metrics["relay_codec.build_message_plan.calls.relay"] > 0
    assert metrics["relay_codec.build_message_plan.calls.dest"] > 0
    assert metrics["relay_codec.build_message_plan.calls.verify"] == 0
    assert metrics["relay_codec.encode_header.calls"] == 2 * H
    assert metrics["sim_harness.run_episode.calls"] == 1
    assert 0 < metrics["relay_codec.build_message_plan.distinct_ratio"] <= 1
    tracer.require_calls(["relay_codec.decode_header"])
    with pytest.raises(layertrace.TraceError):
        tracer.require_calls(["sim_harness.exhaustive_verify"])


def test_tracer_fails_loudly_on_missing_name(monkeypatch):
    monkeypatch.setattr(layertrace, "SPANNED", layertrace.SPANNED + ("relay_codec.gone",))
    tracer = layertrace.Tracer()
    with pytest.raises(layertrace.TraceError):
        tracer.install()
    tracer.uninstall()
    assert rs.sim_harness.run_episode.__module__ == "relaystream.sim_harness"
