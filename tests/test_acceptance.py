"""Acceptance gate: eleven release criteria, one test (and one printed
pass line) per criterion.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines alongside pytest's own PASSED/FAILED report.  The
whole file is sized to finish in well under the stated per-criterion
budgets on a single desktop core; the slowest entries are the full
parameter sweep (criterion 5) and the codec-vs-analytic cross-check
(criterion 8).
"""

import itertools
import math
import time
from fractions import Fraction

from plan_reference import compute_schedule
from relaystream.erasure_channel import ChannelConfig
from relaystream.field_mds import MdsCode, make_field
from relaystream.mac_region import MacParams, build_region
from relaystream.relay_codec import build_message_plan
from relaystream.scheme_params import (
    SchemeParams,
    derive_dims,
    implemented_field_size,
    nonadaptive_rate,
    packet_size_bits,
    rate_r2,
)
from relaystream.sim_harness import (
    all_valid_params,
    emit_figure_data,
    exhaustive_verify,
    loss_probability,
)

P523 = SchemeParams(T=5, N1=2, N2=3, j=0)
P623 = SchemeParams(T=6, N1=2, N2=3, j=1)
P1546 = SchemeParams(T=15, N1=4, N2=6, j=0)


def _ok(n: int, msg: str) -> None:
    print(f"[criterion {n:02d}] PASS - {msg}")


def test_criterion_01_rate_conformance():
    assert rate_r2(P523) == Fraction(3, 10)
    assert rate_r2(P623) == Fraction(6, 13)
    assert nonadaptive_rate(5, 2, 3) == Fraction(1, 4)
    assert nonadaptive_rate(6, 2, 3) == Fraction(2, 5)
    _ok(1, "R2 = 3/10 and 6/13, baselines 1/4 and 2/5 (exact)")


def test_criterion_02_packet_size_conformance():
    relay = packet_size_bits(P1546, "relay")
    base = packet_size_bits(P1546, "nonadaptive-baseline")
    assert relay == 448 and relay // 8 == 56
    assert base == 48 and base // 8 == 6
    _ok(2, "relay packet 448 bits (56 bytes), baseline 48 bits (6 bytes)")


def test_criterion_03_worst_case_payload():
    assert derive_dims(P523).n2_star == 10
    rep = exhaustive_verify(P523)
    assert rep.ok, rep.counterexample
    assert rep.payload_target == 10
    assert rep.max_payload == 10  # attained somewhere, never exceeded
    _ok(3, f"payload peak {rep.max_payload} == 10 over {rep.episodes_run} episodes")


def test_criterion_04_schedule_conformance():
    s1 = compute_schedule(P523, 1, True, [1, 0])
    assert s1.grouped
    assert s1.alpha == (0, 0, 3, 3, 3, 3)
    assert s1.alpha[1:3] == (0, 3)  # slots 2 and 3 carry 0 then 3 symbols
    s4 = compute_schedule(P623, 4, True, [0, 1, 0])
    assert s4.grouped
    assert s4.alpha == (0, 2, 1, 3, 3, 3, 3)
    assert s4.alpha[1:4] == (2, 1, 3)  # slots 5, 6, 7 carry 2, 1, 3 symbols
    _ok(4, "reference schedules (0,3)@slots2-3 and (2,1,3)@slots5-7 reproduced")


def _local_windows(p: SchemeParams):
    """All single-message erasure windows [t, t+T-N2] with <= N1 erasures."""
    width = p.T - p.N2 + 1
    for bits in itertools.product((0, 1), repeat=width):
        if sum(bits) <= p.N1:
            yield bits


def test_criterion_05_exhaustive_achievability():
    start = time.monotonic()
    params = list(all_valid_params())
    assert len(params) == 210
    failures = []
    for p in params:
        rep = exhaustive_verify(p)
        if not rep.ok:
            failures.append((p, rep.counterexample))
    assert not failures, failures
    _ok(5, f"{len(params)} parameter sets verified clean "
           f"in {time.monotonic() - start:.1f}s")


def test_criterion_06_grouped_parity_distribution():
    """w erased relay slots never cost a concatenated codeword more than w
    symbols, because no two symbols of one codeword share a slot."""
    violations = 0
    grouped_plans = 0
    for p in all_valid_params():
        for window in _local_windows(p):
            look = lambda s: 0 <= s < len(window) and window[s] == 1
            plan = build_message_plan(p, look, 0)
            grouped_plans += plan.schedule.grouped
            for cw in plan.codewords:
                slots = [plan.tx[i].slot for i in cw.sys_items]
                slots += [s for s, _ in cw.parity_slots]
                violations += len(slots) - len(set(slots))
    assert grouped_plans > 0
    assert violations == 0
    _ok(6, f"0 slot collisions across {grouped_plans} grouped schedules")


def test_criterion_07_mds_and_field_layer():
    start = time.monotonic()
    triples = set()
    for p in all_valid_params():
        q = implemented_field_size(p)
        d = derive_dims(p)
        triples.add((q, d.n_prime, d.k_prime))
        triples.add((q, d.n_dprime, d.k_dprime))
        triples.add((q, p.T + 1 - p.N1, d.l_dprime))

    fields = sorted({q for q, _, _ in triples})
    assert max(fields) <= 64
    for q in fields:
        f = make_field(q)
        elems = range(q)
        for a in elems:
            assert f.mul(a, 1) == a and f.add(a, 0) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in elems:
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems if q <= 8 else (1, q - 1):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    decoded_sets = 0
    for q, n, k in sorted(triples):
        f = make_field(q)
        code = MdsCode(f, n, k)
        msg = [(3 * i + 1) % q for i in range(k)]
        word = code.encode(msg)
        for erased in itertools.combinations(range(n), n - k):
            kept = [(i, word[i]) for i in range(n) if i not in erased]
            assert code.erasure_decode(kept) == msg
            decoded_sets += 1
    _ok(7, f"{len(triples)} (q,n,k) codes, {decoded_sets} erasure sets decoded, "
           f"axioms for q in {fields} ({time.monotonic() - start:.1f}s)")


def test_criterion_08_loss_cross_validation():
    start = time.monotonic()
    report = []
    for eps in (0.02, 0.05, 0.1):
        cfg = ChannelConfig(eps, eps, 7, 256)
        est_a = loss_probability(P523, cfg, mode="analytic", trials=10**5)
        est_c = loss_probability(P523, cfg, mode="codec", trials=10**5)
        gap = est_c.probability - est_a.probability
        combined = math.hypot(est_a.stderr, est_c.stderr)
        assert abs(gap) <= 3 * combined, (eps, gap, combined)
        sigmas = gap / combined if combined else 0.0
        report.append(f"eps={eps}: bias {gap:+.2e} ({sigmas:+.2f} sigma)")
    _ok(8, "analytic vs codec within 3 combined stderr at 1e5 trials; "
           + "; ".join(report) + f" ({time.monotonic() - start:.1f}s)")


def test_criterion_09_loss_curve_properties():
    start = time.monotonic()
    # monotone nondecreasing in alpha = beta at fixed parameters
    p_mono = SchemeParams(26, 2, 16, 0)
    curves = {"adaptive": [], "nonadaptive": []}
    for eps in (0.02, 0.04, 0.06, 0.08, 0.1):
        cfg = ChannelConfig(eps, eps, 11, 512)
        both = loss_probability(p_mono, cfg, mode="analytic", trials=10**6,
                                scheme="both")
        for name, est in both.items():
            curves[name].append(est.probability)
    for name, vals in curves.items():
        assert all(a <= b for a, b in zip(vals, vals[1:])), (name, vals)

    # rate-matched comparison on a T=7, N1=2 sweep at alpha=0.05, beta=0.08
    cfg = ChannelConfig(0.05, 0.08, 11, 512)
    adaptive = {}
    baseline = {}
    for n2 in (2, 3, 4, 5):
        p = SchemeParams(7, 2, n2, 0)
        both = loss_probability(p, cfg, mode="analytic", trials=10**6,
                                scheme="both")
        adaptive[n2] = (rate_r2(p), both["adaptive"].probability)
        baseline[n2] = (nonadaptive_rate(7, 2, n2), both["nonadaptive"].probability)
    sub_rate, sub_loss = min(adaptive.values())  # lowest-rate adaptive point
    rivals = [loss for rate, loss in baseline.values() if rate >= sub_rate]
    assert rivals and all(sub_loss <= r for r in rivals), (sub_loss, rivals)
    _ok(9, f"loss monotone in erasure rate; adaptive {sub_rate} point "
           f"({sub_loss:.2e}) beats every baseline at rate >= {sub_rate} "
           f"(best rival {min(rivals):.2e}; {time.monotonic() - start:.1f}s)")


def test_criterion_10_mac_region():
    mac = MacParams(T=7, N1=3, N2=2, N3=4, j1=2, j2=1)
    region = build_region(mac, mix_bound=16)
    assert (Fraction(1, 4), Fraction(0)) in region.points
    assert (Fraction(0), Fraction(2, 5)) in region.points
    assert region.bound1 == Fraction(1, 4) and region.bound2 == Fraction(1, 2)
    assert all(r1 <= region.bound1 and r2 <= region.bound2
               for r1, r2 in region.points)
    assert region.sumrate_bound == Fraction(1, 3)
    over = [pt for pt in region.points if pt[0] + pt[1] > Fraction(1, 3)]
    assert over
    _ok(10, f"corners (1/4,0) and (0,2/5) present, bounds hold, "
            f"{len(over)}/{len(region.points)} points beat sumrate 1/3")


def test_criterion_11_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        emit_figure_data(5, str(path), trials=2000, seed=3, horizon=128)
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    from relaystream.mac_region import emit_region_csv

    mac = MacParams(T=7, N1=3, N2=2, N3=4, j1=2, j2=1)
    for path in (c, d):
        emit_region_csv(mac, str(path), mix_bound=12)
    assert c.read_bytes() == d.read_bytes()
    _ok(11, "seeded figure and region CSVs are byte-identical across runs")
