"""Two-user rate region: capacity helper, region enumeration, spot checks.

Reference numbers use exact rationals throughout; frozen values were computed
by hand from (T+1-N)/(T+1) and the per-user size formulas.
"""

import csv
import dataclasses
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaystream import sim_harness
from relaystream.mac_region import (
    MacParams,
    RatePair,
    RateRegion,
    _maximal,
    _per_user_sizes,
    build_region,
    emit_region_csv,
    interleaved_spot_check,
    pp_capacity,
    region_field_size,
)
from relaystream.scheme_params import InvalidParams, SchemeParams

MAC = MacParams(T=7, N1=3, N2=2, N3=4, j1=2, j2=1)
OTHER_MAC = MacParams(T=10, N1=2, N2=4, N3=3, j1=1, j2=2)
DATA = Path(__file__).parent / "data"


def pareto_frontier(points: Iterable[RatePair]) -> tuple[RatePair, ...]:
    """Maximal elements under componentwise >=, sorted by decreasing R1."""
    return tuple(_maximal((r2, (r1, r2)) for r1, r2 in sorted(points, reverse=True)))


def test_pp_capacity_values():
    assert pp_capacity(5, 4) == Fraction(1, 3)
    assert pp_capacity(3, 3) == Fraction(1, 4)
    assert pp_capacity(3, 2) == Fraction(1, 2)
    assert pp_capacity(7, 0) == 1
    assert pp_capacity(7, 7) == Fraction(1, 8)


def test_pp_capacity_rejects_invalid():
    with pytest.raises(InvalidParams):
        pp_capacity(3, 4)  # N > T
    with pytest.raises(InvalidParams):
        pp_capacity(3, -1)
    with pytest.raises(InvalidParams):
        pp_capacity(-1, 0)


def test_mac_params_users():
    assert MAC.user(1) == SchemeParams(7, 3, 4, 2)
    assert MAC.user(2) == SchemeParams(7, 2, 4, 1)
    with pytest.raises(ValueError):
        MAC.user(3)


def test_mac_params_validates_both_users():
    with pytest.raises(InvalidParams):
        MacParams(T=7, N1=4, N2=2, N3=4)  # user 1: T+1-N1-N3 < 1
    with pytest.raises(InvalidParams):
        MacParams(T=7, N1=3, N2=2, N3=4, j1=3)  # j1 > N1-1


def test_region_reference_case():
    region = build_region(MAC)
    pts = set(region.points)
    # pure single-user corners
    assert (Fraction(1, 4), Fraction(0)) in pts
    assert (Fraction(0), Fraction(2, 5)) in pts
    # per-user bounds hold everywhere
    assert region.bound1 == Fraction(1, 4)
    assert region.bound2 == Fraction(1, 2)
    assert all(r1 <= region.bound1 and r2 <= region.bound2 for r1, r2 in pts)
    # the region pushes past the nonadaptive sumrate reference
    assert region.sumrate_bound == Fraction(1, 3)
    over, total = region.exceeds_sumrate()
    assert over > 0
    assert any(r1 + r2 > Fraction(1, 3) for r1, r2 in region.frontier)
    # frontier spans both corner extents
    assert max(r1 for r1, _ in region.frontier) == Fraction(1, 4)
    assert max(r2 for _, r2 in region.frontier) == Fraction(2, 5)


def test_region_frontier_is_nondominated_and_sorted():
    region = build_region(MAC, mix_bound=24)
    f = region.frontier
    assert all(f[i][0] > f[i + 1][0] and f[i][1] < f[i + 1][1] for i in range(len(f) - 1))
    for pt in region.points:
        assert any(fr[0] >= pt[0] and fr[1] >= pt[1] for fr in f), pt


def test_region_grows_with_mix_bound():
    small = build_region(MAC, mix_bound=1)
    big = build_region(MAC, mix_bound=8)
    assert len(small.points) <= 3  # (1,0), (0,1), (1,1)
    assert set(small.points).issubset(set(big.points))
    # frontier only improves when finer mixes appear
    for r1, r2 in small.frontier:
        assert any(b1 >= r1 and b2 >= r2 for b1, b2 in big.frontier)


def region_reference(mac: MacParams, mix_bound: int) -> RateRegion:
    """``build_region`` in Fractions throughout: every mix's rate pair
    deduplicated in a set, sorted, and the sumrate excess counted by
    Fraction sums."""
    k1, n1_1, nr_1 = _per_user_sizes(mac.user(1))
    k2, n1_2, nr_2 = _per_user_sizes(mac.user(2))
    pts = set()
    for a in range(mix_bound + 1):
        for b in range(mix_bound + 1):
            if a + b:
                denom = max(a * n1_1, b * n1_2, a * nr_1 + b * nr_2)
                pts.add((Fraction(a * k1, denom), Fraction(b * k2, denom)))
    points = tuple(sorted(pts))
    sumrate = pp_capacity(mac.T - mac.N2, mac.N3)
    over = sum(1 for r1, r2 in pts if r1 + r2 > sumrate)
    return RateRegion(
        mac=mac,
        mix_bound=mix_bound,
        points=points,
        frontier=pareto_frontier(points),
        bound1=pp_capacity(mac.T - mac.N3, mac.N1),
        bound2=pp_capacity(mac.T - mac.N3, mac.N2),
        sumrate_bound=sumrate,
        notes=(f"{over}/{len(pts)} points exceed the sumrate reference {sumrate}",),
    )


@pytest.mark.parametrize("mac", [MAC, OTHER_MAC, MacParams(T=4, N1=1, N2=2, N3=1, j1=0, j2=1)])
def test_region_equals_the_fraction_reference(mac):
    """The integer-keyed region equals the all-Fraction one field for
    field, order included, at every mix bound up to 24 and at 64."""
    for mix_bound in [*range(1, 25), 64]:
        region = build_region(mac, mix_bound)
        want = region_reference(mac, mix_bound)
        assert region == want, (mac, mix_bound)
        assert region.notes == want.notes
        assert all(type(r) is Fraction for pt in region.points for r in pt)


REGION_PINS = {
    "region_T7_N1_3_N2_2_N3_4_j1_2_j2_1.csv": (MAC, 64),
    "region_T10_N1_2_N2_4_N3_3_j1_1_j2_2_mix40.csv": (OTHER_MAC, 40),
}


@pytest.mark.parametrize("name", sorted(REGION_PINS))
def test_region_csv_matches_the_golden_file(name, tmp_path):
    """``emit_region_csv`` bytes against files written before the region
    was built on integer keys: the CLI's ``mac`` example (mix bound 64) and
    a set whose users differ in every size."""
    mac, mix_bound = REGION_PINS[name]
    emit_region_csv(mac, tmp_path / name, mix_bound)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_region_rejects_bad_mix_bound():
    with pytest.raises(InvalidParams):
        build_region(MAC, mix_bound=0)


def test_pareto_frontier_helper():
    pts = [
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(1)),
        (Fraction(0), Fraction(0)),
    ]
    assert pareto_frontier(pts) == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))


@given(
    st.lists(
        st.tuples(st.fractions(0, 3), st.fractions(0, 3)), min_size=1, max_size=40
    )
)
@settings(max_examples=60, deadline=None)
def test_pareto_frontier_property(pts):
    f = pareto_frontier(pts)
    # every input point is dominated by some frontier point
    for pt in pts:
        assert any(fr[0] >= pt[0] and fr[1] >= pt[1] for fr in f)
    # no frontier point dominates another
    for a in f:
        for b in f:
            if a != b:
                assert not (a[0] >= b[0] and a[1] >= b[1])


def test_region_field_size():
    assert region_field_size(MAC) == (7, 7)
    assert region_field_size(MacParams(T=7, N1=3, N2=2, N3=4)) == (8, 8)
    assert region_field_size(MacParams(T=5, N1=1, N2=1, N3=2, j1=0, j2=0)) == (6, 7)


def test_emit_region_csv(tmp_path):
    path = tmp_path / "region.csv"
    emit_region_csv(MAC, str(path), mix_bound=12)
    text = path.read_text()
    assert text.startswith("# ")
    rows = list(csv.reader(text.splitlines()[1:]))
    header, body = rows[0], rows[1:]
    assert header == ["R1", "R2", "on_frontier", "sumrate_bound"]
    region = build_region(MAC, mix_bound=12)
    assert len(body) == len(region.points)
    # corners present as exact fraction strings
    assert ["1/4", "0", "1", "1/3"] in body
    got_frontier = {(r[0], r[1]) for r in body if r[2] == "1"}
    want_frontier = {(str(r1), str(r2)) for r1, r2 in region.frontier}
    assert got_frontier == want_frontier
    # deterministic output
    emit_region_csv(MAC, str(tmp_path / "b.csv"), mix_bound=12)
    assert (tmp_path / "b.csv").read_bytes() == path.read_bytes()


def test_interleaved_spot_check_passes():
    rep = interleaved_spot_check(MAC, budget=12)
    assert rep.ok, rep.failures
    assert rep.episodes > 0
    assert rep.failures == ()


def test_interleaved_spot_check_splits_budget_between_users():
    rep = interleaved_spot_check(MAC, budget=10)
    assert rep.ok, rep.failures
    assert rep.user_episodes == (5, 5)
    assert rep.episodes == 10
    odd = interleaved_spot_check(MAC, budget=3)
    assert odd.user_episodes == (2, 1)
    assert interleaved_spot_check(MAC, budget=2).user_episodes == (1, 1)


@pytest.mark.parametrize("budget", [0, 1, -3])
def test_interleaved_spot_check_rejects_a_budget_that_skips_a_user(budget):
    """Below 2 episodes one user would go unchecked (or, below 0, the split
    would be negative), so the spot check refuses the budget rather than
    pass with no episode of that user."""
    with pytest.raises(InvalidParams, match="budget"):
        interleaved_spot_check(MAC, budget=budget)


def test_interleaved_spot_check_reports_every_failed_episode(monkeypatch):
    """With every episode reporting message 0 FAILED, the spot check fails
    and records each of its episodes once, tagged with its user."""
    real = sim_harness.run_episode

    def failing(*args, **kw):
        return dataclasses.replace(real(*args, **kw), failed=(0,))

    monkeypatch.setattr(sim_harness, "run_episode", failing)
    rep = interleaved_spot_check(MAC, budget=3)
    assert not rep.ok
    assert [f[0] for f in rep.failures] == [1, 1, 2]
    assert all(f[3] == (0,) for f in rep.failures)
    assert rep.user_episodes == (2, 1)
