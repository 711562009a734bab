"""Two-user rate region obtained by time-sharing the relayed streaming code.

Two independent sources stream through one relay.  Source i's link to the
relay tolerates N_i erasures per sliding window, the shared relay-to-
destination link tolerates N3, and both users face the same deadline T.
Each user runs its own single-user code (with threshold j_i); the relay
serves them by concatenating its per-user payloads, so any mix of A user-1
streams and B user-2 streams is achievable as long as every link keeps up
with the widest packet it must carry.  Enumerating integer mixes (A, B)
yields an inner bound on the achievable (R1, R2) region, which this module
builds exactly together with its Pareto frontier and the reference bounds
it is compared against: each point is deduplicated, sorted and compared as
a reduced integer triple, and becomes a pair of Fractions only when it is
returned.
"""

import itertools
from math import gcd
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .erasure_channel import _burst_family
from .scheme_params import InvalidParams, SchemeParams, _prime_power_at_least, derive_dims
from .sim_harness import _write_csv

__all__ = [
    "MacParams",
    "RateRegion",
    "MacSpotReport",
    "pp_capacity",
    "build_region",
    "region_field_size",
    "emit_region_csv",
    "interleaved_spot_check",
]


def pp_capacity(T: int, N: int) -> Fraction:
    """Point-to-point streaming capacity (T+1-N)/(T+1).

    This is the best rate at which a single link with deadline T can survive
    N erasures per window; the region's individual and sumrate bounds are
    instances of it.
    """
    if T < 0 or N < 0 or N > T:
        raise InvalidParams(f"capacity needs 0 <= N <= T, got T={T}, N={N}")
    return Fraction(T + 1 - N, T + 1)


@dataclass(frozen=True)
class MacParams:
    """Two-user parameters: per-source first-link budgets N1/N2, shared
    relay-link budget N3, common deadline T, per-user thresholds j1/j2."""

    T: int
    N1: int
    N2: int
    N3: int
    j1: int = 0
    j2: int = 0

    def __post_init__(self):
        # each user must individually form a valid single-user scheme
        self.user(1)
        self.user(2)

    def user(self, which: int) -> SchemeParams:
        """Single-user parameters seen by user 1 or 2 (its own first link
        plus the shared relay link)."""
        if which == 1:
            return SchemeParams(self.T, self.N1, self.N3, self.j1)
        if which == 2:
            return SchemeParams(self.T, self.N2, self.N3, self.j2)
        raise InvalidParams(f"user index must be 1 or 2, got {which}")


RatePair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class RateRegion:
    """Achievable rate pairs for one MacParams, all exact rationals.

    points: every pair produced by some integer mix (A, B), deduplicated.
    frontier: the mutually nondominated subset, sorted by decreasing R1.
    bound1/bound2: per-user ceilings C(T-N3, N_i).
    sumrate_bound: the nonadaptive reference line C(T-N2, N3).
    """

    mac: MacParams
    mix_bound: int
    points: tuple[RatePair, ...]
    frontier: tuple[RatePair, ...]
    bound1: Fraction
    bound2: Fraction
    sumrate_bound: Fraction
    notes: tuple[str, ...] = field(default=())

    def exceeds_sumrate(self) -> tuple[int, int]:
        """(#points with R1+R2 > sumrate_bound, #points total), counted in
        integers by ``_over_sumrate``."""
        return _over_sumrate(self.points, self.sumrate_bound), len(self.points)


def _over_sumrate(points: Iterable[RatePair], bound: Fraction) -> int:
    """How many (R1, R2) = (a/b, c/d) of ``points`` have R1+R2 > bound =
    n/m, cross-multiplied: (a*d + c*b)*m > n*b*d."""
    n, m = bound.numerator, bound.denominator
    over = 0
    for r1, r2 in points:
        b, d = r1.denominator, r2.denominator
        over += (r1.numerator * d + r2.numerator * b) * m > n * b * d
    return over


def _maximal(ranked) -> list:
    """The items of ``ranked``, (r2, item) pairs in decreasing (r1, r2)
    order, that no earlier item dominates.  r1 never increases along the
    sweep, so only r2 can disqualify; the strict test also drops
    duplicates."""
    best, top = [], None
    for r2, item in ranked:
        if top is None or r2 > top:
            best.append(item)
            top = r2
    return best


def _per_user_sizes(p: SchemeParams) -> tuple[int, int, int]:
    """(message symbols, first-link packet symbols, worst relay payload)."""
    d = derive_dims(p)
    return d.k_src, d.n1, d.n2_star


def _mix_triples(mac: MacParams, mix_bound: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(scale, triples): the rate pair of every mix as the reduced integer
    triple (x, y, z) of (R1, R2) = (x, y)/z, deduplicated and sorted by
    rate.  Two rates whose denominators are at most Z differ by at least
    1/Z^2, so with scale = Z^2 the integer floor(scale * rate) orders them
    exactly as the rates."""
    k1, n1_1, nr_1 = _per_user_sizes(mac.user(1))
    k2, n1_2, nr_2 = _per_user_sizes(mac.user(2))
    triples = set()
    for a in range(mix_bound + 1):
        for b in range(mix_bound + 1):
            if a + b == 0:
                continue
            x, y = a * k1, b * k2
            z = max(a * n1_1, b * n1_2, a * nr_1 + b * nr_2)
            g = gcd(x, y, z)
            triples.add((x // g, y // g, z // g))
    scale = max(z for _, _, z in triples) ** 2
    return scale, sorted(triples, key=lambda t: (scale * t[0] // t[2], scale * t[1] // t[2]))


def build_region(mac: MacParams, mix_bound: int = 64) -> RateRegion:
    """Enumerate integer mixes (A, B) in [0, mix_bound]^2, A+B >= 1.

    A mix carries A user-1 and B user-2 streams in parallel.  Per slot the
    three links move A*n1_1, B*n1_2 and A*nr_1 + B*nr_2 symbols; dividing
    the delivered message symbols by the widest of those normalizes to one
    symbol per channel use:

        (R1, R2) = (A*k_1, B*k_2) / max(A*n1_1, B*n1_2, A*nr_1 + B*nr_2)

    The points are sorted by exact integer keys and the bounds are checked
    by cross-multiplication; the returned region is what sorting the
    Fraction pairs would give.
    """
    if mix_bound < 1:
        raise InvalidParams(f"mix_bound must be >= 1, got {mix_bound}")
    scale, triples = _mix_triples(mac, mix_bound)
    points = tuple((Fraction(x, z), Fraction(y, z)) for x, y, z in triples)
    ranked = zip(reversed(triples), reversed(points))
    frontier = _maximal((scale * xyz[1] // xyz[2], (xyz, point)) for xyz, point in ranked)
    bound1 = pp_capacity(mac.T - mac.N3, mac.N1)
    bound2 = pp_capacity(mac.T - mac.N3, mac.N2)
    sumrate = pp_capacity(mac.T - mac.N2, mac.N3)

    for (x, y, z), (r1, r2) in frontier:
        # r1 > bound1 or r2 > bound2, cross-multiplied
        if x * bound1.denominator > bound1.numerator * z or (
            y * bound2.denominator > bound2.numerator * z
        ):
            # should be impossible; keep it loud rather than silently wrong
            raise AssertionError(
                f"frontier point ({r1}, {r2}) violates per-user bounds "
                f"({bound1}, {bound2}) for {mac}"
            )
    over = _over_sumrate(points, sumrate)
    notes = (f"{over}/{len(points)} points exceed the sumrate reference {sumrate}",)

    return RateRegion(
        mac=mac,
        mix_bound=mix_bound,
        points=points,
        frontier=tuple(point for _, point in frontier),
        bound1=bound1,
        bound2=bound2,
        sumrate_bound=sumrate,
        notes=notes,
    )


def region_field_size(mac: MacParams) -> tuple[int, int]:
    """(nominal, implemented) common field for a two-user deployment.

    Nominal is max(T+1-j1, T+1-j2); implemented is the smallest prime power
    at least that large.  Each user's own codec may still round up further
    if its single-user requirement is bigger (see decode field note in
    scheme_params.implemented_field_size).
    """
    nominal = max(mac.T + 1 - mac.j1, mac.T + 1 - mac.j2)
    return nominal, _prime_power_at_least(nominal)


def emit_region_csv(mac: MacParams, path, mix_bound: int = 64) -> None:
    """Write the region to CSV: R1, R2, on_frontier, sumrate_bound.

    Parameters are echoed in a leading comment line so the file is
    self-describing; rates are exact-fraction strings to keep the file
    byte-stable and lossless.
    """
    _write_region_csv(build_region(mac, mix_bound), path)


def _write_region_csv(region: RateRegion, path) -> None:
    """Write ``region`` as ``emit_region_csv`` does, without building it."""
    mac, mix_bound = region.mac, region.mix_bound
    frontier = set(region.frontier)
    comment = (
        f"two-user region T={mac.T} N1={mac.N1} N2={mac.N2} N3={mac.N3} "
        f"j1={mac.j1} j2={mac.j2} mix_bound={mix_bound} "
        f"bounds=({region.bound1},{region.bound2}) "
        f"sumrate_bound={region.sumrate_bound}"
    )
    rows = [
        (str(r1), str(r2), int((r1, r2) in frontier), str(region.sumrate_bound))
        for r1, r2 in region.points
    ]
    _write_csv(path, comment, ("R1", "R2", "on_frontier", "sumrate_bound"), rows)


# ---------------------------------------------------------------------------
# codec-level spot check of the time-sharing argument


@dataclass
class MacSpotReport:
    mac: MacParams
    horizon: int
    episodes: int = 0
    failures: tuple = ()
    user_episodes: tuple = (0, 0)  # episodes run for user 1 and user 2

    @property
    def ok(self) -> bool:
        return not self.failures


def interleaved_spot_check(mac: MacParams, budget: int = 48) -> MacSpotReport:
    """Run both users' codecs end to end against a shared relay-link pattern.

    In a mixed deployment every relay packet concatenates both users'
    payloads, so one erasure on the relay link hits both streams in the same
    slot.  Parallel copies of the same user are byte-identical runs, so the
    mix sizes (A, B) only enter the rate arithmetic; what needs checking at
    codec level is that each user still decodes every message by its
    deadline when the relay-link erasures are drawn from the *shared* budget
    N3.  This probes burst patterns on all three links (each admissible for
    its own budget) up to `budget` episodes, split evenly between the two
    users (user 1 gets the odd one), and reports any failure.  A budget
    below 2 would leave a user unchecked, so it raises ``InvalidParams``.
    Each episode spans 2(T+1) slots and draws its messages from seed 0.
    """
    if budget < 2:
        raise InvalidParams(f"budget must be >= 2 to check both users, got {budget}")
    # resolved at call time, not imported with the module, so that a test
    # patching sim_harness.run_episode reaches the episodes run here
    from .sim_harness import run_episode

    T = mac.T
    window = T + 1
    horizon = 2 * window

    shared = _burst_family(
        horizon, mac.N3, list(range(0, horizon - mac.N3 + 1, max(1, window // 2)))
    )
    report = MacSpotReport(mac=mac, horizon=horizon)
    failures = []
    per_user = []
    shares = (budget - budget // 2, budget // 2)
    for which, first_budget, share in ((1, mac.N1, shares[0]), (2, mac.N2, shares[1])):
        p = mac.user(which)
        first = _burst_family(horizon, first_budget, [0, p.j + 1, T])
        pairs = list(itertools.islice(itertools.product(shared, first), share))
        for e3, e1 in pairs:
            ep = run_episode(p, e1, e3, horizon=horizon, seed=0)
            if not ep.ok:
                failures.append((which, tuple(e1), tuple(e3), ep.failed, ep.violations))
        per_user.append(len(pairs))
    report.episodes = sum(per_user)
    report.user_episodes = tuple(per_user)
    report.failures = tuple(failures)
    return report
