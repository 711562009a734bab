"""Parameter validation and closed-form rate/size calculators.

A scheme instance is described by (T, N1, N2, j): decoding deadline T slots
after each message, at most N1 erasures per sliding (T+1)-window on the
source->relay link, at most N2 on the relay->destination link, and subset
threshold j (the relay commits to the reduced-rate path once it has seen more
than j erasures early in a message's window).

All rates are exact `fractions.Fraction` values.  Sizes are exact ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .field_mds import is_prime_power


class InvalidParams(ValueError):
    """Parameter combination violates the scheme constraints."""


@dataclass(frozen=True)
class SchemeParams:
    """Validated (T, N1, N2, j) tuple."""

    T: int
    N1: int
    N2: int
    j: int

    def __post_init__(self):
        T, N1, N2, j = self.T, self.N1, self.N2, self.j
        for name, v in (("T", T), ("N1", N1), ("N2", N2), ("j", j)):
            if not isinstance(v, int):
                raise InvalidParams(f"{name} must be an int, got {v!r}")
        if N1 < 1:
            raise InvalidParams("N1 must be >= 1 (the relay must face erasures to adapt to)")
        if N2 < 0:
            raise InvalidParams("N2 must be >= 0")
        if T + 1 - N1 - N2 < 1:
            raise InvalidParams(f"need T+1-N1-N2 >= 1, got {T + 1 - N1 - N2}")
        if not (0 <= j <= N1 - 1):
            raise InvalidParams(f"need 0 <= j <= N1-1, got j={j}, N1={N1}")
        # the dataclass hash, worked out once: the codec looks its memos up
        # by parameter set at every slot and every message
        object.__setattr__(self, "_hash", hash((T, N1, N2, j)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dims(self) -> "DerivedDims":
        return derive_dims(self)


@dataclass(frozen=True)
class DerivedDims:
    """All code dimensions implied by a parameter set.

    First-hop code: l_prime diagonally interleaved (n_prime, k_prime) layers,
    k_src = k_prime * l_prime message symbols per slot, n1 source symbols.
    Second-hop per-message code (adaptive path): l_dprime layers of
    (n_dprime, k_dprime).  n2_star is the worst-case relay payload, delta the
    pattern-header length in symbols.
    """

    k_src: int
    n1: int
    k_prime: int
    n_prime: int
    l_prime: int
    k_dprime: int
    n_dprime: int
    l_dprime: int
    n2_star: int
    delta: int


@cache
def derive_dims(p: SchemeParams) -> DerivedDims:
    """Code dimensions of ``p``; cached, since every codec stage asks per call."""
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    k_prime = T + 1 - N1 - N2
    n_prime = T + 1 - N2
    l_prime = T + 1 - N2 - j
    k_dprime = T + 1 - N2 - j
    n_dprime = T + 1 - j
    l_dprime = T + 1 - N1 - N2
    return DerivedDims(
        k_src=k_prime * l_prime,
        n1=l_prime * n_prime,
        k_prime=k_prime,
        n_prime=n_prime,
        l_prime=l_prime,
        k_dprime=k_dprime,
        n_dprime=n_dprime,
        l_dprime=l_dprime,
        n2_star=worst_case_n2(p),
        delta=header_overhead(p),
    )


# ---------------------------------------------------------------------------
# rates


def rate_r1(T: int, N1: int, N2: int) -> Fraction:
    """First-hop rate (T+1-N1-N2)/(T+1-N2)."""
    if T + 1 - N1 - N2 < 1 or N1 < 0 or N2 < 0:
        raise InvalidParams(f"invalid (T={T}, N1={N1}, N2={N2}) for rate_r1")
    return Fraction(T + 1 - N1 - N2, T + 1 - N2)


def rate_r2(p: SchemeParams, include_header: bool = False) -> Fraction:
    """Second-hop rate k_src/n2_star (optionally counting the delta header)."""
    d = derive_dims(p)
    return Fraction(d.k_src, d.n2_star + (d.delta if include_header else 0))


def scheme_rate(p: SchemeParams) -> Fraction:
    """Overall rate min(R1, R2)."""
    return min(rate_r1(p.T, p.N1, p.N2), rate_r2(p))


def nonadaptive_rate(T: int, N1: int, N2: int) -> Fraction:
    """Baseline that always relays at the reduced rate on both hops."""
    k = T + 1 - N1 - N2
    if k < 1 or N1 < 0 or N2 < 0:
        raise InvalidParams(f"invalid (T={T}, N1={N1}, N2={N2}) for nonadaptive_rate")
    return min(Fraction(k, T + 1 - N2), Fraction(k, T + 1 - N1))


def optimal_j(T: int, N1: int, N2: int) -> tuple[int, Fraction]:
    """The j in [0, N1-1] maximizing min(R1, R2).

    Ties in the overall rate (which happen whenever R1 is the bottleneck for
    several j) are broken toward the larger R2, and remaining ties toward the
    smaller j (smaller field).
    """
    if N1 < 1 or T + 1 - N1 - N2 < 1 or N2 < 0:
        raise InvalidParams(f"invalid (T={T}, N1={N1}, N2={N2}) for optimal_j")
    best: tuple[Fraction, Fraction, int] | None = None
    for j in range(N1):
        p = SchemeParams(T, N1, N2, j)
        key = (scheme_rate(p), rate_r2(p), -j)
        if best is None or key > best:
            best = key
    assert best is not None
    return (-best[2], best[0])


# ---------------------------------------------------------------------------
# sizes


def worst_case_n2(p: SchemeParams) -> int:
    """Largest relay payload (symbols) over all admissible first-hop patterns."""
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    return (T + 1 - N2 - N1) * (T + 1 - N1) + (T + 1 - N2 - j) * (N1 - j)


def header_overhead(p: SchemeParams) -> int:
    """Symbols needed to describe T+1 erasure bits: ceil((T+1) * log_q 2).

    Uses the nominal alphabet q = T+1-j, which a valid parameter set keeps
    at q >= 2.  Computed exactly: the smallest d with q**d >= 2**(T+1).
    """
    q = p.T + 1 - p.j
    d = 1
    while q**d < 2 ** (p.T + 1):
        d += 1
    return d


def nominal_field_size(p: SchemeParams) -> int:
    """Field size the construction asks for: max(T+1-j, T+1-N2)."""
    return max(p.T + 1 - p.j, p.T + 1 - p.N2)


@cache
def implemented_field_size(p: SchemeParams) -> int:
    """Smallest prime power >= the nominal size (what the codecs run over).

    Cached per parameter set: the header codec asks once per packet.
    """
    return _prime_power_at_least(nominal_field_size(p))


def _prime_power_at_least(q: int) -> int:
    """The smallest prime power >= q (2 for any q below it)."""
    q = max(q, 2)
    while not is_prime_power(q):
        q += 1
    return q


def symbol_bits(p: SchemeParams) -> int:
    """Bits per transmitted symbol for the implemented field."""
    return (implemented_field_size(p) - 1).bit_length()


_ROLES = ("source", "relay", "nonadaptive-baseline")


def packet_size_bits(p: SchemeParams, role: str) -> int:
    """Worst-case wire size in bits of one packet for the given role.

    Header symbols are not counted: the default wire format carries the
    erasure-pattern side information out of band.
    """
    if role not in _ROLES:
        raise InvalidParams(f"unknown role {role!r}, expected one of {_ROLES}")
    d = p.dims
    if role == "source":
        symbols = d.n1
    elif role == "relay":
        symbols = d.n2_star
    else:  # the baseline relay forwards one (T+1-N1, T+1-N1-N2) codeword slice
        symbols = p.T + 1 - p.N1
    return symbols * symbol_bits(p)


# Reference points for the fully-adaptive (unbounded-size) relay
# strategy; we only reproduce these, never recompute them.
FULLY_ADAPTIVE_RATE = {(5, 2, 3): 0.33, (6, 2, 3): 0.48}
FULLY_ADAPTIVE_FIELD = {(5, 2, 3): 18, (15, 4, 6): 96}
FULLY_ADAPTIVE_PACKET_BYTES = {(15, 4, 6): 52788 * 2}


def summarize(p: SchemeParams) -> dict:
    """One-stop bundle used by the CLI `rates` and `sizes` subcommands."""
    d = p.dims
    return {
        "params": {"T": p.T, "N1": p.N1, "N2": p.N2, "j": p.j},
        "R1": rate_r1(p.T, p.N1, p.N2),
        "R2": rate_r2(p),
        "R2_with_header": rate_r2(p, include_header=True),
        "rate": scheme_rate(p),
        "nonadaptive_rate": nonadaptive_rate(p.T, p.N1, p.N2),
        "dims": d,
        "nominal_field": nominal_field_size(p),
        "implemented_field": implemented_field_size(p),
        "symbol_bits": symbol_bits(p),
        "source_packet_bits": packet_size_bits(p, "source"),
        "relay_packet_bits": packet_size_bits(p, "relay"),
        "baseline_packet_bits": packet_size_bits(p, "nonadaptive-baseline"),
    }
