"""Finite-field arithmetic and MDS erasure codes.

The frozen expectations here were derived by hand (small-field log tables,
polynomial evaluation) or cross-checked against exhaustive search, so these
tests are independent of the implementation under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_reference import erasure_decode_reference
from relaystream.field_mds import (
    DimensionMismatch,
    GaloisField,
    InconsistentSymbols,
    InsufficientSymbols,
    LengthExceedsField,
    MdsCode,
    NotPrimePower,
    SingularMatrix,
    invert_matrix,
    is_prime_power,
    make_field,
    solve_linear,
)

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_is_prime_power_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
    yes = primes | {4, 8, 9, 16, 25, 27, 32, 49, 64}
    for q in range(2, 65):
        assert is_prime_power(q) == (q in yes), q
    assert not is_prime_power(1)
    assert not is_prime_power(0)


@pytest.mark.parametrize("q", [1, 6, 10, 12, 15, 18])
def test_make_field_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePower):
        make_field(q)


@pytest.mark.parametrize("q", SMALL_FIELDS + [25, 27, 32, 49, 64])
def test_field_axioms(q):
    """Full axiom sweep for every field the schemes can instantiate (q <= 64);
    exhaustive on small fields, spot-checked triples on the larger ones."""
    f = make_field(q)
    els = list(range(q))
    pairs = (
        itertools.product(els, els)
        if q <= 16
        else [(a, b) for a in els[:: max(1, q // 11)] for b in els[:: max(1, q // 13)]]
    )
    for a, b in pairs:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if b != 0:
            assert f.mul(f.div(a, b), b) == a
        # distributivity against a shifted third element
        c = (a + b) % q
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.mul(a, 1) == a
        assert f.add(a, 0) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("q", SMALL_FIELDS + [25, 27, 32, 49, 64])
def test_tables_match_the_raw_arithmetic(q):
    """Every MUL/ADD/SUB entry against the polynomial product and against
    digit-wise addition and subtraction mod p of the base-p encodings."""
    f = make_field(q)
    p, m = f.p, f.m

    def digits(x):
        return [(x // p**i) % p for i in range(m)]

    for a in range(q):
        for b in range(q):
            assert f.MUL[a][b] == f._raw_mul(a, b), (a, b)
            assert f.ADD[a][b] == f._raw_add(a, b), (a, b)
            assert f.SUB[a][b] == f._raw_add(a, f._raw_neg(b)), (a, b)
            da, db = digits(a), digits(b)
            assert digits(f.ADD[a][b]) == [(x + y) % p for x, y in zip(da, db)], (a, b)
            assert digits(f.SUB[a][b]) == [(x - y) % p for x, y in zip(da, db)], (a, b)


def test_fields_stop_at_the_table_cap():
    """GF(256) builds its tables (spot-checked); larger fields are refused."""
    f = make_field(256)
    for a, b in [(1, 255), (2, 128), (255, 255), (17, 200), (254, 3)]:
        assert f.MUL[a][b] == f._raw_mul(a, b)
        assert f.ADD[a][b] == a ^ b == f.SUB[a][b]
    for q in (257, 343, 65521):
        assert is_prime_power(q)
        with pytest.raises(NotPrimePower):
            make_field(q)


def test_gf7_known_values():
    f = make_field(7)
    assert f.mul(3, 5) == 1  # 15 mod 7
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.div(6, 4) == f.mul(6, f.inv(4))


def test_gf8_known_values():
    # GF(8) with the usual x^3 + x + 1 reduction: x * x^2 = x^3 = x + 1
    f = make_field(8)
    assert f.add(5, 5) == 0  # characteristic 2
    assert f.mul(2, 4) == 3


def test_solve_linear_and_inverse():
    f = make_field(7)
    rows = [[1, 2], [3, 4]]
    sol = solve_linear(f, rows, [5, 6])
    for r, want in zip(rows, [5, 6]):
        acc = 0
        for c, x in zip(r, sol):
            acc = f.add(acc, f.mul(c, x))
        assert acc == want
    inv = invert_matrix(f, rows)
    for i in range(2):
        for k in range(2):
            acc = 0
            for m in range(2):
                acc = f.add(acc, f.mul(rows[i][m], inv[m][k]))
            assert acc == (1 if i == k else 0)


def test_solve_linear_errors():
    f = make_field(5)
    with pytest.raises(SingularMatrix):
        solve_linear(f, [[1, 2], [2, 4]], [1, 0])
    with pytest.raises(DimensionMismatch):
        solve_linear(f, [[1, 2]], [1])


def test_mds_code_needs_room_in_field():
    with pytest.raises(LengthExceedsField):
        MdsCode(make_field(4), 5, 2)


def test_mds_systematic_prefix():
    code = MdsCode(make_field(7), 6, 3)
    msg = [3, 1, 4]
    cw = code.encode(msg)
    assert len(cw) == 6
    assert cw[:3] == msg


@pytest.mark.parametrize(
    "q,n,k",
    [(7, 6, 3), (7, 4, 1), (7, 5, 2), (5, 4, 2), (8, 7, 4), (11, 10, 6)],
)
def test_all_erasure_sets_decode(q, n, k):
    """Any n-k erasures leave a decodable codeword -- the defining property."""
    field = make_field(q)
    code = MdsCode(field, n, k)
    msg = [(3 * i + 1) % q for i in range(k)]
    cw = code.encode(msg)
    for erased in itertools.combinations(range(n), n - k):
        received = [(i, cw[i]) for i in range(n) if i not in erased]
        assert code.erasure_decode(received) == msg, erased


def test_decode_rejects_too_few_symbols():
    code = MdsCode(make_field(7), 6, 3)
    cw = code.encode([1, 2, 3])
    with pytest.raises(InsufficientSymbols):
        code.erasure_decode([(0, cw[0]), (1, cw[1])])


def test_decode_flags_corrupted_surplus():
    code = MdsCode(make_field(7), 6, 3)
    cw = code.encode([1, 2, 3])
    received = [(i, cw[i]) for i in range(6)]
    received[5] = (5, (cw[5] + 1) % 7)
    with pytest.raises(InconsistentSymbols):
        code.erasure_decode(received)


def test_decode_dedupes_repeated_positions():
    code = MdsCode(make_field(7), 6, 3)
    cw = code.encode([4, 0, 2])
    received = [(0, cw[0]), (0, cw[0]), (1, cw[1]), (2, cw[2]), (3, cw[3])]
    assert code.erasure_decode(received) == [4, 0, 2]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_k_subsets_decode(data):
    q, n, k = data.draw(
        st.sampled_from([(7, 6, 3), (8, 7, 3), (9, 8, 5), (13, 12, 7)])
    )
    field = make_field(q)
    code = MdsCode(field, n, k)
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    cw = code.encode(msg)
    keep = data.draw(st.permutations(range(n)))[:k]
    assert code.erasure_decode([(i, cw[i]) for i in keep]) == msg


def test_parity_matrix_matches_encode():
    field = make_field(7)
    code = MdsCode(field, 6, 3)
    msg = [2, 5, 6]
    cw = code.encode(msg)
    for m in range(3):
        acc = 0
        for pos in range(3):
            acc = field.add(acc, field.mul(code.parity[pos][m], msg[pos]))
        assert acc == cw[3 + m]


def test_field_is_cached_or_cheap_to_rebuild():
    a, b = make_field(16), make_field(16)
    assert isinstance(a, GaloisField) and isinstance(b, GaloisField)
    assert a.q == b.q == 16


def test_decode_flags_corrupted_surplus_with_cached_inverse():
    """The inverse of a decoding system is cached per position set; a
    second decode that reuses it must still check the surplus symbols."""
    code = MdsCode(make_field(7), 6, 3)
    cw = code.encode([1, 2, 3])
    assert code.erasure_decode([(i, cw[i]) for i in range(6)]) == [1, 2, 3]
    assert (0, 1, 2) in code._inverses
    received = [(i, cw[i]) for i in range(6)]
    received[4] = (4, (cw[4] + 1) % 7)
    with pytest.raises(InconsistentSymbols):
        code.erasure_decode(received)
    other = code.encode([6, 0, 5])
    assert code.erasure_decode([(i, other[i]) for i in (0, 1, 2, 5)]) == [6, 0, 5]


def test_inverse_cache_matches_fresh_elimination():
    field = make_field(16)
    code = MdsCode(field, 9, 4)
    msg = [3, 15, 0, 8]
    cw = code.encode(msg)
    for keep in itertools.combinations(range(9), 4):
        system = [[code.gen[i][j] for i in range(4)] for j in keep]
        fresh = solve_linear(field, system, [cw[j] for j in keep])
        assert code.erasure_decode([(j, cw[j]) for j in keep]) == fresh == msg
    assert len(code._inverses) == math.comb(9, 4)


def _outcome(decode, received):
    """The decoded message, or the class of the decode error raised."""
    try:
        return decode(received)
    except (InsufficientSymbols, InconsistentSymbols) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "q,n,k",
    [(7, 6, 3), (8, 8, 5), (9, 9, 6), (13, 12, 8), (16, 12, 6)],
)
def test_decode_matches_the_k_by_k_reference(q, n, k):
    """The e x e decode agrees with the k x k reference on every set of
    received positions (including too few), with a corrupted symbol at
    each surplus position, and with a conflicting duplicate.  (13, 12, 8)
    is the second-hop code of (12,3,4,1); (8, 8, 5) and (9, 9, 6) are those
    of (7,2,3,0) and (8,2,3,0)."""
    code = MdsCode(make_field(q), n, k)

    def reference(received):
        return erasure_decode_reference(code, received)

    rng = np.random.default_rng(q)
    cases = 0
    for size in range(k - 1, n + 1):
        for keep in itertools.combinations(range(n), size):
            msg = [int(v) for v in rng.integers(0, q, k)]
            cw = code.encode(msg)
            received = [(j, cw[j]) for j in keep]
            want = _outcome(reference, received)
            assert want == (msg if size >= k else InsufficientSymbols), keep
            assert _outcome(code.erasure_decode, received) == want, keep
            # corrupt each surplus position, with the pairs in reverse order
            for j in keep[k:]:
                bad = [(i, (v + 1) % q if i == j else v) for i, v in reversed(received)]
                assert _outcome(reference, bad) is InconsistentSymbols, (keep, j)
                assert _outcome(code.erasure_decode, bad) is InconsistentSymbols, (keep, j)
                cases += 1
            if keep:
                clash = received + [(keep[0], (cw[keep[0]] + 1) % q)]
                assert _outcome(code.erasure_decode, clash) is InconsistentSymbols
                assert _outcome(reference, clash) is InconsistentSymbols
    assert cases == sum((s - k) * math.comb(n, s) for s in range(k + 1, n + 1))
    assert len(code._inverses) == math.comb(n, k)


def test_prime_power_does_not_resieve(monkeypatch):
    import relaystream.field_mds as field_mds

    def no_sieve(limit):
        raise AssertionError("primes re-sieved per call")

    monkeypatch.setattr(field_mds, "_small_primes", no_sieve)
    assert is_prime_power(49) and is_prime_power(65521) and not is_prime_power(18)
