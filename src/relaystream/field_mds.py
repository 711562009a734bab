"""Finite fields GF(q) and systematic MDS erasure codes.

Fields are table driven and support any prime power q up to 256.  Elements
are plain ints in [0, q); for extension fields the int is the little-endian
base-p encoding of the polynomial representation.  Each field builds q x q
``MUL``, ``ADD`` and ``SUB`` tables once, from the polynomial arithmetic, so
prime, 2^m and odd p^m fields share one code path: a hot loop holds a
constant c as the row ``MUL[c]`` and indexes it with the symbol.

MDS codes are systematized Reed-Solomon generators built from the Vandermonde
matrix on evaluation points 0..n-1, so construction is deterministic for a
given (q, n, k).  A useful consequence of the systematic-MDS property: every
square submatrix of the parity block is nonsingular, which the streaming
codecs rely on when they solve for partial combinations of parities.
"""

from __future__ import annotations


class NotPrimePower(ValueError):
    """Requested field size is not a prime power (or out of range)."""


class LengthExceedsField(ValueError):
    """MDS code length n exceeds the field size q."""


class DimensionMismatch(ValueError):
    """Vector/matrix dimensions disagree with the code parameters."""


class InsufficientSymbols(ValueError):
    """Fewer than k distinct codeword positions supplied to the decoder."""


class InconsistentSymbols(ValueError):
    """Received symbols are not consistent with any codeword."""


class SingularMatrix(ValueError):
    """Linear system has no unique solution."""


_MAX_Q = 1 << 16  # largest size is_prime_power answers for
_TABLE_MAX_Q = 256  # largest field: q x q tables stay at most 64k entries


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = _small_primes(256)  # every prime factor a q < 2**16 can need


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q == p**m, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            m = 0
            x = q
            while x % p == 0:
                x //= p
                m += 1
            return (p, m) if x == 1 else None
    # no prime factor <= 256: q < 2**16 must then itself be prime
    return (q, 1)


def is_prime_power(q: int) -> bool:
    return 2 <= q <= _MAX_Q and _prime_power(q) is not None


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients little-endian lists of ints


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim(a[:])
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * c) % p
        _poly_trim(a)
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            div = _digits(low, p, d) + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


def _digits(x: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _undigits(d: list[int], p: int) -> int:
    x = 0
    for c in reversed(d):
        x = x * p + c
    return x


class GaloisField:
    """Arithmetic in GF(q), q = p**m <= 256 a prime power, elements as ints
    in [0, q).

    ``MUL[a][b]``, ``ADD[a][b]`` and ``SUB[a][b]`` are a*b, a+b and a-b;
    every scalar method reads the same tables.
    """

    def __init__(self, q: int):
        pm = _prime_power(q)
        if q > _TABLE_MAX_Q or pm is None:
            raise NotPrimePower(f"field size {q} is not a prime power up to {_TABLE_MAX_Q}")
        self.q = q
        self.p, self.m = pm
        if self.m == 1:
            self._modulus = None
        else:
            self._modulus = self._find_irreducible()
        els = range(q)
        self.MUL = [[self._raw_mul(a, b) for b in els] for a in els]
        self.ADD = [[self._raw_add(a, b) for b in els] for a in els]
        neg = [self._raw_neg(b) for b in els]
        self.SUB = [[row[nb] for nb in neg] for row in self.ADD]

    # -- construction ------------------------------------------------------

    def _find_irreducible(self) -> list[int]:
        p, m = self.p, self.m
        for low in range(p**m):
            cand = _digits(low, p, m) + [1]
            if cand[0] != 0 and _is_irreducible(cand, p):
                return cand
        raise NotPrimePower(f"no irreducible polynomial found for {p}^{m}")  # pragma: no cover

    def _raw_mul(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a * b) % p
        prod = _poly_mul(_digits(a, p, self.m), _digits(b, p, self.m), p)
        prod = _poly_mod(prod, self._modulus, p)
        return _undigits(prod + [0] * (self.m - len(prod)), p)

    def _raw_add(self, a: int, b: int) -> int:
        """Digit-wise sum mod p of the base-p encodings."""
        p = self.p
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _raw_neg(self, a: int) -> int:
        """Digit-wise negation mod p of the base-p encoding."""
        p = self.p
        out, mult = 0, 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.ADD[a][b]

    def neg(self, a: int) -> int:
        return self.SUB[0][a]

    def sub(self, a: int, b: int) -> int:
        return self.SUB[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.MUL[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self.MUL[a].index(1)

    def div(self, a: int, b: int) -> int:
        return self.MUL[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        """a**e for e >= 0 (0**0 == 1)."""
        out = 1
        for _ in range(e):
            out = self.MUL[out][a]
        return out

    def __repr__(self) -> str:
        return f"GaloisField(q={self.q})"


def make_field(q: int) -> GaloisField:
    """Construct GF(q); raises NotPrimePower for invalid sizes."""
    return GaloisField(q)


# ---------------------------------------------------------------------------
# dense linear algebra over a field (small systems only)


def _eliminate(field: GaloisField, rows: list[list[int]], rhs: list[list[int]]):
    """Gauss-Jordan on [rows | rhs]: the X with rows * X = rhs (n x w)."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise DimensionMismatch("expected a square system")
    a = [row + extra for row, extra in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = field.inv(a[col][col])
        a[col] = [field.mul(inv, v) for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve_linear(field: GaloisField, rows: list[list[int]], rhs: list[int]) -> list[int]:
    """Solve the square system rows * x = rhs by Gaussian elimination."""
    return [x for (x,) in _eliminate(field, rows, [[r] for r in rhs])]


def invert_matrix(field: GaloisField, rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    return _eliminate(field, rows, [[int(i == j) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# systematic MDS codes


class MdsCode:
    """Systematic (n, k) MDS code over GF(q), generator [I | P].

    ``gen`` is the k x n generator matrix; ``parity`` its k x (n-k) right
    block.  Construction is deterministic: Reed-Solomon evaluation points
    0..n-1, systematized on the first k positions.
    """

    def __init__(self, field: GaloisField, n: int, k: int):
        if n > field.q:
            raise LengthExceedsField(f"n={n} exceeds field size q={field.q}")
        if not (1 <= k <= n):
            raise DimensionMismatch(f"need 1 <= k <= n, got (n={n}, k={k})")
        self.field, self.n, self.k = field, n, k
        vand = [[field.pow(x, i) for x in range(n)] for i in range(k)]
        a_inv = self._inverse_rows([row[:k] for row in vand])
        self.gen = [
            [self._dot(a_inv[i], [vand[r][j] for r in range(k)]) for j in range(n)]
            for i in range(k)
        ]
        self.parity = [row[k:] for row in self.gen]
        # parity_mul[j][i] is the MUL row of parity[i][j]: parity symbol j of
        # a message is the sum of parity_mul[j][i][message[i]]
        self.parity_mul = [[field.MUL[row[j]] for row in self.parity] for j in range(n - k)]
        # per tuple of decoding positions: the e systematic positions it
        # lacks, its e parity positions and the inverse of their e x e
        # system as MUL rows; at most C(n, k) entries per code
        self._inverses: dict[tuple[int, ...], tuple] = {}

    def _inverse_rows(self, rows: list[list[int]]) -> list[list[list[int]]]:
        """Inverse of a square matrix, each entry held as its MUL row."""
        mul = self.field.MUL
        return [[mul[c] for c in row] for row in invert_matrix(self.field, rows)]

    def _dot(self, rows: list[list[int]], vec: list[int]) -> int:
        """Sum of rows[i][vec[i]]: a dot product with the left factor held
        as MUL rows."""
        add = self.field.ADD
        out = 0
        for row, x in zip(rows, vec):
            out = add[out][row[x]]
        return out

    def encode(self, message: list[int]) -> list[int]:
        """The codeword of ``message``: the message, then its n-k parities.
        The relay compiles its second-hop parity programs from it, as the
        codewords of the k unit vectors."""
        if len(message) != self.k:
            raise DimensionMismatch(f"message length {len(message)} != k={self.k}")
        return list(message) + [self._dot(col, message) for col in self.parity_mul]

    def erasure_decode(self, received: list[tuple[int, int]]) -> list[int]:
        """Recover the message from >= k (position, symbol) pairs.

        The first k distinct positions form the base.  With its e lost
        systematic symbols set to zero, each of its e parity symbols less its
        known part combines the lost ones only; that e x e system is
        nonsingular (every square submatrix of the parity block is), and its
        inverse is cached per base.  Every surplus symbol is then checked.

        It is the one decoding rule of the codec, and the destination's
        compile source: ``dest_codec`` decodes the unit vectors of a base
        with it, once per codeword layout and set of symbols held, and runs
        the columns it gives as a program.
        """
        seen: dict[int, int] = {}
        for pos, val in received:
            if not (0 <= pos < self.n):
                raise DimensionMismatch(f"position {pos} outside codeword length {self.n}")
            if pos in seen and seen[pos] != val:
                raise InconsistentSymbols(f"conflicting symbols at position {pos}")
            seen[pos] = val
        k = self.k
        if len(seen) < k:
            raise InsufficientSymbols(f"need {k} positions, got {len(seen)}")
        positions = sorted(seen)
        base = tuple(positions[:k])
        cached = self._inverses.get(base)
        if cached is None:
            lost = [i for i in range(k) if i not in base]
            checks = base[k - len(lost) :]  # base is sorted: its parity positions
            system = [[self.parity[i][j - k] for i in lost] for j in checks]
            cached = self._inverses[base] = (lost, checks, self._inverse_rows(system))
        lost, checks, inverse = cached
        message = [seen.get(i, 0) for i in range(k)]
        sub = self.field.SUB
        rest = [sub[seen[j]][self._dot(self.parity_mul[j - k], message)] for j in checks]
        for i, rows in zip(lost, inverse):
            message[i] = self._dot(rows, rest)
        # verify surplus symbols really lie on the decoded codeword
        if len(positions) > k:
            word = self.encode(message)
            for j in positions[k:]:
                if word[j] != seen[j]:
                    raise InconsistentSymbols(f"symbol at position {j} off the decoded codeword")
        return message

    def __repr__(self) -> str:
        return f"MdsCode(q={self.field.q}, n={self.n}, k={self.k})"
