"""First-hop code: diagonal interleaving, and the relay-side estimate ledger.

Layout.  Each message s_t has k_src = k' * l' symbols over GF(q), split into
l' layers of k' symbols (layer c owns the flat indices [c*k', (c+1)*k')).
Layer c is protected by a systematic (n', k') MDS code applied along
diagonals: the codeword that starts at time u places position p at time u+p,
so the source packet at time t carries, per layer, the k' systematic symbols
of s_t verbatim followed by N1 parity rows, where parity row m at time t
combines s_{t-k'-m}[c, 0], ..., s_{t-m-1}[c, k'-1].

Estimates.  When x_t is erased on the first hop, the relay rebuilds s_t one
position per layer at a time, by the emission rule stated and derived in
``emission_schedule``: the v-th received slot after t yields position k'-v
of every layer.  Unknown earlier-position symbols remain embedded in the
estimate; they belong to strictly older messages and are kept as
interference so the destination can cancel them after decoding those
messages.  Every other leftover term lies on a message the relay received,
and is cancelled.

Everything structural here (which positions are emitted when, what
interference they carry) is a pure function of the erasure pattern, which is
what lets the destination replay the relay's bookkeeping symbolically.  The
plan engine in ``relay_codec`` owns that structure.  The ledger only stores
what arrived and, when the relay first sends an estimate, works out its
values from the packets ingested so far.  How it combines them is itself
structure: an emission program in slot offsets from the message, memoized
on the emission's shape and the positions it keeps, so an estimate costs
one lookup and the GF arithmetic.  The same program lists the terms the
estimate keeps, which the destination cancels.  The pattern itself has one
form, ``FirstHop``, which the relay's ledger and the destination each hold,
differing only in what a slot past its end reads, and pass whole to the
plan engine, which takes a plan's window as one slice of it.  It is the
only code that knows its bytes: the header-mode destination writes each
header through it and asks it whether a plan's window is known yet.  The
rules below read bits as ``bytes``: the emission schedule a plan shape's
key, the interference and recovery rules a plan's window.

This lowest codec layer also owns the codec's one store: per parameter set,
one entry (``_entry``, the only accessor) with its field and codes and all
that the three stages compile for it, each memo bounded by the set's window
or layer code.  The entry also names how far a plan's window reaches
before its message, ``plan_past`` = 2(k'-1) slots, which the plan engine,
the relay and the destination read.  Both encoders run programs compiled
into it.  The first hop's diagonal program is int tables built with the
entry: per parity row and position, the MUL row of the diagonal
coefficient times q, an offset into the flattened ADD table.
``encode_source`` runs it as one numpy pass over a block of slots
(``_encode_block``): ``EpisodeMessages``, an episode's messages as one int
array, encodes B = ``_BLOCK`` slots at a time and holds only that block's
packets and messages, and any other sequence is a block of one slot.  A
packet is a ``SourcePacket``, a named tuple, so it costs one tuple.  The
second hop runs parity programs, one per codeword layout
(``relay_codec.build_parity_groups``), and a received message's queue is
read from its packet and put back in message order by two itemgetters:
all three are compiled when a plan shape is built, from the entry passed
in, and the shape holds them (``relay_codec._PlanShape``).
The destination's second-hop decode runs one too, per codeword layout and
set of symbols held (``dest_codec``).  Each estimate structure has one
emission program (``_emission_program``): the split of its leftover
coefficients into the known terms the relay subtracts and the kept terms
the destination cancels is compiled once, for both.  Each memo of the entry
has one function that stores into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .field_mds import GaloisField, MdsCode, DimensionMismatch, make_field, solve_linear
from .scheme_params import SchemeParams, derive_dims, implemented_field_size, nominal_field_size


class OutOfOrder(ValueError):
    """Ledger ingest called with a non-consecutive slot index."""


# ---------------------------------------------------------------------------
# the store: what the codec compiles, one entry per parameter set


class _Entry:
    """Everything the codec keeps for one parameter set."""

    __slots__ = ("dims", "plan_past", "field", "code", "diagonals", "sums", "zeros",
                 "second_codes", "shapes", "layouts", "shared", "parity_programs", "headers",
                 "windows", "programs", "decode_programs")

    def __init__(self, p: SchemeParams):
        d = self.dims = derive_dims(p)
        # a plan's window is [t - plan_past, t+T-N2]: the interference rule
        # reads back to t-(k'-1), and the relay's recovery of those slots
        # another k'-1 before them
        self.plan_past = 2 * (d.k_prime - 1)
        # the construction promises a field at least as large as every code length
        assert nominal_field_size(p) >= max(d.n_prime, d.n_dprime, p.T + 1 - p.N1)
        self.field = make_field(implemented_field_size(p))
        self.code = MdsCode(self.field, d.n_prime, d.k_prime)  # first hop, per layer
        # the first hop's diagonal program, as int tables for one numpy pass
        # over a block of slots (``_encode_block``).  Parity row m at t
        # combines s_{t-k'-m+pos}[., pos] over pos; diagonals[m][pos] is the
        # MUL row of that coefficient times q, so a product plus a running
        # sum indexes ``sums``, the ADD table flattened (a product alone
        # indexes its sum with 0), and prime and extension fields run one
        # program.  ``zeros`` are the rows before time 0 of a window: it
        # holds the k'+N1-1 slots before its block
        import numpy as np  # on first use: see _encode_block

        q, k = self.field.q, d.k_prime
        mul_q = np.array(self.code.parity_mul, dtype=np.intp) * q
        self.diagonals = tuple(tuple(row) for row in mul_q)
        self.sums = np.array(self.field.ADD, dtype=np.intp).reshape(-1)
        self.zeros = np.zeros((k + p.N1 - 1, d.k_src), dtype=np.intp)
        self.second_codes: dict[tuple[int, int], MdsCode] = {}  # second hop, by (n, k)
        # plan window bits -> relay_codec._PlanShape, its programs included
        self.shapes: dict[bytes, object] = {}
        self.layouts: dict[bytes, tuple] = {}  # slot's T+1 bits -> rides, in offsets
        self.shared: dict = {}  # one copy of each equal shape, ride and tuple in them
        self.parity_programs: dict[tuple, tuple] = {}  # codeword layout -> its shapes' program
        self.headers: dict[bytes, tuple] = {}  # slot's T+1 bits -> header symbols
        self.windows: dict[bytes, bytes] = {}  # valid header symbols -> T+1 bits
        self.programs: dict[tuple, tuple] = {}  # _structure_key -> emission program
        # (n, k, codeword's queue items, held mask) -> second-hop decode program
        self.decode_programs: dict[tuple, tuple] = {}


# At most _STORE_SETS entries: a new set evicts the one inserted first, so a
# hit costs no bookkeeping.  The ledger, the relay and the decoder resolve
# their entry at construction and keep it even if it is evicted meanwhile.
_STORE: dict[SchemeParams, _Entry] = {}
_STORE_SETS = 32


def _entry(p: SchemeParams) -> _Entry:
    entry = _STORE.get(p)
    if entry is None:
        if len(_STORE) >= _STORE_SETS:
            del _STORE[next(iter(_STORE))]
        entry = _STORE[p] = _Entry(p)
    return entry


class SourcePacket(NamedTuple):
    """One first-hop packet: l' rows of n' symbols (systematic | parity)."""

    t: int
    rows: tuple[tuple[int, ...], ...]


_BLOCK = 128  # slots per encoding pass of an episode's messages


def _encode_block(entry: _Entry, rows, lo: int) -> list:
    """The packets of a block of slots as nested lists of Python ints, one
    (l', n') list per slot.  ``rows`` holds the messages of slots max(lo,
    0) on, one row each: the k'+N1-1 before the block, then the block's
    own.  The window is ``rows`` after a zero row for each slot before 0,
    and a zero symbol contributes nothing, so a term before time 0 drops
    out.  Each term of the diagonal program is one pass over the block,
    and the block one ``tolist``.  A symbol that is not an int in [0, q)
    raises ``ValueError``, one check over the block: the tables it would
    index wrap a negative symbol round and reject q or a float.

    numpy is imported here and in ``_Entry``, on first use: imported while
    the package's other modules were still to be compiled, it raised the
    peak RSS of a fresh interpreter without a bytecode cache by about 1 MB.
    """
    import numpy as np

    window = np.asarray(rows)
    if window.dtype.kind not in "biu" or not 0 <= window.min() <= window.max() < entry.field.q:
        raise ValueError(f"a message symbol is not an int in [0, {entry.field.q})")
    if lo < 0:
        window = np.concatenate((entry.zeros[:-lo], window))
    k, l, reach = entry.code.k, entry.dims.l_prime, len(entry.zeros)
    n = len(window) - reach
    window = window.reshape(len(window), l, k)
    out = np.empty((n, l, entry.code.n), dtype=window.dtype)
    out[:, :, :k] = window[reach:]
    sums = entry.sums
    for m, row in enumerate(entry.diagonals):
        acc = None
        for pos, mul in enumerate(row):
            start = reach - k - m + pos  # slot b reads window row b + start
            term = mul[window[start : start + n, :, pos]]
            acc = sums[term if acc is None else term + acc]
        out[:, :, k + m] = acc
    return out.tolist()


class EpisodeMessages:
    """An episode's messages, s_t the row t of one int array, and the source
    packets of one block of slots.

    ``encode_source`` reads it a block at a time: asked for a slot outside
    the block it holds, it encodes [t, t+B) (B = ``_BLOCK``, cut at the
    last message) in one pass over the block and the k'+N1-1 rows before
    it, and keeps only that block's packets and messages, so what it holds
    beyond the array is bounded by B.  ``messages[t]`` is s_t as a list of
    Python ints: the block's, or one row of the array outside it.
    """

    __slots__ = ("array", "_entry", "_lo", "_block", "_rows")

    def __init__(self, array):
        self.array = array
        self._entry, self._lo, self._block, self._rows = None, 0, (), ()

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, t: int) -> list:
        b = t - self._lo
        return self._rows[b] if 0 <= b < len(self._rows) else self.array[t].tolist()

    def _packet(self, entry: _Entry, t: int) -> SourcePacket:
        b = t - self._lo
        if entry is not self._entry or not 0 <= b < len(self._block):
            self._block = self._rows = ()  # the old block goes before the new one comes
            lo = t - len(entry.zeros)
            block = _encode_block(entry, self.array[max(lo, 0) : t + _BLOCK], lo)
            self._entry, self._lo, self._block, b = entry, t, block, 0
            self._rows = self.array[t : t + _BLOCK].tolist()
        return SourcePacket(t, tuple(map(tuple, self._block[b])))


def encode_source(p: SchemeParams, messages, t: int) -> SourcePacket:
    """Packet for time t; messages[i] is message s_i.

    The packet reads (and checks) only s_i for i in [t-k'-N1+1, t], so its
    cost does not depend on how many messages ``messages`` holds; messages
    before time 0 are implicitly all-zero.  The parity rows run the
    diagonal program of ``p``'s store entry (``_encode_block``), one numpy
    pass over a block of slots.  ``EpisodeMessages`` encodes a block of B
    slots from t on and answers the next slots from it; any other sequence
    of messages is encoded as a block of one slot, over its window.
    """
    entry = _entry(p)
    k_src, lo = entry.dims.k_src, t - len(entry.zeros)
    if not 0 <= t < len(messages):
        raise DimensionMismatch(f"no message s_{t} among {len(messages)} messages")
    if type(messages) is EpisodeMessages:
        if messages.array.shape[1] != k_src:
            raise DimensionMismatch(
                f"messages have {messages.array.shape[1]} symbols, expected {k_src}"
            )
        return messages._packet(entry, t)
    window = [messages[i] for i in range(max(0, lo), t + 1)]
    for i, message in enumerate(window, max(0, lo)):
        if len(message) != k_src:
            raise DimensionMismatch(f"message {i} has {len(message)} symbols, expected {k_src}")
    return SourcePacket(t, tuple(map(tuple, _encode_block(entry, window, lo)[0])))


# ---------------------------------------------------------------------------
# pattern-level emission structure (no symbol values involved)


@dataclass(frozen=True)
class PosEmission:
    """Structure of one per-layer estimate: position ``pos`` of message t.

    The same combination applies to every layer, so one PosEmission expands
    into l' estimate records (flat indices c*k'+pos).
    """

    t: int
    pos: int
    slot: int
    # every received parity row m of the diagonal up to the emission slot, in arrival order
    parity_rows: tuple[int, ...]
    late: tuple[int, ...]  # later positions eliminated by the combination
    interference: tuple[tuple[int, int], ...]  # (older message t', pos') kept


def _diag_parity_slots(t: int, pos: int, k_prime: int, n1_rows: int):
    """Slots carrying the parity rows of the diagonal through (t, pos)."""
    u = t - pos
    return [(u + k_prime + m, m) for m in range(n1_rows)]


def relay_recovery_slot(p: SchemeParams, window: bytes, t: int) -> int | None:
    """First slot by which the relay knows s_t exactly (None if never).

    ``window`` holds first-hop bits, one 0/1 byte per slot: slot x reads
    window[x], a slot before the window (x < 0) reads clean and one past its
    end erased; t and the result are slots of the window.  For a received
    packet that is slot t itself.  For an erased one it is the slot where
    every diagonal through the message becomes solvable: received parity
    rows must reach the number of erased systematic positions.  Every
    systematic slot of a diagonal precedes its parity slots, so this
    evaluates knowledge *at* each slot, and bits past the answer never
    change it: a window that ends after it, or that masks later slots as
    erased, gives the same answer.
    """
    if not window[t]:
        return t
    k, end = derive_dims(p).k_prime, len(window)
    worst = t
    for pos in range(k):
        u = t - pos
        got, ready = 0, None
        for slot, _m in _diag_parity_slots(t, pos, k, p.N1):
            if slot >= end or window[slot]:
                continue
            got += 1
            if got >= sum(1 for q in range(k) if u + q >= 0 and window[u + q]):
                ready = slot
                break
        if ready is None:
            return None
        worst = max(worst, ready)
    return worst


def emission_schedule(p: SchemeParams, bits: bytes) -> list[PosEmission]:
    """All estimate emissions of the erased message at slot 0, in
    transmission order: the one statement of the emission rule.

    ``bits`` is a plan shape's key: the first-hop bits of [t, t+T-N2] in
    offsets from the message, one 0/1 byte per slot.  The rule: emission c
    (from 0) is of position k'-1-c, at the (c+1)-th received offset x of
    [1, T-N2], and exists only if x <= N1+c, the offset of the last parity
    row of its diagonal.  It combines every received parity row of the diagonal by x
    and eliminates the late positions, the erased ones after pos.

    Why.  Count offsets from t, with R(x) and E(x) the received and erased
    offsets of [1, x], and c = k'-1-pos.  The diagonal of (t, pos) holds
    its positions at offsets -pos .. c and its parity rows at c+1 .. N1+c
    = T-N2-pos (row m at c+1+m).  Its late positions are the erased offsets
    of [1, c], E(c) of them.  To cancel them and keep coefficient 1 on pos
    takes len(late)+1 parity rows, and that many always suffice: every
    square submatrix of a systematic-MDS parity block is nonsingular.  By
    an offset x <= N1+c the diagonal holds R(x) - R(c) received rows, and
    past N1+c it gains none.  As R(c) = c - E(c), the diagonal holds
    len(late)+1 parity rows by a received offset x exactly when R(x) >=
    k'-pos = c+1: pos is ready at the (c+1)-th received offset x, and only
    if x <= N1+c, that is E(x) <= N1-1.  Each received offset raises R by
    one, so it readies one position, from k'-1 down; once the (c+1)-th
    received offset passes N1+c, the (c'+1)-th passes N1+c' for every c' >
    c.  At x the rows number exactly len(late)+1, so the estimate combines
    all of them.  No step assumes an admissible first hop.

    Interference, the one part that reads bits before t, is left empty: the
    plan engine places it per message (``emission_interference``).
    """
    k_prime = derive_dims(p).k_prime
    out: list[PosEmission] = []
    for x in range(1, p.T - p.N2 + 1):
        c = len(out)
        if c == k_prime or x > p.N1 + c:
            break
        if bits[x]:
            continue
        pos = k_prime - 1 - c
        rows = tuple(s - c - 1 for s in range(c + 1, x + 1) if not bits[s])
        late = tuple(q for q in range(pos + 1, k_prime) if bits[q - pos])
        out.append(PosEmission(0, pos, x, rows, late, ()))
    return out


def emission_interference(p: SchemeParams, window: bytes, t: int, pos: int, slot: int):
    """(t', pos') terms an estimate of (t, pos) made at ``slot`` keeps: the
    earlier positions of its diagonal whose message was erased and not yet
    recovered by the relay at ``slot``.  Slots are those of ``window``, read
    as ``relay_recovery_slot`` reads it; only bits up to ``slot`` decide."""
    out = []
    for q in range(pos):
        s_q = t - pos + q
        if s_q < 0 or not window[s_q]:
            continue
        ready = relay_recovery_slot(p, window, s_q)
        if ready is None or ready > slot:
            out.append((s_q, q))
    return tuple(out)


def emission_coefficients(
    field: GaloisField, code: MdsCode, em: PosEmission
) -> tuple[tuple[int, ...], dict[int, int]]:
    """(lambda per parity row, mu per systematic position) for one emission.

    mu maps every position outside {pos}+late to its leftover coefficient in
    the combination (zero entries dropped); interference terms keep exactly
    these coefficients, known terms get subtracted with them.  Not memoized:
    it runs only to compile an emission program (``_emission_program``),
    which the store entry keeps.
    """
    P = code.parity
    cols = (em.pos,) + em.late
    system = [[P[pos][m] for m in em.parity_rows] for pos in cols]
    rhs = [1] + [0] * len(em.late)
    lam = solve_linear(field, system, rhs)
    mul, add = field.MUL, field.ADD
    mu: dict[int, int] = {}
    for pos in range(code.k):
        if pos in cols:
            continue
        acc = 0
        for l_coef, m in zip(lam, em.parity_rows):
            acc = add[acc][mul[l_coef][P[pos][m]]]
        if acc:
            mu[pos] = acc
    return tuple(lam), mu


def interference_terms(p: SchemeParams, em: PosEmission, layer: int):
    """(t', flat', coeff) interference an estimate of ``layer`` carries.

    Mirrors the relay's bookkeeping: of the leftover combination
    coefficients, exactly the positions the relay could not cancel eagerly
    (recorded in the emission) survive into the transmitted value.  Every
    other position of mu's support is a known term the relay subtracts.
    """
    entry = _entry(p)
    _, mu = emission_coefficients(entry.field, entry.code, em)
    u = em.t - em.pos
    return [
        (u + q, layer * entry.code.k + q, mu[q]) for (_, q) in em.interference if q in mu
    ]


# ---------------------------------------------------------------------------
# the first-hop pattern, as the relay or the destination knows it

_AS_ERASED = bytes([0] + [1] * 255)  # translate table: any nonzero byte -> 1
_UNSEEN = 2  # header mode: a slot no header has covered yet


class FirstHop:
    """A first-hop erasure pattern, and the only code that knows its bytes.

    ``bits`` holds T zero bytes for the clean slots before 0, then one byte
    per slot, 0 where received; every slot past its end reads ``past``, and
    any nonzero byte reads erased.  ``past`` is 1 at the relay (not yet
    seen) and 0 for an oracle (clean); None makes a header-mode pattern, in
    which a slot no header has covered, past the end or in a gap before it,
    holds the ``_UNSEEN`` marker.  ``cover`` writes one header's bits, and
    ``known(lo, hi)`` says whether every slot of [lo, hi] holds a bit: only
    a marker makes it false, so the relay's and an oracle's patterns are
    known everywhere.  ``erased`` is the slot -> bool lookup, a closure over
    the bytes that holds neither the pattern nor its owner, and calling the
    pattern is the same lookup.  ``slice(lo, n)`` gives [lo, lo+n) as
    ``erased`` reads it, one 0/1 byte per slot and any lo, so a slot's bits
    and a plan's window are each one slice.
    """

    __slots__ = ("bits", "past", "erased", "_pad")

    def __init__(self, T: int, past: int | None):
        bits = self.bits = bytearray(T)
        past = self.past = _UNSEEN if past is None else past
        self._pad = T

        def erased(s: int) -> bool:
            if s < 0:
                return False
            try:
                return bits[s + T] != 0
            except IndexError:
                return past != 0

        self.erased = erased

    def __call__(self, s: int) -> bool:
        return self.erased(s)

    def slice(self, lo: int, n: int) -> bytes:
        """The bits of slots lo .. lo+n-1 as ``erased`` reads them: every
        slot before 0 is clean, however far back lo reaches."""
        start = lo + self._pad
        if start < 0:  # slots before -T: a negative index would wrap
            head = min(-start, n)
            return bytes(head) + self.slice(-self._pad, n - head) if head < n else bytes(n)
        out = bytes(self.bits[start : start + n])
        if len(out) < n:
            out += bytes((self.past,)) * (n - len(out))
        return out.translate(_AS_ERASED) if self.past == _UNSEEN else out

    def cover(self, s: int, bits: bytes) -> None:
        """Write the header of slot s, the T+1 bits of [s-T, s]: slots
        between the end and s-T keep the marker, slots before 0 the clean
        padding."""
        store, pad, end = self.bits, self._pad, s + self._pad + 1
        if len(store) < end:
            store.extend(bytes((self.past,)) * (end - len(store)))
        lo = max(s, pad)  # the byte of slot max(s-T, 0)
        store[lo:end] = bits[lo - s :]

    def known(self, lo: int, hi: int) -> bool:
        """Whether every slot of [lo, hi] holds a bit, not the marker."""
        if self.past != _UNSEEN:
            return True
        bits, start, end = self.bits, lo + self._pad, hi + self._pad + 1
        return end <= len(bits) and _UNSEEN not in bits[start if start > 0 else 0 : end]


# ---------------------------------------------------------------------------
# value-level ledger (what the relay actually stores and forwards)


class ErasedKnownTerm(RuntimeError):
    """An estimate would subtract a known term of an erased message.  No
    emission the plan engine places has one: see ``EstimateLedger``."""


def _structure_key(em: PosEmission) -> tuple:
    """(pos, parity_rows, late, kept positions): all of an emission, t aside,
    that its emission program depends on.  A kept term (t', q) lies at
    t' = t - pos + q, so the kept positions are the interference in
    offsets."""
    return em.pos, em.parity_rows, em.late, tuple(q for _, q in em.interference)


def _emission_program(p: SchemeParams, entry: _Entry, em: PosEmission) -> tuple:
    """The emission program of ``em``'s structure in ``entry``, the entry
    of ``p``: (parities, known, kept), each term a (MUL row, offset from
    em.t, position) triple.  ``parities`` has one per parity row combined,
    lambda's coefficient, the packet offset and the column of the row;
    ``kept`` is ``interference_terms`` of layer 0, the terms the
    destination cancels; ``known`` is the rest of mu's support, the terms
    the relay subtracts.  The relay reads the first two, the destination
    the third."""
    key = _structure_key(em)
    program = entry.programs.get(key)
    if program is None:
        lam, mu = emission_coefficients(entry.field, entry.code, em)
        mul, k, pos = entry.field.MUL, entry.code.k, em.pos
        parities = tuple((mul[coeff], k + m - pos, k + m) for coeff, m in zip(lam, em.parity_rows))
        kept = tuple((mul[coeff], t2 - em.t, q) for t2, q, coeff in interference_terms(p, em, 0))
        kept_at = {q for _, _, q in kept}
        known = tuple((mul[coeff], q - pos, q) for q, coeff in mu.items() if q not in kept_at)
        program = entry.programs[key] = (parities, known, kept)
    return program


class EstimateLedger:
    """Relay-side ingest of the first hop: erasure bits and received packets.

    It keeps no per-estimate records.  Which estimates exist, when they
    appear and in what order they are sent is the plan engine's business;
    ``estimate`` works out the values of one emission the plan placed, from
    the packets ingested so far.

    Every term an estimate subtracts lies on a received message.  By the
    emission rule (``emission_schedule``) an estimate of (t, pos) is emitted
    at the first slot its diagonal holds len(late)+1 parity rows, and an
    erased earlier position of that diagonal needs at least len(late)+2
    rows before the relay could recover it, so it is kept as interference
    instead.  So the ledger never decodes a first-hop codeword, and asking
    it for a symbol of an erased message raises ``ErasedKnownTerm``.

    How an emission's values combine the packets depends only on its
    position, parity rows, late positions and the positions it keeps as
    interference.  So ``estimate`` reads the ``parities`` and ``known``
    terms of the emission program (``_emission_program``) in the
    ``programs`` of the parameter set's store entry, which the ledger
    resolves once, at construction; the destination reads the same
    program's ``kept`` terms.  A miss asks ``emission_coefficients`` for
    lambda and mu.  The bounds of the program memo come from the layer
    code, not from the stream.

    The erasure bits are ``pattern``, a ``FirstHop`` in which a slot not
    yet ingested reads erased, and ``erased`` is its lookup.  On its own the
    ledger keeps every packet, so it can value any emission of the stream.
    A streaming owner calls ``forget_before`` once no later estimate can
    read a slot; ``RelayState`` does, and then the packets span at most
    T-N2 slots (T-N2-1 at k'=1; see ``RelayState``).  The pattern
    stays whole: plans read first-hop bits of any age.
    """

    def __init__(self, p: SchemeParams):
        self.params = p
        self.dims = derive_dims(p)
        self._entry = _entry(p)
        self.field, self.code = self._entry.field, self._entry.code
        self.next_slot = 0
        self.pattern = FirstHop(p.T, 1)  # slots -T .. next_slot-1, then unseen
        self.erased = self.pattern.erased
        self.packets: dict[int, SourcePacket] = {}
        self._forgotten_below = 0  # no packet kept below

    # -- ingest ---------------------------------------------------------------

    def ingest(self, slot: int, packet: SourcePacket | None) -> None:
        if slot != self.next_slot:
            raise OutOfOrder(f"expected slot {self.next_slot}, got {slot}")
        if packet is not None and packet.t != slot:
            raise OutOfOrder(f"packet is stamped t={packet.t}, ingested at slot {slot}")
        self.pattern.bits.append(packet is None)
        self.next_slot += 1
        if packet is not None:
            self.packets[slot] = packet

    def forget_before(self, slot: int) -> None:
        """Drop the packets of every slot before ``slot``; the caller
        promises that no later estimate reads them."""
        for t in range(self._forgotten_below, slot):
            self.packets.pop(t, None)
        if slot > self._forgotten_below:
            self._forgotten_below = slot

    # -- values -----------------------------------------------------------------

    def estimate(self, em: PosEmission) -> tuple[int, ...]:
        """Per-layer values of emission ``em``: entry c estimates
        s_{em.t}[c*k' + em.pos].  Every leftover term is subtracted except
        those ``em.interference`` keeps; slot ``em.slot`` must be ingested."""
        parities, known, _ = _emission_program(self.params, self._entry, em)
        t, packets = em.t, self.packets
        sources = [(row, packets[t + off].rows, col) for row, off, col in parities]
        terms = []
        for row, off, pos in known:
            if t + off < 0:
                continue  # a term before time 0 is an implicit zero
            if self.erased(t + off):
                raise ErasedKnownTerm(f"s_{t + off}[., {pos}] lies on an erased message")
            terms.append((row, packets[t + off].rows, pos))
        add, sub = self.field.ADD, self.field.SUB
        out = []
        for c in range(self.dims.l_prime):
            value = 0
            for row, rows, col in sources:
                value = add[value][row[rows[c][col]]]
            for row, rows, pos in terms:
                value = sub[value][row[rows[c][pos]]]
            out.append(value)
        return tuple(out)
