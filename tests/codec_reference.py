"""Reference helpers the codec tests use and the pipeline does not.

``oracle_decode`` decodes one message by generic linear algebra with its own
rectangular elimination, so it shares no decoding path with ``DecoderState``
or with ``field_mds``.  ``erasure_decode_reference`` is the k x k decode of
one MDS codeword, the reference ``MdsCode.erasure_decode`` must agree with.
``estimate_reference`` values one emission from lambda and mu directly, the
reference for the ledger's memoized valuation programs.
``encode_source_reference`` and ``build_parity_groups_reference`` are the two
encoders without their compiled programs: the diagonal list built per call,
and one zero-padded ``MdsCode.encode`` per codeword.  ``queue_reference`` is
the destination's second-hop decode without its programs: one
``MdsCode.erasure_decode`` per codeword missing a systematic symbol.
``cancel_interference`` is the standalone form of the decoder's cancellation
step, raising ``MissingDependency`` where the decoder's returns FAILED or
None, ``dest_ingest`` feeds a relay packet with an optional side-information
cross-check, and ``estimates_available`` is the closed-form count the plan
engine's availability must match on admissible patterns.  ``make_codes``
gives a parameter set's field and first-hop layer code, ``second_code`` one
of its second-hop codes.
"""

from __future__ import annotations

from relaystream import source_codec
from relaystream.dest_codec import FAILED, DecoderState, interference_terms
from relaystream.field_mds import (
    DimensionMismatch,
    GaloisField,
    InconsistentSymbols,
    InsufficientSymbols,
    MdsCode,
    solve_linear,
)
from relaystream.relay_codec import MessagePlan, ParityGroups, _second_code
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.source_codec import (
    EstimateLedger,
    ErasedKnownTerm,
    PosEmission,
    SourcePacket,
    emission_coefficients,
)


class MissingDependency(ValueError):
    """Interference cancellation needs a message that was never decoded."""


def make_codes(p: SchemeParams) -> tuple[GaloisField, MdsCode]:
    """Field and first-hop (n', k') layer code for a parameter set."""
    entry = source_codec._entry(p)
    return entry.field, entry.code


def second_code(p: SchemeParams, n: int, k: int) -> MdsCode:
    """The second-hop (n, k) code over ``p``'s field, the one its store
    entry keeps."""
    return _second_code(source_codec._entry(p), n, k)


def dest_ingest(state: DecoderState, slot: int, packet, side_info=None) -> DecoderState:
    """Feed one relay-hop slot into the decoder (packet=None for erased).

    ``packet`` may be a RelayPacket or a plain symbol list; ``side_info`` can
    carry the first-hop erasure bit of ``slot`` as a cross-check in oracle
    mode.
    """
    wire = packet.wire_symbols() if hasattr(packet, "wire_symbols") else packet
    if side_info is not None and not state.header_mode:
        if bool(side_info) != state.pattern.erased(slot):
            raise ValueError(f"side information for slot {slot} contradicts the oracle")
    state.ingest(slot, wire)
    return state


def cancel_interference(field, records, history: dict):
    """Standalone cancellation: records maps flat -> (value, [(t', flat', c)]).

    history maps t' -> decoded message (list) or FAILED.  Raises
    MissingDependency when a needed message is absent or FAILED.
    """
    out = {}
    for flat, (value, terms) in records.items():
        for (t2, flat2, coeff) in terms:
            dep = history.get(t2)
            if dep is None or dep is FAILED:
                raise MissingDependency(f"needs message {t2}")
            value = field.sub(value, field.mul(coeff, dep[flat2]))
        out[flat] = value
    return out


def erasure_decode_reference(code: MdsCode, received) -> list[int]:
    """Decode one codeword of ``code`` by a fresh k x k solve.

    The first k distinct positions form the system G_base^T x = y; every
    surplus symbol is then compared with the codeword x G.  Validation and
    exceptions are those ``MdsCode.erasure_decode`` promises.
    """
    field, k = code.field, code.k
    seen: dict[int, int] = {}
    for pos, val in received:
        if not (0 <= pos < code.n):
            raise DimensionMismatch(f"position {pos} outside codeword length {code.n}")
        if pos in seen and seen[pos] != val:
            raise InconsistentSymbols(f"conflicting symbols at position {pos}")
        seen[pos] = val
    if len(seen) < k:
        raise InsufficientSymbols(f"need {k} positions, got {len(seen)}")
    positions = sorted(seen)
    base = positions[:k]
    system = [[code.gen[i][j] for i in range(k)] for j in base]
    message = solve_linear(field, system, [seen[j] for j in base])
    for j in positions[k:]:
        value = 0
        for i in range(k):
            value = field.add(value, field.mul(message[i], code.gen[i][j]))
        if value != seen[j]:
            raise InconsistentSymbols(f"symbol at position {j} off the decoded codeword")
    return message


def estimate_reference(ledger: EstimateLedger, em: PosEmission) -> tuple[int, ...]:
    """``ledger.estimate(em)`` without a program: lambda and mu looked up for
    this emission, every known term read per layer from its packet."""
    d, field = ledger.dims, ledger.field
    lam, mu = emission_coefficients(field, ledger.code, em)
    kept = {q for _, q in em.interference}
    u, k = em.t - em.pos, d.k_prime
    mul, add, sub = field.MUL, field.ADD, field.SUB
    parities = [
        (mul[l_coef], ledger.packets[u + k + m].rows, k + m)
        for l_coef, m in zip(lam, em.parity_rows)
    ]
    known = [(mul[coeff], q) for q, coeff in mu.items() if u + q >= 0 and q not in kept]
    out = []
    for c in range(d.l_prime):
        value = 0
        for row, rows, col in parities:
            value = add[value][row[rows[c][col]]]
        for row, q in known:
            if ledger.erased(u + q):
                raise ErasedKnownTerm(f"s_{u + q}[{c}, {q}] lies on an erased message")
            value = sub[value][row[ledger.packets[u + q].rows[c][q]]]
        out.append(value)
    return tuple(out)


def encode_source_reference(p: SchemeParams, messages, t: int) -> SourcePacket:
    """``encode_source`` without the diagonal program: per parity row, the
    (pos, MUL row, message) list of its diagonal built for this call."""
    d = derive_dims(p)
    field, code = make_codes(p)
    if not 0 <= t < len(messages):
        raise DimensionMismatch(f"no message s_{t} among {len(messages)} messages")
    for i in range(max(0, t - d.k_prime - p.N1 + 1), t + 1):
        if len(messages[i]) != d.k_src:
            raise DimensionMismatch(
                f"message {i} has {len(messages[i])} symbols, expected {d.k_src}"
            )
    k = d.k_prime
    diags = [
        [(pos, col[pos], messages[t - k - m + pos]) for pos in range(k) if t - k - m + pos >= 0]
        for m, col in zip(range(p.N1), code.parity_mul)
    ]
    add = field.ADD
    rows = []
    for lo in range(0, d.k_src, k):
        row = list(messages[t][lo : lo + k])
        for diag in diags:
            acc = 0
            for pos, mul, msg in diag:
                acc = add[acc][mul[msg[lo + pos]]]
            row.append(acc)
        rows.append(tuple(row))
    return SourcePacket(t, tuple(rows))


def build_parity_groups_reference(p: SchemeParams, plan: MessagePlan, values) -> ParityGroups:
    """``build_parity_groups`` without the parity program: each codeword's
    message list, zero-padded to k, through ``MdsCode.encode``, and the
    codewords transposed into parity rows."""
    codewords = plan.shape.codewords  # (n, k, sys_items)
    if not codewords or p.N2 == 0:
        return ParityGroups(plan.t, plan.shape.schedule.grouped, tuple(() for _ in range(p.N2)))
    n, k, _ = codewords[0]
    code = second_code(p, n, k)
    words = []
    for _, _, sys_items in codewords:
        msg = [values[item] for item in sys_items]
        if len(msg) < k:
            msg += [0] * (k - len(msg))
        words.append(code.encode(msg))
    return ParityGroups(plan.t, plan.shape.schedule.grouped, tuple(zip(*words))[k:])


def queue_reference(p: SchemeParams, plan: MessagePlan, got: dict):
    """``DecoderState._queue`` without its decode programs: the received
    second-hop sequence laid out, None where lost, and each codeword still
    missing a systematic symbol decoded by ``MdsCode.erasure_decode`` from
    its items, its zero padding and its parities.  None while one holds
    fewer than k symbols."""
    n_tx, codewords = plan.n_tx, plan.shape.codewords
    width = len(codewords)
    seq = [None] * (n_tx + p.N2 * width)
    for start, symbols in got.items():
        seq[start : start + len(symbols)] = symbols
    queue = seq[:n_tx]
    if None in queue:
        for ci, (n, k, items) in enumerate(codewords):
            held = [queue[item] for item in items]
            if None not in held:
                continue
            received = [(r, v) for r, v in enumerate(held) if v is not None]
            # positions beyond the scheduled queue were zero-padded at the relay
            received += [(r, 0) for r in range(len(items), k)]
            received += [(k + m, v) for m, v in enumerate(seq[n_tx + ci :: width]) if v is not None]
            if len(received) < k:
                return None  # not yet decodable
            word = second_code(p, n, k).erasure_decode(received)
            for r, item in enumerate(items):
                queue[item] = word[r]
    return queue


def estimates_available(ledger: EstimateLedger, t: int, now: int) -> int:
    """Closed-form count min(k_src, l' * #nonerased in [t+1, now]) for erased
    messages (k_src once received, for nonerased).  Matches what the relay
    holds by slot ``now`` on admissible patterns."""
    d = ledger.dims
    if not ledger.erased(t):
        return d.k_src if now >= t else 0
    hi = min(now, t + ledger.params.T - ledger.params.N2)
    got = sum(1 for s in range(t + 1, hi + 1) if not ledger.erased(s))
    return min(d.k_src, d.l_prime * got)


# ---------------------------------------------------------------------------
# independent oracle: decode one message by generic linear algebra
#
# Every received symbol of message t is an affine functional of the k_src
# unknowns s_t[.] once older messages are substituted from `history`.  Solving
# the stacked system with plain Gaussian elimination must agree with the
# structured decoder whenever the latter succeeds.


def oracle_decode(p: SchemeParams, plan: MessagePlan, got: dict, history: dict):
    """Decode message plan.t from raw received symbols by solving one linear
    system, ignoring the codeword structure.  ``got`` holds the symbols as
    the decoder filed them (``_MessageState.got``), by start in the
    message's second-hop sequence: below n_tx a queue item, past it symbol
    c of parity row m at n_tx + m*len(codewords) + c.  Returns list | None."""
    field, _ = make_codes(p)
    d = derive_dims(p)

    def tx_row(idx: int):
        """Functional of plan.tx[idx] over the unknowns, plus constant."""
        row = [0] * d.k_src
        const = 0
        item = plan.tx[idx]
        row[item.flat] = 1
        if item.emission is not None:
            for (t2, flat2, coeff) in interference_terms(
                p, item.emission, item.flat // d.k_prime
            ):
                dep = history.get(t2)
                if dep is None or dep is FAILED:
                    raise MissingDependency(f"needs message {t2}")
                const = field.add(const, field.mul(coeff, dep[flat2]))
        return row, const

    def parity_row(m: int, ci: int):
        """Functional of codeword ci's parity m over the unknowns, plus constant."""
        cw = plan.codewords[ci]
        code = second_code(p, cw.n, cw.k)
        row = [0] * d.k_src
        const = 0
        for r in range(len(cw.sys_items)):
            g = code.parity[r][m]
            if not g:
                continue
            srow, sconst = tx_row(cw.sys_items[r])
            for f_i, c_i in enumerate(srow):
                if c_i:
                    row[f_i] = field.add(row[f_i], field.mul(g, c_i))
            const = field.add(const, field.mul(g, sconst))
        return row, const

    n_tx = len(plan.tx)
    rows, rhs = [], []
    for start, symbols in sorted(got.items()):
        for idx, v in enumerate(symbols, start):
            if idx < n_tx:
                row, const = tx_row(idx)
            else:
                row, const = parity_row(*divmod(idx - n_tx, len(plan.codewords)))
            rows.append(row)
            rhs.append(field.sub(v, const))

    # rectangular Gauss-Jordan: solvable iff every unknown gets a pivot
    if len(rows) < d.k_src:
        return None
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_row: dict[int, int] = {}
    rank = 0
    for col in range(d.k_src):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col]), None)
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = field.inv(aug[rank][col])
        aug[rank] = [field.mul(inv, v) for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(aug[r], aug[rank])]
        pivot_row[col] = rank
        rank += 1
    return [aug[pivot_row[col]][d.k_src] for col in range(d.k_src)]
