"""Second-hop code: adaptive schedules, relay packets, parity groups, header.

The relay decides per message t how many symbols to forward in each of its
slots t+j .. t+T.  Message-phase slots (up to t+T-N2) carry message symbols
or estimates; the final N2 slots carry MDS parities so the destination
survives second-hop erasures.  The whole layout is a pure function of the
first-hop erasure pattern (the "plan"), which the destination recomputes from
side information or from the packet headers.

Per-message schedule for an erased x_t, evaluated at slot t+i with i >= j
(nothing rides before slot t+j):

    gamma(i) = erasures observed in (t, t+i)          # strictly between
    ell(i)   = T+1-N2-N1   if gamma(i) <= j-1         # still near-full rate
             = T+1-N2-j    if gamma(i) >= j and i >= N1
             = 0           otherwise                  # pause, too early
    alpha(i) = min(ell(i), available - already sent)

A received x_t is forwarded at T+1-N1-N2 symbols per slot over the k''-slot
window starting at t+j.  Two parity layouts follow:

* adaptive (received, or erased with gamma(T-N2) <= j-1): per layer d, the
  slot-position symbols form a (T+1-j, T+1-N2-j) codeword whose N2 parities
  ride the last slots;
* grouped (erased, heavier early loss): the k transmitted estimates are cut
  in transmission order into l'' groups of size T+1-N2-j, and for each index
  p the p-th members of all groups form a (T+1-N1, T+1-N1-N2) codeword.

Either way each codeword never puts two symbols in one slot, so N2 erasures
cost it at most N2 symbols -- exactly what its parity budget covers.

One plan engine serves every stage: ``build_message_plan(p, erased, t)``.
Everything in a plan except the interference an estimate carries depends
only on the T-N2+1 bits of [t, t+T-N2].  So the plan's shape is kept in slot
offsets from t and memoized per parameter set on those bits, at most
2^(T-N2+1) shapes.  A hit costs one key lookup.  Interference also reads
the bits back to t-2(k'-1) and is resolved per message, when an emission
is placed (``_place``), from the plan's window of [t - plan_past, t+T-N2]
as ``bytes``, ``plan_past`` = 2(k'-1) being the one field of the store
entry that names the window's past reach; what the ledger and the
destination then do with an emission's coefficients is one emission
program memoized on its structure, in slot offsets
(``source_codec._emission_program``).
One rule, ``slot_layout(p, bits, s)``, says what rides relay slot s from
the T+1 header bits of [s-T, s]: the relay emits, the destination slices
and the verifier bounds the payload by it.  Its rides are memoized too, in
slot offsets on those T+1 bits, at most 2^(T+1) layouts.  Shapes, layouts, headers and parity programs live
in the parameter set's entry of the codec's one store, read through its one
accessor, ``source_codec._entry``.
Every memo is keyed by ``bytes``, one 0/1 byte per slot.  The relay's ledger
and the destination hold the first hop as a ``source_codec.FirstHop``, so a
slot's T+1 bits and a plan's window are each one slice, the window's last
T-N2+1 bytes the shape's key: the relay and the destination pass their
pattern whole to ``build_message_plan``, which slices it, and read their
slot's rides, in offsets, from the entry they resolved once at
construction, so a slot costs one lookup on each side.  In header mode the
same entry
memoizes ``encode_header`` (window -> symbols) and ``decode_header``
(symbols -> window), each at most 2^(T+1) valid headers; a malformed header
is never stored.  Each message goes out as one second-hop sequence, its
queue then its N2 parity rows, which alpha cuts into subpackets (see
``slot_layout``).  The relay builds that sequence as one list: an
estimate's values are worked out by the ledger when the relay first sends
it, and the parity rows are appended at the first parity slot, once the
plan's window has closed; the sequence is then kept as a tuple.  The rows
run a parity program memoized in the entry per codeword layout, at most
2(k_src+1) layouts: per parity row and codeword, a (queue item, MUL row)
pair per systematic symbol, its coefficients the parities
``MdsCode.encode`` gives the unit vectors of the (n, k) code.  So a
message's parities are N2 dot products per codeword over its queue values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .field_mds import MdsCode
from .scheme_params import SchemeParams, derive_dims, header_overhead, implemented_field_size
from .source_codec import (
    EstimateLedger,
    FirstHop,
    PosEmission,
    SourcePacket,
    _Entry,
    _entry,
    emission_interference,
    emission_schedule,
)


class ScheduleOverrun(ValueError):
    """Schedule asks for a symbol the relay does not hold yet: an estimate
    whose emission slot is not yet ingested."""


class IncompleteEstimates(ValueError):
    """Parity groups given a value count other than the plan's queue length."""


@dataclass(frozen=True)
class Schedule:
    """Per-message subpacket sizes alpha[i] for slots t+i, i in [0, T]."""

    t: int
    erased: bool
    grouped: bool
    alpha: tuple[int, ...]
    ell: tuple[int, ...]
    gamma: tuple[int, ...]


def _schedule_core(p: SchemeParams, erased_msg: bool, bits: bytes, emissions) -> Schedule:
    """The per-slot schedule rule; the plan engine is its only caller.

    bits: the shape's key, bits[i] the first-hop bit of slot t+i.
    emissions: an erased message's estimate emissions, in offsets from t;
    each makes l' estimates available from its slot on.
    """
    d = derive_dims(p)
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    last_msg = T - N2
    gamma, ell, alpha = [], [], []
    sent = 0
    for i in range(last_msg + 1):
        g = sum(bits[1:i])  # erasures strictly between t and t+i
        gamma.append(g)
        if i < j or (not erased_msg):
            # nothing rides before slot t+j; a received message then flows
            # at the steady per-slot rate
            cap = d.l_dprime if i >= j else 0
        elif g <= j - 1:
            cap = d.l_dprime
        elif i >= N1:
            cap = d.k_dprime  # == T+1-N2-j
        else:
            cap = 0
        ell.append(cap)
        avail = d.l_prime * sum(1 for em in emissions if em.slot <= i) if erased_msg else d.k_src
        a = min(cap, avail - sent)
        if a < 0:
            raise ScheduleOverrun(f"negative availability at slot offset {i}")
        alpha.append(a)
        sent += a
    grouped = erased_msg and gamma[last_msg] > j - 1
    par = 0 if sent == 0 and erased_msg else (d.k_dprime if grouped else d.l_dprime)
    for i in range(last_msg + 1, T + 1):
        alpha.append(par)
        ell.append(par)
    return Schedule(0, erased_msg, grouped, tuple(alpha), tuple(ell), tuple(gamma))


# ---------------------------------------------------------------------------
# per-message transmission plan (structure only; values are filled by the
# relay, and the destination rebuilds the same structure symbolically)


@dataclass(frozen=True)
class TxItem:
    """One message-phase symbol: s_t[flat], possibly only as an estimate."""

    flat: int
    slot: int
    emission: PosEmission | None  # None for a systematically known symbol


@dataclass(frozen=True)
class CodewordSpec:
    """One second-hop MDS codeword: systematic tx items + parity positions."""

    n: int
    k: int
    sys_items: tuple[int, ...]  # indices into MessagePlan.tx
    parity_slots: tuple[tuple[int, int], ...]  # (slot, symbol index in subpacket)


@dataclass(frozen=True)
class _PlanShape:
    """A plan in slot offsets from its message t, shared by every message
    whose window [t, t+T-N2] reads the same first-hop bits."""

    schedule: Schedule  # at t = 0
    emissions: tuple[PosEmission, ...]  # at t = 0, without interference
    tx: tuple[tuple[int, int, int], ...]  # flat, offset, emission index (-1: systematic)
    codewords: tuple[tuple[int, int, tuple[int, ...]], ...]  # n, k, sys_items

    def __hash__(self) -> int:  # interning slot rides hashes a shape often
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.schedule, self.emissions, self.tx, self.codewords))


def _plan_shape(p: SchemeParams, bits: bytes, shared: dict) -> _PlanShape:
    """Build the shape for window bits ``bits`` (bits[i] is slot t+i).  Equal
    tuples, which most shapes share, are stored once through ``shared``."""
    d = derive_dims(p)

    def one(x):
        return shared.setdefault(x, x)

    erased_msg = bits[0] == 1
    emissions = tuple(one(em) for em in emission_schedule(p, bits)) if erased_msg else ()
    sched = _schedule_core(p, erased_msg, bits, emissions)

    # transmission queue: estimates in emission order, layer by layer;
    # a received message column by column of its second-hop layers
    if erased_msg:
        queue = [
            (c * d.k_prime + em.pos, e) for e, em in enumerate(emissions) for c in range(d.l_prime)
        ]
    else:
        queue = [
            (layer * d.k_dprime + w, -1) for w in range(d.k_dprime) for layer in range(d.l_dprime)
        ]
    offsets = [i for i in range(p.T - p.N2 + 1) for _ in range(sched.alpha[i])]
    tx = tuple(one((flat, i, e)) for (flat, e), i in zip(queue, offsets))

    # codeword c takes every step-th tx item from c on: grouped, the c-th
    # member of each group of k'' estimates; otherwise layer c
    if sched.grouped:
        n_code, k_code, step = p.T + 1 - p.N1, d.l_dprime, d.k_dprime
    else:
        n_code, k_code, step = d.n_dprime, d.k_dprime, d.l_dprime
    end = min(len(tx), k_code * step)
    codewords = tuple(one((n_code, k_code, tuple(range(c, end, step)))) for c in range(step))

    return _PlanShape(one(sched), one(emissions), one(tx), one(codewords))


def _place(p: SchemeParams, t: int, window: bytes, em: PosEmission) -> PosEmission:
    """Emission ``em`` of a shape placed at message t, with the interference
    ``emission_interference`` reads from ``window``, the plan's first-hop
    bits of [t - plan_past, t+T-N2]: its last T-N2+1 bytes are the shape's
    key, so its length gives the reach."""
    lag = len(window) - p.T + p.N2 - 1  # window[lag] is slot t
    inter = emission_interference(p, window, lag, em.pos, lag + em.slot)
    if inter:
        inter = tuple((t - lag + x, q) for x, q in inter)
    return PosEmission(t, em.pos, t + em.slot, em.parity_rows, em.late, inter)


class MessagePlan:
    """Message t's relay treatment: a memoized shape placed at slot t.

    ``window`` is the plan's whole input, fixed when it was built: the
    first-hop bits of [t - plan_past, t+T-N2] as ``bytes``, ``plan_past``
    = 2(k'-1) the store entry's, one 0/1 byte per slot, slots before 0
    clean; the shape is keyed by its last T-N2+1 bytes.  ``erased`` and
    ``n_tx`` read the shape; ``schedule``, ``emissions``, ``tx`` and
    ``codewords`` are built on first use, each emission placed with the
    interference the window gives it (``_place``).
    """

    def __init__(self, p: SchemeParams, t: int, shape: _PlanShape, window: bytes):
        self.params, self.t, self.shape, self.window = p, t, shape, window
        self.erased = shape.schedule.erased
        self.n_tx = len(shape.tx)

    @property
    def schedule(self) -> Schedule:
        return replace(self.shape.schedule, t=self.t)

    @cached_property
    def emissions(self) -> tuple[PosEmission, ...]:
        return tuple([_place(self.params, self.t, self.window, em) for em in self.shape.emissions])

    @cached_property
    def tx(self) -> tuple[TxItem, ...]:
        ems, t = self.emissions, self.t
        return tuple(TxItem(f, t + off, ems[e] if e >= 0 else None) for f, off, e in self.shape.tx)

    @cached_property
    def codewords(self) -> tuple[CodewordSpec, ...]:
        first_parity = self.t + self.params.T - self.params.N2 + 1
        return tuple(
            CodewordSpec(n, k, items, tuple((first_parity + m, c) for m in range(self.params.N2)))
            for c, (n, k, items) in enumerate(self.shape.codewords)
        )


def _entry_shape(p: SchemeParams, entry: _Entry, key: bytes) -> _PlanShape:
    """The shape of window bits ``key`` in ``entry``, the entry of ``p``."""
    shape = entry.shapes.get(key)
    if shape is None:
        shape = entry.shapes[key] = _plan_shape(p, key, entry.shared)
    return shape


def build_message_plan(p: SchemeParams, erased_fn, t: int) -> MessagePlan:
    """Everything about message t's relay treatment, from the pattern alone.

    ``erased_fn`` is the first hop: a ``FirstHop``, which the relay and the
    destination pass whole, or any slot -> bool lookup.  The plan reads the
    bits of [t - plan_past, t+T-N2] once, ``plan_past`` = 2(k'-1) the store
    entry's, as its window of ``bytes``: one slice of a ``FirstHop``, else
    one call of the lookup per slot from 0 on, the slots before 0 clean.
    This is the one place the engine turns a lookup into bytes.  The shape
    is memoized on the window's last T-N2+1 bytes, [t, t+T-N2]; the bits
    before t only place interference.
    """
    entry = _entry(p)
    lag = entry.plan_past
    if type(erased_fn) is FirstHop:
        window = erased_fn.slice(t - lag, lag + p.T - p.N2 + 1)
    else:
        window = bytes(s >= 0 and bool(erased_fn(s)) for s in range(t - lag, t + p.T - p.N2 + 1))
    return MessagePlan(p, t, _entry_shape(p, entry, window[lag:]), window)


def _slot_rides(p: SchemeParams, entry: _Entry, window: bytes) -> tuple:
    """The rides of the slot whose T+1 bits are ``window``, in offsets: the
    message at window[lo] rides at offset i = T-lo as (i, shape,
    sum(alpha[:i]), alpha[i]), oldest message first.  Memoized in
    ``entry``, the entry of ``p``; slots after the window read as erased,
    and each ride is stored once through the entry's shared tuples."""
    rides = entry.layouts.get(window)
    if rides is not None:
        return rides
    width = p.T - p.N2 + 1  # message-phase offsets 0 .. T-N2
    padded = window + b"\x01" * (width - 1)
    shared, out = entry.shared, []
    for lo in range(p.T - p.j + 1):
        shape = _entry_shape(p, entry, padded[lo : lo + width])
        i, alpha = p.T - lo, shape.schedule.alpha
        if alpha[i]:
            ride = (i, shape, sum(alpha[:i]), alpha[i])
            out.append(shared.setdefault(ride, ride))
    rides = entry.layouts[window] = tuple(out)
    return rides


def slot_layout(p: SchemeParams, bits, s: int) -> list[tuple]:
    """Who rides relay slot ``s``, oldest message first.

    ``bits[i]`` is the first-hop bit of slot s-T+i, as in the header.  Slots
    before 0 count as clean and slots after s as erased, as the relay sees
    them at slot s; a shape so masked agrees with the full plan up to offset
    s-t.  Each message t with a nonzero subpacket gives ``(t, shape, start,
    size)``: symbols start .. start+size-1 of its second-hop sequence, its
    queue then its N2 parity rows (symbol c of row m at n_tx +
    m*len(shape.codewords) + c), start the sum of alpha before s-t.

    The rides are memoized in slot offsets on the T+1 bits as bytes, next to
    the shapes of the same parameter set (at most 2^(T+1) layouts); a call
    places them at s and drops the messages before slot 0.  ``bytes`` bits
    are the key itself; any other sequence of bits is converted once.  The
    relay and the destination read the same memo in offsets (``_slot_rides``).
    """
    if len(bits) != p.T + 1:
        raise ValueError(f"slot layout reads T+1 = {p.T + 1} bits, got {len(bits)}")
    key = bits if type(bits) is bytes else bytes(map(bool, bits))
    rides = _slot_rides(p, _entry(p), key)
    return [(s - i, shape, start, size) for i, shape, start, size in rides if i <= s]


def second_code(p: SchemeParams, n: int, k: int) -> MdsCode:
    """The second-hop (n, k) code over ``p``'s field, kept in its entry."""
    entry = _entry(p)
    if (n, k) not in entry.second_codes:
        entry.second_codes[n, k] = MdsCode(entry.field, n, k)
    return entry.second_codes[n, k]


# ---------------------------------------------------------------------------
# parity groups (value level)


@dataclass(frozen=True)
class ParityGroups:
    """Parity symbols for one message: rows[m][i] rides parity slot m."""

    t: int
    grouped: bool
    rows: tuple[tuple[int, ...], ...]


def _parity_program(p: SchemeParams, entry: _Entry, codewords: tuple) -> tuple:
    """The parity program of codeword layout ``codewords`` in ``entry``, the
    entry of ``p``: per parity row, per codeword, a (queue item, MUL row)
    pair per systematic symbol.  A codeword position beyond the queue has
    no pair: it encodes as zero.  The coefficients are the parities
    ``MdsCode.encode`` gives the k unit vectors."""
    program = entry.parity_programs.get(codewords)
    if program is None:
        n, k, _ = codewords[0]  # every codeword of a plan has the same (n, k)
        encode, mul = second_code(p, n, k).encode, entry.field.MUL
        columns = [encode([int(i == x) for x in range(k)])[k:] for i in range(k)]
        program = entry.parity_programs[codewords] = tuple(
            tuple(tuple((item, mul[columns[i][m]]) for i, item in enumerate(items))
                  for _, _, items in codewords)
            for m in range(n - k)
        )
    return program


def build_parity_groups(p: SchemeParams, plan: MessagePlan, values: list[int]) -> ParityGroups:
    """MDS parities over the transmitted symbol values of one message.

    values[i] is the value of plan.tx[i].  A codeword position beyond the
    transmitted queue (a plan that fell short of k_src estimates) encodes as
    zero.  Each parity is one dot product over the queue, run from the
    parity program of the plan's codeword layout (``_parity_program``).
    """
    n_tx = plan.n_tx
    if len(values) != n_tx:
        raise IncompleteEstimates(f"{len(values)} values for {n_tx} transmitted symbols")
    entry = _entry(p)
    add = entry.field.ADD
    rows = []
    for words in _parity_program(p, entry, plan.shape.codewords):
        row = []
        for pairs in words:
            acc = 0
            for item, mul in pairs:
                acc = add[acc][mul[values[item]]]
            row.append(acc)
        rows.append(tuple(row))
    return ParityGroups(plan.t, plan.shape.schedule.grouped, tuple(rows))


# ---------------------------------------------------------------------------
# relay packet assembly


@dataclass(frozen=True)
class RelayPacket:
    slot: int
    subpackets: tuple[tuple[int, tuple[int, ...]], ...]  # (t, symbols), oldest first
    header: tuple[int, ...] = ()

    @property
    def payload_symbols(self) -> int:
        return sum(len(s) for _, s in self.subpackets)

    def wire_symbols(self) -> list[int]:
        out = list(self.header)
        for _, syms in self.subpackets:
            out.extend(syms)
        return out


class RelayState:
    """Drives the relay across an episode: ingest first hop, emit second hop.

    Scheduling is strictly causal: what slot s sends is ``slot_layout`` of
    the T+1 bits the relay has seen up to s.  The relay resolves its
    parameter set's store entry once, at construction, and reads each slot's
    rides, in offsets, through ``_slot_rides`` keyed by one slice of the
    ledger's ``pattern``.  ``queues`` holds each message's second-hop
    sequence: its queue, filled once from the packet rows of a received
    message, one estimate (l' values, from the ledger) at a time for an
    erased one, then its parity rows.  Every ride is a slice of it, read
    through one accessor, ``_queue_values``, which places an estimate not
    yet valued from the ride's shape and one slice of the ledger's pattern,
    the plan window as the relay sees it (its past reach is the store
    entry's ``plan_past``), building no ``MessagePlan``.  The first ride
    past the queue, when [t, t+T-N2] has closed, appends the parity rows
    encoded from the queue with the plan ``build_message_plan`` gives for
    the ledger's pattern, through the parity program of that plan's
    codeword layout, and keeps the whole sequence as a tuple, so every
    parity ride is one slice.
    The sequence is dropped once slot t+T has been emitted.

    The state stays bounded over a stream: after slot s is emitted the
    ledger forgets every packet before s - ``_ledger_lag``.  Its pattern
    stays, one byte per slot.  A later slot s' > s reads packets for two
    things:

    - an estimate of (t, pos), valued at its first ride r, a slot of
      [t+j, t+T-N2]: its parity rows, all after t, and its known terms, on
      its diagonal back to t-pos.  As r - t + pos <= T-N2 (below), it reads
      no slot before s' - (T-N2), so none before s - (T-N2-1).  At k'=1
      there is no known term before t, and the parity rows, from t+1 on,
      reach furthest: s - (T-N2-2);
    - a received message's own packet, at its first ride t+j, from s+1-j
      on, which is later: j <= N1-1 makes T-N2-2 >= j-1.

    So the lag is T-N2-1, or T-N2-2 at k'=1.

    Why r - t + pos <= T-N2.  Count offsets from t, with R(i) and E(i) the
    received and erased slots of [1, i].  By the emission rule
    (``emission_schedule``), emission c (from 0) is of position k'-1-c, at
    the (c+1)-th received offset x, and exists only if x <= N1+c =
    T-N2-pos, that is E(x) <= N1-1.  It first rides once the items sent
    pass c*l', and by offset n the schedule has sent the least, over i0 in
    [-1, n], of A(i0) + S: A(i0) the items available by i0, l' per emission
    (A(-1) = 0), and S the caps of (i0, n], 0 before j, k' while E(i-1) <=
    j-1, then 0 before N1 and l' from N1 on.  At n = N1+c every term passes
    c*l'.  From i0 >= x on, A alone holds (c+1)*l'.  Before x,
    A(i0) = l'*R(i0) and E(i0) <= N1-1, so S must pass l'*w, w = c - R(i0)
    <= c:

    - every slot of (i0, n] at cap l': S = l'(N1+c-i0) > l'*w, as E(i0) < N1;
    - the cap drops to 0 before N1, and i0 < N1-1: [N1, n] alone gives
      l'(c+1);
    - otherwise at most N1+c-j+1 slots of (i0, n] at cap k', the rest at
      l', and E(i0) <= j-1 if i0 >= j-1, so S - l'*w >= l'(N1-j+1) -
      (l'-k')(N1+c-j+1) = (N1-j+1)k' - (N1-j)c > 0, since l'-k' = N1-j and
      c < k'.

    No step assumes an admissible first hop.
    """

    def __init__(self, p: SchemeParams, header_mode: bool = False):
        self.params = p
        self.dims = derive_dims(p)
        self.ledger = EstimateLedger(p)
        self.header_mode = header_mode
        self.queues: dict[int, list | tuple] = {}  # t -> second-hop sequence so far
        k = self.dims.k_prime
        self._ledger_lag = p.T - p.N2 - 1 if k > 1 else p.T - p.N2 - 2
        self._entry = _entry(p)

    def ingest_source(self, slot: int, packet: SourcePacket | None) -> None:
        self.ledger.ingest(slot, packet)

    def _queue_values(self, t: int, shape: _PlanShape, start: int, size: int) -> tuple[int, ...]:
        """Symbols start .. start+size-1 of message t's second-hop sequence:
        its queue, in the order its plan's ``shape`` fixes, then its parity
        rows.  A received message's queue is filled at its first ride; an
        estimate not held yet is placed (``_place``) from the shape and the
        plan window, whose slots not yet ingested read erased: interference
        reads no slot past the estimate's own.  Once its parity rows are
        appended the sequence is kept as a tuple."""
        end = start + size
        values = self.queues.get(t)
        if values is None:
            if shape.schedule.erased:
                values = []
            else:
                rows, k = self.ledger.packets[t].rows, self.dims.k_prime
                values = [rows[f // k][f % k] for f, _, _ in shape.tx]
            self.queues[t] = values
        if len(values) < end:
            fill = min(end, len(shape.tx))
            if len(values) < fill:
                p, lag = self.params, self._entry.plan_past
                window = self.ledger.pattern.slice(t - lag, lag + p.T - p.N2 + 1)
                # emission e fills queue items e*l' .. e*l'+l'-1, one per layer
                while len(values) < fill:
                    em = _place(p, t, window, shape.emissions[len(values) // self.dims.l_prime])
                    if em.slot >= self.ledger.next_slot:
                        raise ScheduleOverrun(
                            f"message {t}: estimate emitted at slot {em.slot}, not yet ingested"
                        )
                    values.extend(self.ledger.estimate(em))
            if len(values) < end:  # the first parity ride: [t, t+T-N2] has closed
                plan = build_message_plan(self.params, self.ledger.pattern, t)
                for row in build_parity_groups(self.params, plan, values).rows:
                    values.extend(row)
                values = self.queues[t] = tuple(values)
        return tuple(values[start:end])  # a slice of a tuple is not copied again

    def emit(self, slot: int) -> RelayPacket:
        """Relay packet for this slot; first-hop slots <= slot must have been
        ingested already."""
        p, ledger = self.params, self.ledger
        bits = ledger.pattern.slice(slot - p.T, p.T + 1)  # [slot-T, slot]
        subpackets = []
        for i, shape, start, size in _slot_rides(p, self._entry, bits):
            if i <= slot:  # else a message before slot 0
                subpackets.append((slot - i, self._queue_values(slot - i, shape, start, size)))
        # message slot-T had its last slot
        self.queues.pop(slot - p.T, None)
        ledger.forget_before(slot - self._ledger_lag)
        header = encode_header(p, bits) if self.header_mode else ()
        return RelayPacket(slot, tuple(subpackets), header)


# ---------------------------------------------------------------------------
# erasure-pattern header


def encode_header(p: SchemeParams, window_bits) -> tuple[int, ...]:
    """Pack T+1 erasure bits into delta base-q symbols (little-endian).

    Memoized per parameter set on the bits as bytes, at most 2^(T+1)
    headers: the relay passes the ``bytes`` window it lays the slot out by.
    """
    key = window_bits if type(window_bits) is bytes else bytes(map(bool, window_bits))
    headers = _entry(p).headers
    out = headers.get(key)
    if out is None:
        if len(key) != p.T + 1:
            raise ValueError(f"header covers T+1 = {p.T + 1} bits, got {len(key)}")
        q = implemented_field_size(p)
        x = sum(b << i for i, b in enumerate(key))
        out = []
        for _ in range(header_overhead(p)):
            out.append(x % q)
            x //= q
        if x:
            raise ValueError("window does not fit the header alphabet")  # pragma: no cover
        out = headers[key] = tuple(out)
    return out


def decode_header(p: SchemeParams, symbols) -> tuple[int, ...]:
    """Inverse of encode_header; ValueError on symbols no header holds,
    among them any symbol that is not an int in [0, q).

    Memoized per parameter set on the symbols as ``bytes``, at most 2^(T+1)
    headers: a malformed header is never stored, so it raises on every
    occurrence.  The memo holds the window as ``bytes``, one 0/1 byte per
    slot, which the destination reads directly; it calls this only on a
    miss.
    """
    # q <= 256, so bytes() holds every symbol of the field; through iter(),
    # a bare int is not taken for a length
    try:
        key = bytes(iter(symbols))
    except TypeError:  # not an int; bytes() raises ValueError for one outside [0, 256)
        raise ValueError(f"header symbols must be a sequence of ints, got {symbols!r}") from None
    windows = _entry(p).windows
    bits = windows.get(key)
    if bits is None:
        q = implemented_field_size(p)
        delta = header_overhead(p)
        if len(key) != delta:
            raise ValueError(f"expected {delta} header symbols, got {len(key)}")
        x = 0
        for s in reversed(key):
            if s >= q:
                raise ValueError(f"header symbol {s} outside [0, {q})")
            x = x * q + s
        if x >> (p.T + 1):
            raise ValueError(f"header value {x} exceeds T+1 = {p.T + 1} bits")
        bits = windows[key] = bytes((x >> i) & 1 for i in range(p.T + 1))
    return tuple(bits)
