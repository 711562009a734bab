"""Destination decoder: replays the relay's plan symbolically and decodes.

The destination never sees the first hop.  It learns the first-hop erasure
pattern either out of band (oracle side information ``e1_bits``, the
default) or from the delta-symbol header each relay packet carries, rebuilds
every message's transmission plan with the exact code the relay used, slices
each received relay packet by ``slot_layout`` -- the relay's own per-slot
rule, applied to the packet's header or to the oracle window -- and files
every ride alike, by its start in the message's second-hop sequence (the
queue, then the parity rows).  ``finalize(now)`` scans the live window once
per slot, in ascending t, and attempts a message once it holds its plan and
as many symbols as it transmits (``_ready``, the one statement of that
gate), or once its deadline has passed.  An attempt:

1. lays its sequence out, None for a lost symbol, and decodes each
   second-hop codeword missing a symbol from any k of its n symbols, the
   parities read from the same sequence (each codeword loses at most one
   symbol per erased slot).  A codeword decodes by a program memoized in
   the parameter set's store entry on its layout and the symbols it holds:
   per lost item a dot product over the base, the first k symbols held,
   and per surplus parity the value it must have.  Its coefficients come
   from ``MdsCode.erasure_decode`` of the base's unit vectors and
   ``MdsCode.encode`` of the columns, so an attempt builds no position
   list, dict or sort, and a surplus check runs no ``encode``;
2. maps the queue back to flat message indices through the plan's tx order;
3. cancels estimate interference using messages it already decoded, walking
   forward in time so dependencies are always resolved first.  Which terms
   an emission carries, each a (MUL row, message offset, position) triple,
   is the ``kept`` part of the emission program the relay's ledger values
   it by (``source_codec._emission_program``), memoized on the emission's
   structure in the parameter set's store entry; an attempt only looks up
   each dependency's outcome.

A message still undecodable after its deadline t+T is FAILED -- a value, not
an error; a later message whose interference references a FAILED one becomes
FAILED itself (loss propagation): the cancellation returns FAILED as it
returns None for a dependency still pending.  A final message's outcome --
its value, or FAILED -- is all a later attempt reads of it, so it is kept
in ``outcomes``, apart from the live store ``msgs``.  ``try_decode`` alone
makes a message final: it records the outcome and retires the message,
which leaves ``msgs`` with its plan and filed symbols, whether ``finalize``
or another caller asked; ``finalize`` yields what it decides.

The pattern is held in one store in both modes, ``pattern``, a
``source_codec.FirstHop``, which alone knows its bytes.  In header mode the
decoder writes each header's bits into it (``FirstHop.cover``), and a slot
no header has covered yet, past its end included, reads erased and not
known; the oracle's bits (``e1_bits``) are a pattern known everywhere,
clean past its end.  A slot's T+1 bits are then one ``bytes`` slice -- of
the pattern, or the decoded header itself -- which keys the layout memo of
the store entry the decoder resolved at construction.  A plan is built
from the pattern passed whole once ``FirstHop.known`` holds over its
window, [t - plan_past, t+T-N2] with ``plan_past`` the entry's: it takes
the window as one slice, keys its shape by the last T-N2+1 bytes of it and
places interference from it.
``decode_header`` memoizes its window in the same entry (symbols -> window)
as that ``bytes`` slice, which the decoder reads directly, so a header
costs one lookup; on a miss the decoder calls ``decode_header``, the
memo's one writer, and reads the window it stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field_mds import InconsistentSymbols
from .scheme_params import SchemeParams, derive_dims
from .source_codec import FirstHop, _Entry, _emission_program, _entry
from .source_codec import interference_terms  # noqa: F401  (resolved here by perfbench and tests)
from .relay_codec import (
    MessagePlan,
    _slot_rides,
    build_message_plan,
    decode_header,
    second_code,
)

FAILED = "FAILED"


class MalformedPacket(ValueError):
    """Relay packet disagrees with the reconstructed schedule, the header
    alphabet or the field."""


def _decode_program(p: SchemeParams, entry: _Entry, key: tuple) -> tuple:
    """The decode program of ``key`` in ``entry``, the entry of ``p``,
    compiled on a miss of its ``decode_programs``.

    ``key`` is (n, k, m, held) for a codeword of the (n, k) second-hop code
    over m queue items: ``held`` has a byte per symbol gathered, the m
    items then the N2 parities, 1 where it was received.  The program is
    (lost, checks): per lost item r, (r, terms) with one (gathered index,
    MUL row) term per base symbol, and per surplus parity, (its gathered
    index, terms) giving the value it must have.

    The base is the first k codeword positions held, as in
    ``MdsCode.erasure_decode``, which is the compile source: its decode of
    each base unit vector is that symbol's column, and ``MdsCode.encode``
    of the column gives the surplus rows.  Positions [m, k) were zero-padded
    at the relay and contribute nothing.  Zero coefficients are dropped, and
    each term is stored once through the entry's own ``shared``.
    """
    program = entry.decode_programs.get(key)
    if program is not None:
        return program
    n, k, m, held = key
    code, mul, shared = second_code(p, n, k), entry.field.MUL, entry.shared
    # codeword positions held: item r at r, padding in [m, k), parity i at k+i
    positions = [r for r in range(m) if held[r]] + list(range(m, k))
    positions += [k + i for i in range(len(held) - m) if held[m + i]]
    base, surplus = positions[:k], positions[k:]
    columns = [
        (b if b < m else b - k + m, code.erasure_decode([(x, int(x == b)) for x in base]))
        for b in base
        if not m <= b < k
    ]
    words = [(g, code.encode(column)) for g, column in columns]

    def terms(coeffs):  # the tag keeps a term's key apart from the shape tuples
        return tuple(shared.setdefault(("decode", g, c), (g, mul[c])) for g, c in coeffs if c)

    lost = tuple((r, terms((g, col[r]) for g, col in columns)) for r in range(m) if not held[r])
    checks = tuple((j - k + m, terms((g, word[j]) for g, word in words)) for j in surplus)
    program = entry.decode_programs[key] = lost, checks
    return program


@dataclass(slots=True)
class _MessageState:
    """A message not yet final: its plan once built, and every ride filed in
    ``got`` by its start in the message's second-hop sequence (see
    ``slot_layout``)."""

    plan: MessagePlan | None = None
    got: dict = dc_field(default_factory=dict)  # sequence start -> symbol list
    received: int = 0  # symbols filed; no decode before this reaches len(plan.tx)


class DecoderState:
    """Destination state across an episode.

    The first-hop pattern lives in ``pattern`` in both modes.  With oracle
    side information pass it as ``e1_bits``, one 0/1 entry per slot from
    slot 0; the pattern is known everywhere, and slots past its end read
    clean.  In header mode pass None; each received header is written into
    the pattern (``FirstHop.cover``), a slot no header has covered yet,
    past its end included, reads erased and is not known, and anything
    that needs bits not yet covered simply waits.

    ``ingest`` checks a slot whole, then files it: a malformed slot (a
    symbol that is not an int in [0, q), a header no window has, a payload
    length the slot's rides do not carry) raises ``MalformedPacket`` before
    any change.

    Each slot's rides are read in offsets through ``_slot_rides``, from the
    parameter set's store entry resolved once at construction, and a plan is
    built from the pattern passed whole once ``_plan_ready`` holds, one
    ``FirstHop.known`` over the plan's window [t - plan_past, t+T-N2], so
    the window is one slice of known bits, keyed by the slice of
    [t, t+T-N2].  An emission's interference terms are the ``kept`` terms
    of its emission program, (MUL row, message offset, position) triples,
    in the ``programs`` of the same entry on (pos, parity_rows, late, kept
    positions), compiled on a miss by ``_emission_program`` from
    ``interference_terms``; in an episode the relay's ledger, which values
    every emission first, compiles it.  A codeword missing a symbol decodes
    by a program in ``decode_programs`` of the same entry, keyed by (n, k,
    queue items, held mask) and compiled on a miss by ``_decode_program``:
    at most the sum over r >= k of C(n, r) masks per layout, the masks it
    can decode from.

    A surplus parity off the decoded codeword raises
    ``InconsistentSymbols`` rather than being taken for an erasure.  The
    codec's channel model is erasures only: a symbol that arrives is the
    one sent, so a mismatch means in-field corruption or a codec bug, not
    a loss, and ``exhaustive_verify`` reports an episode that raises as a
    counterexample.

    ``finalize(now)`` decides the messages at slot ``now``: one pass in
    ascending t from ``_oldest``, the oldest message not yet final, up to
    ``now``.  An attempt's inputs -- the filed symbols, the plan, the
    dependencies' outcomes and whether t+T has passed -- change only at a
    slot, and a message's dependencies are older, so the pass has attempted
    them before it reaches the message; a message thus finalizes at the
    first slot where an attempt can succeed.  Every message past its
    deadline is finalized in the pass, so a pass scans at most T+2
    messages.  ``try_decode`` itself stays exact for any caller.

    Whatever drives it, ``finalize`` or ``try_decode`` polled in ascending
    t, the live store ``msgs`` stays bounded by the stream window: the
    message ``try_decode`` finalizes is retired, that is, it leaves
    ``msgs`` with its plan and filed symbols, and ``ingest`` files nothing
    for it from later rides, such as its remaining parities.  So ``msgs``
    holds only messages not yet final, at most the T+1 of [now-T, now]
    once every message up to now-T-1 has been asked for.
    What stays O(stream) is small and read by design: ``outcomes``, each
    final message's value or FAILED (``try_decode`` answers for every t, and
    a later message's cancellation reads its dependencies' values), and the
    first-hop pattern, one byte per slot that any later plan may read.
    """

    def __init__(self, p: SchemeParams, e1_bits=None, header_mode: bool = False):
        if header_mode and e1_bits is not None:
            raise ValueError("header mode reconstructs the pattern; do not pass one")
        if not header_mode and e1_bits is None:
            raise ValueError("oracle mode needs the first-hop pattern")
        self.params = p
        self.dims = derive_dims(p)
        self._entry = _entry(p)
        self.field = self._entry.field
        self.header_mode = header_mode
        self.pattern = FirstHop(p.T, None if header_mode else 0)
        if not header_mode:
            self.pattern.bits.extend(map(bool, e1_bits))
        self._in_field = bytes(range(self.field.q))  # every symbol a slot may hold
        self.msgs: dict[int, _MessageState] = {}  # messages not yet final
        self.outcomes: dict[int, object] = {}  # final message -> list[int] | FAILED
        self.last_slot = -1
        self._oldest = 0  # every message before this is final

    # -- first-hop pattern knowledge ------------------------------------------

    def _plan_ready(self, t: int) -> bool:
        """All pattern bits a full plan for message t can depend on are known."""
        return self.pattern.known(t - self._entry.plan_past, t + self.params.T - self.params.N2)

    def plan(self, t: int) -> MessagePlan | None:
        """Message t's plan, None while pattern bits it needs are unknown.  A
        message with no live state -- a final one among them -- gets its plan
        built afresh and not stored: ``msgs`` holds only messages not yet
        final, and only ``ingest`` adds one."""
        st = self.msgs.get(t)
        if st is not None and st.plan is not None:
            return st.plan
        if not self._plan_ready(t):
            return None
        plan = build_message_plan(self.params, self.pattern, t)
        if st is not None:
            st.plan = plan
        return plan

    def _ready(self, t: int, st: _MessageState | None) -> MessagePlan | None:
        """Message t's plan once an attempt can succeed, else None: the plan
        is held and at least as many symbols are filed as it transmits --
        every tx item sits in exactly one codeword, and a codeword decodes
        only from as many symbols as it has tx items."""
        if st is None:  # nothing filed: a ride carries at least one symbol
            return None
        plan = st.plan if st.plan is not None else self.plan(t)
        return plan if plan is not None and st.received >= plan.n_tx else None

    # -- finalizing -------------------------------------------------------------

    def finalize(self, now: int):
        """Yield ``(t, outcome)``, in ascending t, for every message that
        ``try_decode`` finalizes at slot ``now``.  A message is attempted
        once ``_ready`` holds for it, or once ``now`` is past its deadline
        t+T.
        """
        msgs, outcomes, T = self.msgs, self.outcomes, self.params.T
        for t in range(self._oldest, now + 1):
            if t not in outcomes:
                if now <= t + T and self._ready(t, msgs.get(t)) is None:
                    continue
                outcome = self.try_decode(t, now)
                if outcome == "pending":
                    continue
                yield t, outcome
            if t == self._oldest:
                self._oldest += 1

    # -- ingest -----------------------------------------------------------------

    def ingest(self, slot: int, wire) -> None:
        """Feed the relay-hop slot ``slot``: symbol list, or None if erased."""
        p, T = self.params, self.params.T
        if wire is None:
            self.last_slot = max(self.last_slot, slot)
            return
        symbols = list(wire)
        # symbols index the field's tables: a slot holding anything but ints
        # in [0, q) files nothing.  q <= 256, so bytes() holds every valid
        # symbol and raises on any other type or on an int outside [0, 256)
        try:
            raw = bytes(symbols)
        except (TypeError, ValueError):
            raw = None
        if raw is None or raw.translate(None, self._in_field):
            raise MalformedPacket(f"slot {slot}: a symbol is not an int in [0, {self.field.q})")
        if self.header_mode:
            delta, windows = self.dims.delta, self._entry.windows
            header = raw[:delta]
            bits = windows.get(header)
            if bits is None:  # decode_header fills the memo, or rejects the header
                try:
                    decode_header(p, header)
                except ValueError as exc:
                    raise MalformedPacket(f"slot {slot}: {exc}") from None
                bits = windows[header]
            symbols = symbols[delta:]
        else:
            bits = self.pattern.slice(slot - T, T + 1)  # [slot-T, slot]
        rides = _slot_rides(p, self._entry, bits)
        if slot < T:
            rides = [ride for ride in rides if ride[0] <= slot]  # none before slot 0
        carried = 0
        for _, _, _, size in rides:
            carried += size
        if carried != len(symbols):
            raise MalformedPacket(
                f"slot {slot}: payload of {len(symbols)} symbols, the schedule carries {carried}"
            )
        # the slot is whole: record its header, then file its rides
        self.last_slot = max(self.last_slot, slot)
        if self.header_mode:
            self.pattern.cover(slot, bits)
        offset, msgs, outcomes = 0, self.msgs, self.outcomes
        for i, _, start, size in rides:
            t = slot - i
            if t not in outcomes:  # a final message files nothing
                st = msgs.get(t)
                if st is None:
                    st = msgs[t] = _MessageState()
                st.got[start] = symbols[offset : offset + size]
                st.received += size
            offset += size

    # -- decoding -----------------------------------------------------------------

    def try_decode(self, t: int, now: int | None = None):
        """Attempt to finalize message t: list | "pending" | FAILED.

        The one place a message becomes final: its outcome goes into
        ``outcomes`` and the message leaves ``msgs``, its plan and filed
        symbols with it, whoever calls.  A final message answers from
        ``outcomes``; no call creates live state.  FAILED is permanent and
        only reached once ``now`` (default: the last slot ingested) passes
        the deadline t+T, or once a dependency is FAILED, which dooms this
        message too.  Callers should attempt pending messages in ascending
        t so that interference dependencies resolve first.
        """
        outcome = self.outcomes.get(t)
        if outcome is not None:
            return outcome
        now = self.last_slot if now is None else now
        st = self.msgs.get(t)
        plan = self._ready(t, st)
        result = None if plan is None else self._attempt(t, plan, st.got)
        if result is None:
            if now <= t + self.params.T:
                return "pending"
            result = FAILED
        self.outcomes[t] = result
        self.msgs.pop(t, None)
        return result

    def _attempt(self, t: int, plan: MessagePlan, got: dict):
        d = self.dims
        queue = self._queue(plan, got)
        if queue is None:
            return None  # a codeword still holds fewer than k symbols

        if plan.erased:
            if plan.n_tx < d.k_src:
                return None  # relay never forwarded a full message (inadmissible hop)
            return self._cancel(t, plan, queue)
        out = [0] * d.k_src
        for (flat, _, _), value in zip(plan.shape.tx, queue):
            out[flat] = value
        return out

    def _queue(self, plan: MessagePlan, got: dict):
        """The message's queue from its filed rides ``got``, each lost
        symbol decoded; None while a codeword that lost one holds fewer than
        k of its n symbols.

        The received second-hop sequence holds None where a symbol was lost:
        the queue, then parity row m's symbol of codeword c at n_tx +
        m*len(codewords) + c.  Only a codeword still missing a systematic
        symbol is decoded, by the program of its layout and of the symbols
        it holds (``_decode_program``); the plan's shape has the layout, so
        no absolute view is built.
        """
        n_tx, codewords, n2 = plan.n_tx, plan.shape.codewords, self.params.N2
        width = len(codewords)
        seq = [None] * (n_tx + n2 * width)
        for start, symbols in got.items():
            seq[start : start + len(symbols)] = symbols
        queue = seq[:n_tx]
        if None not in queue:
            return queue
        add = self.field.ADD
        for ci, (n, k, items) in enumerate(codewords):
            held = [queue[item] for item in items]
            if None not in held:
                continue
            held += seq[n_tx + ci :: width]  # its n2 parities
            if held.count(None) > n2:
                return None  # not yet decodable
            key = (n, k, len(items), bytes([v is not None for v in held]))
            lost, checks = _decode_program(self.params, self._entry, key)
            for r, terms in lost:
                value = 0
                for g, row in terms:
                    value = add[value][row[held[g]]]
                queue[items[r]] = value
            for g, terms in checks:
                value = 0
                for h, row in terms:
                    value = add[value][row[held[h]]]
                if value != held[g]:
                    raise InconsistentSymbols(
                        f"symbol at position {k + g - len(items)} off the decoded codeword"
                    )
        return queue

    def _cancel(self, t: int, plan: MessagePlan, queue: list[int]):
        """Subtract interference using already-decoded messages, resolving
        each emission's terms once for all its layers: None while a
        dependency is pending, FAILED once one is FAILED."""
        p, entry, k = self.params, self._entry, self.dims.k_prime
        sub = self.field.SUB
        out = [0] * self.dims.k_src
        resolved: dict[int, list] = {}  # emission -> [(MUL row of coeff, message, position)]
        for (flat, _, e), value in zip(plan.shape.tx, queue):
            terms = resolved.get(e)
            if terms is None:
                terms = resolved[e] = []
                _, _, kept = _emission_program(p, entry, plan.emissions[e])
                for row, off, pos in kept:
                    dep_val = self.outcomes.get(t + off)
                    if dep_val is None or dep_val is FAILED:
                        return dep_val  # None: pending, its deadline is earlier
                    terms.append((row, dep_val, pos))
            layer = flat - flat % k
            for row, dep_val, pos in terms:
                value = sub[value][row[dep_val[layer + pos]]]
            out[flat] = value
        return out
