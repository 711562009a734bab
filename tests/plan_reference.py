"""Reference copy of the unmemoized plan rule, for differential tests.

These are the bodies ``build_message_plan``, ``emission_schedule`` and the
contract schedule had before plans were memoized: every call rebuilds the
whole plan from the erasure lookup, in absolute slots, and the contract
schedule counts availability in closed form (``closed_form_schedule``).
``slot_layout`` is the per-slot rule as it was before layouts were
memoized: each call looks up the shape of every riding message and sums its
subpacket sizes again.
``relay_recovery_slot`` and ``emission_interference`` are the recovery and
interference rules as they were before the engine read a plan's window as
``bytes``: they call the slot -> bool lookup for every bit.
``emission_schedule`` is also the per-slot scan over positions that the
library's one-emission-per-received-slot rule replaced.
``tests/test_plan_engine.py`` checks the memoized engine against them.  Only
the frozen record types and the shape memo (read through
``build_message_plan``) come from the library.

``compute_schedule`` is the contract-level schedule read through the
library's engine, with the admissibility check; only tests call it.
"""

from relaystream.relay_codec import (
    CodewordSpec,
    Schedule,
    TxItem,
    build_message_plan as engine_plan,
)
from relaystream.scheme_params import derive_dims
from relaystream.source_codec import PosEmission


def _diag_parity_slots(t, pos, k_prime, n1_rows):
    u = t - pos
    return [(u + k_prime + m, m) for m in range(n1_rows)]


def relay_recovery_slot(p, erased, t):
    """First slot by which the relay knows s_t exactly (None if never), from
    the lookup ``erased``: the slot where every diagonal through the message
    holds as many received parity rows as unavailable systematic positions."""
    d = derive_dims(p)
    if not erased(t):
        return t
    worst = t
    for pos in range(d.k_prime):
        u = t - pos
        got, ready = 0, None
        for slot, _m in _diag_parity_slots(t, pos, d.k_prime, p.N1):
            if erased(slot):
                continue
            got += 1
            unknown = sum(
                1 for q in range(d.k_prime) if u + q >= 0 and (u + q > slot or erased(u + q))
            )
            if got >= unknown:
                ready = slot
                break
        if ready is None:
            return None
        worst = max(worst, ready)
    return worst


def emission_interference(p, erased, t, pos, slot):
    """(t', pos') terms an estimate of (t, pos) made at ``slot`` keeps, from
    the lookup ``erased``."""
    out = []
    for q in range(pos):
        s_q = t - pos + q
        if s_q < 0 or not erased(s_q):
            continue
        ready = relay_recovery_slot(p, erased, s_q)
        if ready is None or ready > slot:
            out.append((s_q, q))
    return tuple(out)


def emission_schedule(p, erased, t):
    """All estimate emissions for message t, in transmission order."""
    if not erased(t):
        return []
    d = derive_dims(p)
    k_prime = d.k_prime
    out = []
    emitted = [False] * k_prime
    for slot in range(t + 1, t + p.T - p.N2 + 1):
        if erased(slot):
            continue
        for pos in range(k_prime - 1, -1, -1):
            if emitted[pos]:
                continue
            u = t - pos
            late = tuple(q for q in range(pos + 1, k_prime) if u + q >= 0 and erased(u + q))
            rows = tuple(
                m
                for s, m in _diag_parity_slots(t, pos, k_prime, p.N1)
                if s <= slot and not erased(s)
            )
            if len(rows) < len(late) + 1:
                continue
            rows = rows[: len(late) + 1]
            interference = emission_interference(p, erased, t, pos, slot)
            out.append(PosEmission(t, pos, slot, rows, late, interference))
            emitted[pos] = True
    return out


def schedule_core(p, erased_msg, erased_after, avail):
    d = derive_dims(p)
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    last_msg = T - N2
    gamma, ell, alpha = [], [], []
    sent = 0
    for i in range(last_msg + 1):
        g = sum(1 for a in range(1, i) if erased_after(a))
        gamma.append(g)
        if i < j or (not erased_msg):
            cap = d.l_dprime if i >= j else 0
        elif g <= j - 1:
            cap = d.l_dprime
        elif i >= N1:
            cap = d.k_dprime
        else:
            cap = 0
        ell.append(cap)
        a = min(cap, avail(i) - sent)
        assert a >= 0
        alpha.append(a)
        sent += a
    grouped = erased_msg and gamma[last_msg] > j - 1
    par = 0 if sent == 0 and erased_msg else (d.k_dprime if grouped else d.l_dprime)
    for i in range(last_msg + 1, T + 1):
        alpha.append(par)
        ell.append(par)
    return tuple(alpha), tuple(ell), tuple(gamma), grouped


def build_message_plan(p, erased_fn, t):
    """(t, erased, schedule, tx, codewords) of message t."""
    d = derive_dims(p)
    erased_msg = bool(erased_fn(t))
    emissions = emission_schedule(p, erased_fn, t) if erased_msg else []

    def erased_after(i):
        return bool(erased_fn(t + i))

    def avail(i):
        if not erased_msg:
            return d.k_src
        return d.l_prime * sum(1 for em in emissions if em.slot <= t + i)

    alpha, ell, gamma, grouped = schedule_core(p, erased_msg, erased_after, avail)
    sched = Schedule(t, erased_msg, grouped, alpha, ell, gamma)

    queue = []
    if erased_msg:
        for em in emissions:
            for c in range(d.l_prime):
                queue.append((c * d.k_prime + em.pos, em))
    else:
        for w in range(d.k_dprime):
            for layer in range(d.l_dprime):
                queue.append((layer * d.k_dprime + w, None))

    tx = []
    consumed = 0
    for i in range(p.T - p.N2 + 1):
        for _ in range(alpha[i]):
            flat, em = queue[consumed]
            tx.append(TxItem(flat, t + i, em))
            consumed += 1

    codewords = []
    first_parity = p.T - p.N2 + 1
    if grouped:
        gs = d.k_dprime
        n_code, k_code = p.T + 1 - p.N1, d.l_dprime
        for pos in range(gs):
            sys_items = tuple(r * gs + pos for r in range(k_code) if r * gs + pos < len(tx))
            pars = tuple((t + first_parity + m, pos) for m in range(p.N2))
            codewords.append(CodewordSpec(n_code, k_code, sys_items, pars))
    else:
        n_code, k_code = d.n_dprime, d.k_dprime
        for layer in range(d.l_dprime):
            sys_items = tuple(
                w * d.l_dprime + layer for w in range(k_code) if w * d.l_dprime + layer < len(tx)
            )
            pars = tuple((t + first_parity + m, layer) for m in range(p.N2))
            codewords.append(CodewordSpec(n_code, k_code, sys_items, pars))

    return t, erased_msg, sched, tuple(tx), tuple(codewords)


def closed_form_schedule(p, t, erased, prefix):
    """The contract schedule with the closed-form availability count
    min(k_src, l' * received slots in (t, t+i])."""
    d = derive_dims(p)
    bits = [int(b) for b in prefix]

    def erased_after(i):
        return bool(bits[i - 1])

    def avail(i):
        if not erased:
            return d.k_src
        got = sum(1 for a in range(1, i + 1) if not erased_after(a))
        return min(d.k_src, d.l_prime * got)

    alpha, ell, gamma, grouped = schedule_core(p, erased, erased_after, avail)
    return Schedule(t, erased, grouped, alpha, ell, gamma)


class InadmissiblePattern(ValueError):
    """Erasure prefix violates the first-hop window bound."""


def compute_schedule(p, t, erased, prefix):
    """Contract-level schedule from the erasure prefix over (t, t+T-N2].

    prefix[i-1] is the erasure bit of slot t+i.  Raises InadmissiblePattern
    if the visible window [t, t+T-N2] already exceeds N1 erasures.
    """
    bits = [int(b) for b in prefix]
    if len(bits) != p.T - p.N2:
        raise InadmissiblePattern(
            f"prefix must cover (t, t+T-N2]: expected {p.T - p.N2} bits, got {len(bits)}"
        )
    if int(erased) + sum(bits) > p.N1:
        raise InadmissiblePattern(
            f"{int(erased) + sum(bits)} erasures in a {p.T - p.N2 + 1}-slot window exceed N1={p.N1}"
        )
    window = [bool(erased)] + [bool(b) for b in bits]
    return engine_plan(p, lambda s: 0 <= s - t < len(window) and window[s - t], t).schedule


def slot_layout(p, bits, s):
    """Who rides relay slot s, from the T+1 bits of [s-T, s]: (t, shape,
    start, size), oldest message first, start the sum of alpha before the
    slot's offset s-t in message t's second-hop sequence."""
    if len(bits) != p.T + 1:
        raise ValueError(f"slot layout reads T+1 = {p.T + 1} bits, got {len(bits)}")
    width = p.T - p.N2 + 1  # message-phase offsets 0 .. T-N2
    window = tuple(map(bool, bits)) + (True,) * (width - 1)
    first = max(0, s - p.T)
    keys = [window[lo : lo + width] for lo in range(first - s + p.T, p.T - p.j + 1)]
    rides = []
    for t, key in enumerate(keys, first):
        # a shape reads only [t, t+T-N2]; the bits before t read clean
        shape = engine_plan(p, lambda x: 0 <= x - t < width and key[x - t], t).shape
        i, alpha = s - t, shape.schedule.alpha
        if alpha[i]:
            rides.append((t, shape, sum(alpha[:i]), alpha[i]))
    return rides
