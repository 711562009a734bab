"""The destination's decode programs against the per-codeword reference.

``check_sets`` runs seeded i.i.d. streams at eps 0.2 and 0.45 on both hops,
oracle and header mode, over each parameter set from a dropped store entry,
so its first stream compiles programs (cold) and the later ones reuse them
(warm).  Every ``DecoderState._queue`` call is compared with
``codec_reference.queue_reference`` on the same filed rides, and again with
one symbol of each parity ride changed in-field: the same queue, the same
None, or the same ``InconsistentSymbols``.  After each set, the
programs per codeword layout (n, k, queue items) stay at most the
sum over r >= k of C(n, r) held masks (``program_bound``).

Run as a script, it checks a wider list than Tier-1 does and exits 1 on any
mismatch or bound overrun, or if no changed parity raised::

    PYTHONPATH=src python3 tests/decode_programs.py

covers ``all_valid_params(7)`` and (15,4,6,0).
"""

from __future__ import annotations

import sys
from collections import Counter
from math import comb

import numpy as np

from codec_reference import queue_reference
from relaystream import source_codec
from relaystream.dest_codec import DecoderState
from relaystream.scheme_params import SchemeParams, implemented_field_size
from relaystream.sim_harness import all_valid_params, run_episode

WIDE_SETS = [*all_valid_params(7), SchemeParams(15, 4, 6, 0)]


def outcome(fn, *args):
    """fn(*args), or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def same(a, b) -> bool:
    """Equal results, or errors of one type and text."""
    if isinstance(a, ValueError) or isinstance(b, ValueError):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def program_bound(n: int, k: int) -> int:
    """Masks a codeword of the (n, k) code can be decoded from: at least k
    of its n positions held."""
    return sum(comb(n, r) for r in range(k, n + 1))


def check_bound(p: SchemeParams) -> dict:
    """Programs per (n, k, queue items) in ``p``'s entry; AssertionError if
    a count passes ``program_bound`` or a key's mask is not N2 bytes longer
    than its queue items."""
    programs = source_codec._entry(p).decode_programs
    for n, k, m, held in programs:
        assert type(held) is bytes and len(held) == m + p.N2, (p, n, k, m, held)
    counts = Counter((n, k, m) for n, k, m, _ in programs)
    for (n, k, m), count in counts.items():
        assert count <= program_bound(n, k), (p, n, k, m, count)
    return counts


def check_sets(sets, seed: int = 241) -> dict:
    """Compiled against reference over ``sets``; AssertionError on the first
    mismatch.  A call with a queue symbol to decode is compared once as
    filed and once per parity ride held, with one of its symbols changed
    in-field (row m changes codeword m's, cyclically): a surplus parity
    must raise as the reference raises, a base parity give the reference's
    queue.  Returns counts: those ``calls``, ``compiled``
    programs, ``corrupted`` comparisons and how many of them ``raised``, and
    ``fields``, the field sizes covered."""
    real = DecoderState._queue
    counts = Counter()
    fields = set()

    def compare(state, plan, got):
        have = outcome(real, state, plan, got)
        want = outcome(queue_reference, state.params, plan, got)
        assert same(have, want), (state.params, plan.t, got, have, want)
        return have

    def queue(self, plan, got):
        programs = self._entry.decode_programs
        cold = len(programs)
        have = compare(self, plan, got)
        if sum(len(s) for start, s in got.items() if start < plan.n_tx) < plan.n_tx:
            counts["calls"] += 1
            counts["compiled"] += len(programs) - cold
            width = len(plan.shape.codewords)
            for start, symbols in got.items():
                if start >= plan.n_tx:  # parity row m: change codeword m's symbol, cyclically
                    bad = list(symbols)
                    i = (start - plan.n_tx) // width % len(bad)
                    bad[i] = (bad[i] + 1) % self.field.q
                    counts["corrupted"] += 1
                    counts["raised"] += isinstance(compare(self, plan, {**got, start: bad}), ValueError)
        if isinstance(have, ValueError):
            raise have
        return have

    DecoderState._queue = queue
    try:
        for idx, p in enumerate(sets):
            source_codec._STORE.pop(p, None)
            fields.add(implemented_field_size(p))
            horizon = 4 * (p.T + 1)
            rng = np.random.default_rng([seed, idx])
            for p_erase in (0.2, 0.45):
                e1 = [int(b) for b in rng.random(horizon) < p_erase]
                e2 = [int(b) for b in rng.random(horizon) < p_erase]
                for header_mode in (False, True):
                    run_episode(p, e1, e2, horizon, seed=idx, header_mode=header_mode)
            check_bound(p)
    finally:
        DecoderState._queue = real
    return {**counts, "fields": fields}


def main() -> int:
    try:
        counts = check_sets(WIDE_SETS)
    except AssertionError as exc:
        print(f"decode programs disagree with the reference or pass their bound: {exc}")
        return 1
    print(f"{len(WIDE_SETS)} sets: {counts['calls']} decodes, {counts['compiled']} programs "
          f"compiled, {counts['raised']} of {counts['corrupted']} parities changed in-field "
          f"raised; fields {sorted(counts['fields'])}")
    if not counts["raised"]:
        print("no surplus check ran")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
