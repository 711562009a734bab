"""The emission rule and the interference rule, over every window.

``schedule_sweep`` compares ``source_codec.emission_schedule`` with the
per-slot position scan it replaced (``plan_reference.emission_schedule``),
at t=0 with a clean past, on every plan shape key of each set: the message
at slot 0 erased and every bit of (0, T-N2] free, inadmissible windows
included.  Only inadmissible windows tell a rule without its cutoff past
the last parity row (x <= N1+c) from the rule.

``interference_sweep`` checks, at every emission of every plan window of
each set, that ``emission_interference`` is the erased mask of [t-pos,
t-1]: the relay has recovered no erased earlier position of an estimate's
diagonal by the estimate's slot, so every one is kept.

Run as a script, it sweeps both over the sets of ``all_valid_params(7)``
whose plan window has at most 14 bits, and exits 1 on any mismatch::

    PYTHONPATH=src python3 tests/emission_rules.py
"""

from __future__ import annotations

import itertools
import sys

import plan_reference
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.sim_harness import all_valid_params
from relaystream.source_codec import emission_interference, emission_schedule

MAX_WINDOW_BITS = 14


def window_bits(p: SchemeParams) -> int:
    """Bits of a plan window: the 2(k'-1) slots before the message, then
    [t, t+T-N2]."""
    return 2 * (derive_dims(p).k_prime - 1) + p.T - p.N2 + 1


WIDE_SETS = [p for p in all_valid_params(7) if window_bits(p) <= MAX_WINDOW_BITS]


def erased_windows(width: int, at: int):
    """Every window of ``width`` 0/1 bytes whose byte ``at`` is 1."""
    for rest in itertools.product((0, 1), repeat=width - 1):
        yield bytes((*rest[:at], 1, *rest[at:]))


def schedule_sweep(sets) -> int:
    """Shape keys compared; AssertionError on the first mismatch."""
    keys = 0
    for p in sets:
        for bits in erased_windows(p.T - p.N2 + 1, 0):
            want = plan_reference.emission_schedule(p, lambda s: 0 <= s < len(bits) and bits[s], 0)
            assert emission_schedule(p, bits) == want, (p, bits)
            keys += 1
    return keys


def interference_sweep(sets) -> tuple[int, int]:
    """(emissions, kept terms) checked; AssertionError on the first
    emission whose interference is not the erased mask of [t-pos, t-1]."""
    emissions = kept = 0
    for p in sets:
        t = 2 * (derive_dims(p).k_prime - 1)  # the message's slot in its window
        for window in erased_windows(window_bits(p), t):
            for em in emission_schedule(p, window[t:]):
                mask = tuple((t - em.pos + q, q) for q in range(em.pos) if window[t - em.pos + q])
                got = emission_interference(p, window, t, em.pos, t + em.slot)
                assert got == mask, (p, window, em)
                emissions += 1
                kept += len(mask)
    return emissions, kept


def main() -> int:
    try:
        keys = schedule_sweep(WIDE_SETS)
        emissions, kept = interference_sweep(WIDE_SETS)
    except AssertionError as exc:
        print(f"an emission rule disagrees with its reference: {exc}")
        return 1
    print(f"{len(WIDE_SETS)} sets: {keys} shape keys match the scan; interference is the "
          f"erased mask at {emissions} emissions ({kept} kept terms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
