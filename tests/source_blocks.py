"""The first hop's block encoder against the per-call reference, at the
block edges.

``check_sets`` draws each set's messages as ``run_episode`` does, one int
array of ``rng.integers(0, q, size=(horizon, k_src))``, and encodes its
prefixes of ``horizons(B)`` slots (B = ``source_codec._BLOCK``: 1, B-1, B,
B+1 and 3B+5) through ``EpisodeMessages``, each from a fresh wrapper, with
the slots asked for in three orders:
- ascending, every slot;
- sparse: ascending, each slot skipped with probability 0.3, as the relay
  skips the slots erased on the first hop;
- a random permutation of every slot.

Every packet must equal ``codec_reference.encode_source_reference`` on the
list form of the same messages, slots t < k'+N1-1 (whose diagonals reach
before time 0) included, and every symbol must be a Python ``int``.

Run as a script, it checks a wider list than Tier-1 does and exits 1 on any
mismatch::

    PYTHONPATH=src python3 tests/source_blocks.py

covers ``all_valid_params(7)``, (15,4,6,0) and (26,2,16,0).
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from codec_reference import encode_source_reference
from relaystream import source_codec
from relaystream.scheme_params import SchemeParams, derive_dims, implemented_field_size
from relaystream.sim_harness import all_valid_params
from relaystream.source_codec import EpisodeMessages, encode_source

WIDE_SETS = [*all_valid_params(7), SchemeParams(15, 4, 6, 0), SchemeParams(26, 2, 16, 0)]
SKIP = 0.3  # sparse order: probability a slot is not asked for


def horizons(block: int) -> tuple[int, ...]:
    return 1, block - 1, block, block + 1, 3 * block + 5


def orders(rng, horizon: int):
    """(name, slots) of the three request orders over ``horizon`` slots."""
    slots = np.arange(horizon)
    yield "ascending", slots.tolist()
    yield "sparse", slots[rng.random(horizon) >= SKIP].tolist()
    yield "random", rng.permutation(horizon).tolist()


def check_packet(p: SchemeParams, got, want, where) -> None:
    """AssertionError unless ``got`` equals ``want`` and holds only ints."""
    assert got == want, (p, where, got, want)
    assert all(type(sym) is int for row in got.rows for sym in row), (p, where)


def check_sets(sets, seed: int = 307) -> Counter:
    """Block encoder against the reference over ``sets``; AssertionError on
    the first mismatch.  Returns counts: ``sets``, ``packets`` compared,
    ``early`` ones (t < k'+N1-1), and ``fields``, the field sizes covered
    (one count per set)."""
    block = source_codec._BLOCK
    counts = Counter()
    for idx, p in enumerate(sets):
        d, q = derive_dims(p), implemented_field_size(p)
        rng = np.random.default_rng([seed, idx])
        longest = max(horizons(block))
        array = rng.integers(0, q, size=(longest, d.k_src))
        messages = array.tolist()
        # a packet reads no message after its own, so one reference serves
        # every prefix
        want = [encode_source_reference(p, messages, t) for t in range(longest)]
        early = d.k_prime + p.N1 - 1
        for horizon in horizons(block):
            for name, slots in orders(rng, horizon):
                wrapped = EpisodeMessages(array[:horizon])
                for t in slots:
                    check_packet(p, encode_source(p, wrapped, t), want[t], (horizon, name, t))
                    counts["packets"] += 1
                    counts["early"] += t < early
        counts["sets"] += 1
        counts[f"GF({q})"] += 1
    return counts


def main() -> int:
    try:
        counts = check_sets(WIDE_SETS)
    except AssertionError as exc:
        print(f"block encoder disagrees with the reference: {exc}")
        return 1
    fields = sorted((k for k in counts if k.startswith("GF(")), key=lambda k: int(k[3:-1]))
    print(f"{counts['sets']} sets: {counts['packets']} packets ({counts['early']} before "
          f"k'+N1-1) equal the reference; fields {', '.join(fields)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
