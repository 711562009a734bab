"""Every plan shape's second-hop programs against the per-symbol references.

``check_sets`` drops each parameter set's store entry and builds the plan
of every shape key, the first-hop bits of [t, t+T-N2], at t = plan_past
with clean bits before t.  For each shape:

- ``parity``: ``build_parity_groups`` over random queue values equals
  ``codec_reference.build_parity_groups_reference`` (one zero-padded
  ``MdsCode.encode`` per codeword), and the program is the one the entry
  keeps for the shape's codeword layout;
- a received message's ``gather`` over a random packet's rows, joined into
  one tuple, equals the per-symbol read ``rows[f // k'][f % k']`` of its tx
  items, and its ``scatter`` over a random queue equals writing each tx
  item's value at its flat index;
- an erased message has neither.

Run as a script, it checks a wider list than Tier-1 does and exits 1 on any
mismatch::

    PYTHONPATH=src python3 tests/shape_programs.py

covers ``all_valid_params(7)``, (15,4,6,0) and (26,2,16,0).
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

import numpy as np

from codec_reference import build_parity_groups_reference
from relaystream import source_codec
from relaystream.relay_codec import build_message_plan, build_parity_groups
from relaystream.scheme_params import SchemeParams, derive_dims, implemented_field_size
from relaystream.sim_harness import all_valid_params

WIDE_SETS = [*all_valid_params(7), SchemeParams(15, 4, 6, 0), SchemeParams(26, 2, 16, 0)]


def gather_reference(shape, rows, k_prime: int) -> tuple:
    """The queue of a received message, one symbol per tx item: flat index
    f is symbol f % k' of packet row f // k'."""
    return tuple(rows[f // k_prime][f % k_prime] for f, _, _ in shape.tx)


def scatter_reference(shape, queue, k_src: int) -> list:
    """The message in flat order, each tx item's value at its flat index."""
    out = [0] * k_src
    for (flat, _, _), value in zip(shape.tx, queue):
        out[flat] = value
    return out


def check_set(p: SchemeParams, rng) -> Counter:
    """Every shape of ``p`` from a dropped store entry; AssertionError on
    the first mismatch.  Counts the ``shapes``, the ``received`` ones and
    the distinct parity ``programs``."""
    source_codec._STORE.pop(p, None)
    d, q = derive_dims(p), implemented_field_size(p)
    t = source_codec._entry(p).plan_past
    counts, programs = Counter(), {}
    for key in itertools.product((0, 1), repeat=p.T - p.N2 + 1):
        plan = build_message_plan(p, lambda s: t <= s and key[s - t] == 1, t)
        shape, entry = plan.shape, source_codec._entry(p)
        assert shape.parity is entry.parity_programs[shape.codewords], (p, key)
        values = [int(v) for v in rng.integers(0, q, plan.n_tx)]
        got = build_parity_groups(p, plan, values)
        assert got == build_parity_groups_reference(p, plan, values), (p, key)
        programs[id(shape.parity)] = shape.parity
        counts["shapes"] += 1
        if plan.erased:
            assert shape.gather is None and shape.scatter is None, (p, key)
            continue
        counts["received"] += 1
        rows = tuple(tuple(int(v) for v in rng.integers(0, q, d.n_prime)) for _ in range(d.l_prime))
        assert shape.gather(sum(rows, ())) == gather_reference(shape, rows, d.k_prime), (p, key)
        queue = [int(v) for v in rng.integers(0, q, d.k_src)]
        assert list(shape.scatter(queue)) == scatter_reference(shape, queue, d.k_src), (p, key)
    counts["programs"] = len(programs)
    return counts


def check_sets(sets, seed: int = 257) -> dict:
    """``check_set`` over ``sets``; returns the summed counts, ``sets`` and
    ``fields``, the field sizes covered."""
    counts, fields = Counter(), set()
    for idx, p in enumerate(sets):
        counts += check_set(p, np.random.default_rng([seed, idx]))
        fields.add(implemented_field_size(p))
    return {**counts, "sets": len(sets), "fields": fields}


def main() -> int:
    try:
        counts = check_sets(WIDE_SETS)
    except AssertionError as exc:
        print(f"a shape's programs disagree with the per-symbol references: {exc}")
        return 1
    print(f"{counts['sets']} sets: {counts['shapes']} shapes, {counts['received']} received, "
          f"{counts['programs']} parity programs; fields {sorted(counts['fields'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
