"""Long header-mode streams and the memory a run of one takes.

``bursty_admissible`` draws erasure bits from a two-state burst chain and
drops each erasure that would put more than N in a (T+1)-slot window, so a
pattern is admissible at any length.  ``episode_peak`` is the tracemalloc
peak of one header-mode ``run_episode`` on such patterns: the codec's
state plus the report, which is O(horizon) by contract.  Growth is
measured at (5,2,3,0) unless told otherwise, with the codec's store warmed
on the whole stream first (``growth_per_slot``).

Run as a script, it compares two horizons in one interpreter and exits 1
when the peak grows by more than the parameter set's bound in
``GROWTH_BOUNDS`` (``GROWTH_BOUND`` for a set not listed) bytes per slot::

    PYTHONPATH=src python3 tests/stream_state.py 10000 40000
    PYTHONPATH=src python3 tests/stream_state.py 2000 8000 --params 12,3,4,1

At (5,2,3,0) k'=1, so no estimate keeps interference; (12,3,4,1) has
k'=6, where the codec's store entry for the set fills with estimate
programs, interference term lists and decode programs as the stream meets
new windows, which the warm-up keeps out of the growth.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc

import numpy as np

from relaystream.scheme_params import SchemeParams
from relaystream.sim_harness import run_episode

P523 = SchemeParams(5, 2, 3, 0)
P12 = SchemeParams(12, 3, 4, 1)
GROWTH_BOUND = 600  # bytes per slot
# From 2000 to 8000 slots (12,3,4,1) reads about 1005 B per slot, most of it
# stores that grow with the stream by contract: run_episode's messages and
# the decoder's outcomes hold k_src = 48 symbols per slot each
GROWTH_BOUNDS = {P523: GROWTH_BOUND, P12: 1400}


def bursty_admissible(rng, horizon: int, T: int, N: int) -> list[int]:
    """Bits of a burst chain (enter 0.1, leave 0.25; erase 0.15 good, 0.8
    bad) in which every (T+1)-slot window holds at most N erasures."""
    u = rng.random((horizon, 2))
    bits = [0] * horizon
    in_window, bad = 0, False
    for s in range(horizon):
        bad = u[s, 0] >= 0.25 if bad else u[s, 0] < 0.1
        if s > T:
            in_window -= bits[s - T - 1]
        if in_window < N and u[s, 1] < (0.8 if bad else 0.15):
            bits[s] = 1
            in_window += 1
    return bits


def stream_inputs(p: SchemeParams, horizon: int, seed: int):
    """First- and second-hop bits, each admissible for its hop."""
    rng = np.random.default_rng([seed, horizon])
    return bursty_admissible(rng, horizon, p.T, p.N1), bursty_admissible(rng, horizon, p.T, p.N2)


def episode_peak(p: SchemeParams, e1, e2, horizon: int) -> int:
    """tracemalloc peak, in bytes, of one header-mode episode at ``p`` over
    the first ``horizon`` slots of ``e1`` and ``e2``."""
    gc.collect()
    tracemalloc.start()
    try:
        rep = run_episode(p, e1, e2, horizon, seed=1, header_mode=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not rep.ok:
        raise AssertionError(f"episode of {horizon} slots lost messages: {rep.failed[:5]}")
    return peak


def growth_per_slot(short: int, long: int, p: SchemeParams = P523) -> float:
    """Bytes of peak per slot added between a short and a long episode on
    one stream, the short one its prefix.  An untraced run over the whole
    stream first fills the codec's store with every memo either episode
    meets, so a memo whose size the structure bounds counts in neither
    peak, and what the difference measures is state that grows with the
    stream (the memo bounds have tests of their own)."""
    e1, e2 = stream_inputs(p, long, 1)
    run_episode(p, e1, e2, long, header_mode=True)
    return (episode_peak(p, e1, e2, long) - episode_peak(p, e1, e2, short)) / (long - short)


def parse_params(text: str) -> SchemeParams:
    """``T,N1,N2,j`` as a parameter set."""
    try:
        return SchemeParams(*(int(x) for x in text.split(",")))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"expected T,N1,N2,j, got {text!r}: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("short", type=int)
    ap.add_argument("long", type=int)
    ap.add_argument("--params", type=parse_params, default=P523, metavar="T,N1,N2,j",
                    help="parameter set of the episodes (default 5,2,3,0)")
    args = ap.parse_args(argv)
    p = args.params
    bound = GROWTH_BOUNDS.get(p, GROWTH_BOUND)
    growth = growth_per_slot(args.short, args.long, p)
    print(f"peak grows {growth:.0f} B/slot from {args.short} to {args.long} slots "
          f"at ({p.T},{p.N1},{p.N2},{p.j}) (bound {bound})")
    return 0 if growth <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
