"""Long header-mode streams and the memory a run of one takes.

``bursty_admissible`` draws erasure bits from a two-state burst chain and
drops each erasure that would put more than N in a (T+1)-slot window, so a
pattern is admissible at any length.  ``episode_peak`` is the tracemalloc
peak of one header-mode ``run_episode`` at (5,2,3,0) on such patterns: the
codec's state plus the report, which is O(horizon) by contract.

Run as a script, it compares two horizons in one interpreter and exits 1
when the peak grows by more than ``GROWTH_BOUND`` bytes per slot::

    PYTHONPATH=src python3 tests/stream_state.py 10000 40000
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
GROWTH_BOUND = 600  # bytes per slot


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


def episode_peak(horizon: int, seed: int = 1) -> int:
    """tracemalloc peak, in bytes, of one header-mode (5,2,3,0) episode."""
    e1, e2 = stream_inputs(P523, horizon, seed)
    run_episode(P523, e1[:256], e2[:256], 256, header_mode=True)  # fill the plan memo
    gc.collect()
    tracemalloc.start()
    try:
        rep = run_episode(P523, e1, e2, horizon, seed=seed, header_mode=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not rep.ok:
        raise AssertionError(f"episode of {horizon} slots lost messages: {rep.failed[:5]}")
    return peak


def growth_per_slot(short: int, long: int) -> float:
    """Bytes of peak per slot added between a short and a long episode."""
    return (episode_peak(long) - episode_peak(short)) / (long - short)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("short", type=int)
    ap.add_argument("long", type=int)
    args = ap.parse_args(argv)
    growth = growth_per_slot(args.short, args.long)
    print(f"peak grows {growth:.0f} B/slot from {args.short} to {args.long} slots "
          f"(bound {GROWTH_BOUND})")
    return 0 if growth <= GROWTH_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
