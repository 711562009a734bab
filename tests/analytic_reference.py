"""Per-message reference for the analytic loss model, for differential tests.

A plain loop that transcribes the conditions ``sim_harness._analytic_losses``
applies to each message t, counting every window by summing its slots,
with windows clipped to [0, n): slots outside the pattern count as clean.
``tests/test_sim_harness.py`` checks the vectorized model against it.

``chunk_losses_reference`` is the whole estimate as ``loss_probability``
computed it one chunk at a time: per chunk one seeded generator, two draws
of ``horizon`` doubles, and one ``_analytic_losses`` call (plus one codec
episode in codec mode) on that chunk's assessed messages.  The block-batched
estimate must equal it exactly.
"""

import numpy as np

from relaystream.scheme_params import derive_dims
from relaystream.sim_harness import _analytic_losses, _codec_losses


def _erasures(bits, a, b):
    """Erased slots in the inclusive range [a, b], clipped to [0, len(bits))."""
    return sum(bits[max(a, 0):max(b + 1, 0)])


def analytic_losses_reference(p, e1, e2, n_assess):
    """(adaptive_lost, nonadaptive_lost) boolean arrays over messages [0, n_assess)."""
    d = derive_dims(p)
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    e1 = [int(x) for x in e1]
    e2 = [int(x) for x in e2]
    adaptive, nonadaptive = [], []
    for t in range(n_assess):
        # first hop: some diagonal through message t has more than N1
        # erasures in its n' slots
        diag_bad = any(
            _erasures(e1, t - pos, t - pos + d.n_prime - 1) > N1
            for pos in range(d.k_prime)
        )
        # the relay sends at the high rate unless the message was erased and
        # every slot of [t, t+j] was erased too
        high_rate = e1[t] == 0 or _erasures(e1, t, t + j) <= j
        lost_high = _erasures(e2, t + j, t + T) > N2
        lost_fallback = _erasures(e2, t + N1, t + T) > N2
        adaptive.append(diag_bad or (lost_high if high_rate else lost_fallback))
        nonadaptive.append(diag_bad or lost_fallback)
    return np.array(adaptive, dtype=bool), np.array(nonadaptive, dtype=bool)


def chunk_losses_reference(p, config, mode, trials):
    """{"adaptive": losses, "nonadaptive": losses} over ``trials`` messages,
    drawn and classified chunk by chunk."""
    per_chunk = config.horizon - p.T
    losses = {"adaptive": 0, "nonadaptive": 0}
    chunk = done = 0
    while done < trials:
        n_assess = min(per_chunk, trials - done)
        rng = np.random.default_rng([config.seed, chunk])
        e1 = rng.random(config.horizon) < config.alpha
        e2 = rng.random(config.horizon) < config.beta
        a_lost, na_lost = _analytic_losses(p, e1, e2, n_assess)
        losses["nonadaptive"] += int(na_lost.sum())
        if mode == "analytic":
            losses["adaptive"] += int(a_lost.sum())
        else:
            lost = _codec_losses(p, e1.astype(int).tolist(), e2.astype(int).tolist(),
                                 config.horizon, config.seed + chunk, n_assess)
            losses["adaptive"] += len(lost)
        done += n_assess
        chunk += 1
    return losses
