"""End-to-end simulation: episode runner, adversarial verifier, loss curves.

Verification strategy.  Running every admissible pattern pair through the
full codec is infeasible beyond toy sizes (the pair count grows like 4^T), so
`exhaustive_verify` splits the claim:

* Structure.  Everything the relay schedules for message t -- subpacket
  sizes, queue layout, codeword shapes and slots -- is a pure function of the
  T-N2+1 erasure bits of [t, t+T-N2].  It is the t-relative plan shape that
  `build_message_plan` memoizes on those bits and that the relay and the
  destination read; the certificate reads it with a clean past.  The relay
  payload at slot s is the sum of the sizes `slot_layout` gives for the T+1
  bits ending at s: the one per-slot rule the relay emits by and the
  destination slices by.  Enumerating every admissible (T+1)-bit window
  therefore checks schedule conservation, availability counts, payload
  bounds, and the per-codeword slot discipline (no codeword puts two symbols
  in one slot, spans at most [t, t+T], and carries exactly N2 parities)
  against *all* admissible first-hop patterns at once.  The slot discipline
  is what makes any admissible second hop survivable: at most N2 of each
  codeword's symbols can be lost, which its parity budget covers.
* Values.  The symbol-level pipeline (estimate extraction, interference
  bookkeeping, MDS decode, cancellation) is exercised by driving full
  episodes over probe pattern families and seeded admissible samples, with
  decoded output compared against the ground-truth messages; small parameter
  sets get the complete pattern-pair cross product.

Loss estimation runs in two modes sharing identical pattern streams per
seed: `analytic` classifies each message by the closed-form loss conditions
(vectorized, no codec), `codec` runs the real pipeline.  The analytic mode
holds each hop's erasures of a chunk as one prefix sum, zero-padded before
slot 0 and held flat after the last slot, so the erasure count of a window
at every message is one subtraction of two slices of it; slots outside the
chunk count as clean.  Chunks are drawn and classified in blocks: each
chunk keeps its own seeded generator, the block's chunks are the rows of
one array, and one pass over the last axis classifies them all; the tail
of a partial last chunk is cut off after the pass.  Codec mode draws the
same blocks and runs one episode per chunk.  `tests/analytic_reference.py`
holds the per-message loop the formula must match and the per-chunk loop
the whole estimate must match, both exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .scheme_params import (
    FULLY_ADAPTIVE_PACKET_BYTES,
    FULLY_ADAPTIVE_RATE,
    SchemeParams,
    derive_dims,
    implemented_field_size,
    nonadaptive_rate,
    optimal_j,
    packet_size_bits,
    rate_r2,
    scheme_rate,
)
from .erasure_channel import (
    ChannelConfig,
    HorizonTooLarge,
    _burst_family,
    _enumerable,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    pattern_from_bits,
)
from .source_codec import EpisodeMessages, encode_source
from .relay_codec import RelayState, build_message_plan, slot_layout
from .dest_codec import FAILED, DecoderState

VERIFY_T_LIMIT = 7  # full mode; larger T must use randomized=True
_VERIFY_CROSS_BUDGET = 1600  # full mode runs every pattern pair up to this many
_VERIFY_WINDOW_BUDGET = 4096  # randomized mode samples this many windows, at most
_SAMPLE_ATTEMPTS = 400  # draws per seeded admissible sample before it falls back to clean


# ---------------------------------------------------------------------------
# episode runner


@dataclass(frozen=True)
class EpisodeReport:
    """Outcome of one source->relay->destination run."""

    params: SchemeParams
    horizon: int
    decode_slots: dict  # message t -> slot it was finalized (decoded only)
    failed: tuple  # assessable messages that ended FAILED
    payloads: tuple  # relay payload symbols per slot
    max_payload: int
    violations: tuple  # (kind, detail) pairs; empty on a healthy run

    @property
    def ok(self) -> bool:
        return not self.failed and not self.violations


def run_episode(
    p: SchemeParams,
    e1,
    e2,
    horizon: int | None = None,
    seed: int = 0,
    header_mode: bool = False,
) -> EpisodeReport:
    """Drive the full pipeline over one pattern pair and audit the outcome.

    ``e1``/``e2`` are 0/1 sequences of at least ``horizon`` (default
    ``len(e1)``) slots.  Decoded messages are compared with ground truth as
    they are finalized; failures and invariant violations are recorded in
    the report rather than raised, so inadmissible patterns degrade into
    FAILED messages instead of crashes.  The messages are one int array,
    drawn at once and wrapped in ``EpisodeMessages``: the source encodes
    from it a block of slots at a time, and the audit reads s_t from it as
    Python ints.  The relay and the decoder keep state for the messages in
    flight only; what grows with the horizon is the report (decode slots,
    failures and payloads, one entry per message or slot), the message
    array, the decoder's outcomes, and the first-hop bits the relay and the
    decoder each hold as one byte per slot.
    """
    bits1, bits2 = pattern_from_bits(e1), pattern_from_bits(e2)
    horizon = len(bits1) if horizon is None else horizon
    if min(len(bits1), len(bits2)) < horizon:
        raise ValueError(f"patterns cover {len(bits1)} and {len(bits2)} slots, "
                         f"horizon is {horizon}")
    bits1, bits2 = bits1[:horizon], bits2[:horizon]
    d = derive_dims(p)
    rng = np.random.default_rng([seed, 0x5E_ED])
    messages = EpisodeMessages(rng.integers(0, implemented_field_size(p), size=(horizon, d.k_src)))

    relay = RelayState(p, header_mode=header_mode)
    dest = (
        DecoderState(p, header_mode=True)
        if header_mode
        else DecoderState(p, e1_bits=bits1)
    )
    payloads = []
    n_assess = max(0, horizon - p.T)
    decode_slots: dict[int, int] = {}
    violations: list[tuple] = []
    audits: dict[int, tuple] = {}  # t -> wrong-value or late violation
    for s in range(horizon):
        relay.ingest_source(s, None if bits1[s] else encode_source(p, messages, s))
        rp = relay.emit(s)
        payload = rp.payload_symbols
        payloads.append(payload)
        if payload > d.n2_star:
            violations.append(("payload-bound", s, payload))
        dest.ingest(s, None if bits2[s] else rp.wire_symbols())
        for t, r in dest.finalize(s):
            if r is FAILED:
                continue
            decode_slots[t] = s
            if t >= n_assess:
                continue  # past the last assessable message
            if r != messages[t]:
                audits[t] = ("wrong-value", t)
            elif s > t + p.T:
                audits[t] = ("late", t, s)

    failed = [t for t in range(n_assess) if t not in decode_slots]
    violations += [audits[t] for t in sorted(audits)]
    return EpisodeReport(
        p,
        horizon,
        decode_slots,
        tuple(failed),
        tuple(payloads),
        max(payloads) if payloads else 0,
        tuple(violations),
    )


# ---------------------------------------------------------------------------
# exhaustive adversarial verification


@dataclass(frozen=True)
class VerifyReport:
    params: SchemeParams
    horizon: int
    ok: bool
    windows_checked: int
    episodes_run: int
    max_payload: int
    payload_target: int
    counterexample: dict | None
    notes: tuple = ()


def _plan_problems(p: SchemeParams, key: tuple):
    """Yield, in check order, the problems of the schedule/codeword
    certificate for a message whose first-hop bits from its own slot on are
    ``key`` (bit 0 = the message's slot; later slots read clean)."""
    d = derive_dims(p)

    def erased(s: int) -> bool:
        return 0 <= s < len(key) and bool(key[s])

    plan = build_message_plan(p, erased, 0)
    alpha = plan.schedule.alpha
    msg_total = sum(alpha[: p.T - p.N2 + 1])
    if msg_total != d.k_src:
        yield f"scheduled {msg_total} != k_src {d.k_src}"
    if any(alpha[i] for i in range(min(p.j, len(alpha)))):
        yield "symbols scheduled before t+j"
    if sorted(item.flat for item in plan.tx) != list(range(d.k_src)):
        yield "transmission queue does not cover the message exactly once"
    # availability bookkeeping: each received slot unlocks one position
    # across all layers at once, until the message is exhausted
    if plan.erased:
        for i in range(p.T - p.N2 + 1):
            got = d.l_prime * len(
                {item.emission.pos for item in plan.tx if item.emission and item.emission.slot <= i}
            )
            want = min(d.k_src, d.l_prime * sum(1 for a in range(1, i + 1) if not erased(a)))
            if got != want:
                yield f"availability at offset {i}: {got} != {want}"
    expect_cw = d.k_dprime if plan.schedule.grouped else d.l_dprime
    if len(plan.codewords) != expect_cw:
        yield f"{len(plan.codewords)} codewords, expected {expect_cw}"
    for cw in plan.codewords:
        slots = [plan.tx[it].slot for it in cw.sys_items]
        slots += [slot for slot, _ in cw.parity_slots]
        if len(cw.sys_items) != cw.k or cw.n - cw.k != p.N2:
            yield f"codeword shape ({cw.n},{cw.k}) with {len(cw.sys_items)} systematic"
        if len(set(slots)) != len(slots):
            yield "codeword rides one slot twice"
        if min(slots) < 0 or max(slots) > p.T:
            yield f"codeword span [{min(slots)},{max(slots)}] leaves [t,t+T]"


def _structural_pass(p: SchemeParams, windows) -> tuple:
    """Run the window certificate over ``windows`` up to its first
    counterexample; returns (windows checked, max payload, counterexample)."""
    d = derive_dims(p)
    width = p.T - p.N2 + 1
    problems: dict = {}  # plan key -> first problem, or None
    max_payload = 0
    for count, window in enumerate(windows, 1):
        # message-level checks on the window and on each suffix that a
        # message riding its last slot sees with a clean future; a full
        # sweep meets every suffix as a window too, a sampled one may not
        for lo in range(p.T - p.j + 1):
            key = window[lo : lo + width]
            if key not in problems:
                problems[key] = next(_plan_problems(p, key), None)
            if problems[key] is not None:
                return count, max_payload, {"window": window[lo:], "problem": problems[key]}
        # payload at the slot that sees `window` as its trailing T+1 bits
        payload = sum(size for _, _, _, size in slot_layout(p, window, p.T))
        max_payload = max(max_payload, payload)
        if payload > d.n2_star:
            return count, max_payload, {
                "window": window,
                "problem": f"payload {payload} exceeds n2* {d.n2_star}",
            }
    return len(windows), max_payload, None


def attainable_payload(p: SchemeParams) -> int:
    """Exact worst-case relay payload, as certified by the window sweep.

    n2_star sizes packets for N1-j fallback-mode messages overlapping one
    slot, but a fallback subpacket only ships at offsets i in [N1, T], so at
    most T+1-N1 such messages can actually coincide.  With
    f = min(N1-j, T+1-N1) the worst slot carries f fallback subpackets of
    k_dprime symbols and T+1-j-f steady ones of l_dprime:

        k_dprime * f + l_dprime * (T+1-j-f)

    which equals n2_star whenever N1-j <= T+1-N1 and is strictly below it
    otherwise (n2_star stays a valid sizing bound either way).
    """
    d = derive_dims(p)
    f = min(p.N1 - p.j, p.T + 1 - p.N1)
    return d.k_dprime * f + d.l_dprime * (p.T + 1 - p.j - f)


def _sample_admissible(T: int, N: int, horizon: int, rng):
    """One seeded admissible pattern, biased toward heavy loss."""
    target = N / (T + 1)
    for _ in range(_SAMPLE_ATTEMPTS):
        bits = (rng.random(horizon) < target).astype(int).tolist()
        if is_admissible(bits, T, N):
            return bits
    return [0] * horizon


def _probe_e2_family(p: SchemeParams, horizon: int, rng, extra: int):
    """Second-hop probes: clean, every N2-burst placement, stride, samples."""
    T, N2 = p.T, p.N2
    family = _burst_family(horizon, N2, range(horizon - N2 + 1))
    if N2 > 0:
        family.append([1 if (i % (T + 1)) < N2 else 0 for i in range(horizon)])
    for _ in range(extra):
        family.append(_sample_admissible(T, N2, horizon, rng))
    return family


def _probe_e1_family(p: SchemeParams, horizon: int, rng, budget: int):
    """First-hop patterns: all of them when they are few and the horizon is
    within the enumeration bound, else bursts + samples."""
    T, N1 = p.T, p.N1
    if _enumerable(T, horizon) and count_admissible(T, N1, horizon) <= budget:
        return [list(pat) for pat in enumerate_admissible(T, N1, horizon)], True
    family = _burst_family(horizon, N1, (0, 1, p.j + 1, T, T + 2))
    # alternating singles stress interference chains
    comb = [1 if i % 2 == 0 else 0 for i in range(horizon)]
    if is_admissible(comb, T, N1):
        family.append(comb)
    while len(family) < budget:
        family.append(_sample_admissible(T, N1, horizon, rng))
    return family, False


def _episode_pairs(p: SchemeParams, horizon: int, rng, randomized: bool, episode_budget: int):
    """The value-level episodes' pattern pairs, and the note naming them.
    Only full mode counts the pairs: randomized mode never runs them all."""
    if not randomized and _enumerable(p.T, horizon) and (
        count_admissible(p.T, p.N1, horizon) * count_admissible(p.T, p.N2, horizon)
        <= _VERIFY_CROSS_BUDGET
    ):
        e1s = [list(x) for x in enumerate_admissible(p.T, p.N1, horizon)]
        e2s = [list(x) for x in enumerate_admissible(p.T, p.N2, horizon)]
        return [(a, b) for a in e1s for b in e2s], f"full cross product {len(e1s)}x{len(e2s)}"
    e1s, e1_exhaustive = _probe_e1_family(p, horizon, rng, budget=max(8, episode_budget // 6))
    e2s = _probe_e2_family(p, horizon, rng, extra=2)
    pairs = [(e1s[0], e2s[0])]
    k = 1
    for a in e1s:
        pairs.append((a, [0] * horizon))
        for _ in range(max(1, episode_budget // max(1, len(e1s)))):
            pairs.append((a, e2s[k % len(e2s)]))
            k += 1
    kind = " (exhaustive)" if e1_exhaustive else " (sampled)"
    return pairs, f"probe episodes over {len(e1s)} first-hop patterns{kind}"


def exhaustive_verify(
    p: SchemeParams,
    horizon: int | None = None,
    *,
    seed: int = 0,
    randomized: bool = False,
    episode_budget: int = 48,
) -> VerifyReport:
    """Adversarial achievability check for one parameter set.

    Every admissible (T+1)-bit window is certified structurally, then
    value-level episodes run over pattern pairs; the first failure, of
    either pass, is the report's counterexample.  Full mode (T <= 7) runs
    the full pattern-pair cross product when it has at most
    ``_VERIFY_CROSS_BUDGET`` pairs and the horizon is within
    ``enumerate_admissible``'s bound of 3(T+1) slots, and probe families
    otherwise; it also requires the worst structural payload to equal
    ``attainable_payload``.  Randomized mode always runs probe families, is
    the only mode allowed for T > 7, and samples ``_VERIFY_WINDOW_BUDGET``
    windows when there are more.  The probe hop-1 family is every admissible
    pattern when there are few enough and the horizon is within the same
    bound, else bursts and seeded samples.

    ``episode_budget`` b sizes the probe episodes but does not bound them:
    ``max(8, b // 6)`` hop-1 patterns or more (all, if fewer exist), each a
    clean-hop-2 episode and ``max(1, b // patterns)`` probes, after one
    opening episode.  A randomized (9,2,3,0) runs 17 for b = 6, 57 for 48.
    """
    if horizon is None:
        horizon = 2 * (p.T + 1)
    if horizon < p.T + 1:
        raise ValueError("horizon must cover at least one deadline window")
    if not randomized and p.T > VERIFY_T_LIMIT:
        raise HorizonTooLarge(
            f"full verification is guarded to T <= {VERIFY_T_LIMIT}; "
            f"rerun with randomized=True for T={p.T}"
        )
    d = derive_dims(p)
    rng = np.random.default_rng([seed, p.T, p.N1, p.N2, p.j])
    notes = []

    # -- structural certificate over local windows
    windows = list(enumerate_admissible(p.T, p.N1, p.T + 1))
    if randomized and len(windows) > _VERIFY_WINDOW_BUDGET:
        idx = rng.choice(len(windows), _VERIFY_WINDOW_BUDGET, replace=False)
        notes.append(f"windows sampled {_VERIFY_WINDOW_BUDGET}/{len(windows)}")
        windows = [windows[i] for i in sorted(idx)]
    target = attainable_payload(p)
    if target < d.n2_star:
        notes.append(
            f"worst payload {target} < sizing bound {d.n2_star} "
            f"(at most {p.T + 1 - p.N1} fallback messages can overlap)"
        )
    n_windows, max_payload, counter = _structural_pass(p, windows)
    if counter is None and not randomized and max_payload != target:
        counter = {"problem": f"worst payload {max_payload} != expected {target}"}

    # -- value-level episodes, up to the first counterexample
    episodes = 0
    if counter is None:
        pairs, note = _episode_pairs(p, horizon, rng, randomized, episode_budget)
        notes.append(note)
        for i, (a, b) in enumerate(pairs):
            try:
                rep = run_episode(p, a, b, horizon, seed=seed + i)
            except Exception as exc:  # codec bug surfaced by this pair
                counter = {"e1": a, "e2": b, "problem": f"{type(exc).__name__}: {exc}"}
                break
            episodes += 1
            max_payload = max(max_payload, rep.max_payload)
            if not rep.ok:
                counter = {"e1": a, "e2": b, "failed": rep.failed, "violations": rep.violations}
                break
    return VerifyReport(
        p, horizon, counter is None, n_windows, episodes, max_payload, target, counter,
        tuple(notes),
    )


def all_valid_params(t_max: int = VERIFY_T_LIMIT):
    """Every (T, N1, N2, j) the verifier sweeps: N1 >= 1, N1+N2 <= T, j < N1."""
    for T in range(1, t_max + 1):
        for n1 in range(1, T + 1):
            for n2 in range(0, T - n1 + 1):
                for j in range(n1):
                    yield SchemeParams(T, n1, n2, j)


# ---------------------------------------------------------------------------
# loss probability (Monte-Carlo, analytic and codec modes)


@dataclass(frozen=True)
class LossEstimate:
    scheme: str  # "adaptive" | "nonadaptive"
    mode: str  # "analytic" | "codec"
    trials: int
    losses: int
    probability: float
    stderr: float
    config: ChannelConfig
    params: SchemeParams


def _analytic_losses(p: SchemeParams, e1: np.ndarray, e2: np.ndarray, n_assess: int):
    """(adaptive_lost, nonadaptive_lost) boolean arrays over messages [0, n_assess).

    ``e1``/``e2`` are the per-slot erasure bits of the two hops over slots
    [0, n) on the last axis, bool or integer: one chunk of shape ``(n,)``
    or a block of chunks of shape ``(chunks, n)``, each row a stream of its
    own; the results have the same leading shape.  Slots outside [0, n)
    count as clean.  Each hop is held as one prefix sum ``c`` per row with
    ``pad = k'-1`` zeros before slot 0 (the diagonals reach back to
    t-(k'-1)) and held flat for T slots after the last one (every window
    ends by t+T), so ``c[..., pad + s]`` is the number of erasures before
    slot s for every s in [-pad, n+T].  The erasures in [t+a, t+b] for
    every message t < n_assess are then one subtraction of two slices,
    ``c[..., pad+b+1 : pad+b+1+n_assess] - c[..., pad+a : pad+a+n_assess]``:
    no clipping and no gather, since the padding gives what clipping to
    [0, n) would.  A message's result reads only its own windows, so it
    does not depend on ``n_assess``.
    """
    d = derive_dims(p)
    T, N1, N2, j = p.T, p.N1, p.N2, p.j
    *lead, n = e1.shape
    pad = d.k_prime - 1

    def prefix(e):
        # int32 counts are exact (at most n) and halve a block's temporaries,
        # so the allocator keeps their pages between blocks (no re-faulting)
        c = np.zeros((*lead, pad + 1 + n + T), dtype=np.int32)
        np.cumsum(e, axis=-1, dtype=np.int32, out=c[..., pad + 1:pad + 1 + n])
        c[..., pad + 1 + n:] = c[..., pad + n:pad + n + 1]
        return c

    c1, c2 = prefix(e1), prefix(e2)

    def count(c, a, b):
        """Erasures in [t+a, t+b] for every t < n_assess."""
        return c[..., pad + b + 1:pad + b + 1 + n_assess] - c[..., pad + a:pad + a + n_assess]

    # first-hop recoverability: every diagonal window through the message
    # keeps enough nonerased slots.  Window u covers [u, u+n'-1]; bad[i]
    # tests u = i-pad, and message t reads u = t-pos for pos < k'
    bad = c1[..., d.n_prime:d.n_prime + n_assess + pad] - c1[..., :n_assess + pad] > N1
    diag_bad = bad[..., pad:pad + n_assess].copy()
    for pos in range(1, d.k_prime):
        diag_bad |= bad[..., pad - pos:pad - pos + n_assess]

    high_rate = np.logical_not(e1[..., :n_assess]) | (count(c1, 0, j) <= j)  # [t, t+j]
    lost_high = count(c2, j, T) > N2
    lost_fallback = count(c2, N1, T) > N2
    adaptive_lost = diag_bad | np.where(high_rate, lost_high, lost_fallback)
    nonadaptive_lost = diag_bad | lost_fallback
    return adaptive_lost, nonadaptive_lost


def _codec_losses(p: SchemeParams, bits1, bits2, horizon: int, seed: int,
                  n_assess: int) -> set[int]:
    """The messages below ``n_assess`` one codec episode loses: the FAILED
    ones and the ones decoded to a wrong value, each counted once."""
    rep = run_episode(p, bits1, bits2, horizon, seed=seed)
    lost = {t for t in rep.failed if t < n_assess}
    lost.update(v[1] for v in rep.violations if v[0] == "wrong-value" and v[1] < n_assess)
    return lost


# Chunks per block of the loss estimate.  A block's draws and analytic
# arrays at the default 512-slot chunk stay near 0.5 MB.
_BLOCK_CHUNKS = 16


def _block_losses(p: SchemeParams, config: ChannelConfig, mode: str, scheme: str,
                  first: int, trials: int, buf: np.ndarray | None = None) -> tuple[int, int]:
    """(adaptive, nonadaptive) loss counts of the ``trials`` messages assessed
    from chunk ``first`` on, in one analytic pass over the block of chunks.

    Chunk c draws both hops from ``default_rng([config.seed, c])``, hop 1
    first, into one ``(2, horizon)`` row of ``buf`` (the caller's reused
    ``(_BLOCK_CHUNKS, 2, horizon)`` array) or of a new array.  Every chunk
    is classified at its full ``horizon - T`` messages; the block's assessed
    messages are the first ``trials`` of its rows laid end to end, so the
    tail of a partial last chunk is cut off.
    """
    per_chunk = config.horizon - p.T
    chunks = range(first, first + -(-trials // per_chunk))
    draws = (np.empty((len(chunks), 2, config.horizon)) if buf is None else buf)[:len(chunks)]
    for row, chunk in zip(draws, chunks):
        np.random.default_rng([config.seed, chunk]).random(out=row)
    e1 = draws[:, 0] < config.alpha
    e2 = draws[:, 1] < config.beta
    a = na = 0
    if mode == "analytic" or scheme in ("nonadaptive", "both"):
        a_lost, na_lost = _analytic_losses(p, e1, e2, per_chunk)
        na = int(np.count_nonzero(na_lost.ravel()[:trials]))
        if mode == "analytic":
            a = int(np.count_nonzero(a_lost.ravel()[:trials]))
    if mode == "codec" and scheme in ("adaptive", "both"):
        for i, chunk in enumerate(chunks):
            lost = _codec_losses(p, e1[i].tolist(), e2[i].tolist(),
                                 config.horizon, config.seed + chunk,
                                 min(per_chunk, trials - i * per_chunk))
            a += len(lost)
    return a, na


def loss_probability(
    p: SchemeParams,
    config: ChannelConfig,
    mode: str = "analytic",
    trials: int = 10**6,
    scheme: str = "adaptive",
    workers: int = 1,
):
    """Monte-Carlo message-loss probability under i.i.d. erasures.

    ``trials`` counts assessed messages.  Patterns are drawn in fixed-size
    chunks (config.horizon slots, horizon - T assessed messages each) with
    per-chunk seeds derived from config.seed, so both modes and both
    schemes see identical streams.  Chunks are evaluated in blocks of
    ``_BLOCK_CHUNKS``, one analytic pass per block (codec mode still runs
    one episode per chunk), and ``workers`` processes share the blocks, so
    the result is independent of ``workers``.  The nonadaptive baseline is
    defined by its analytic condition in either mode (it has no separate
    codec).  scheme="both" returns a dict.
    """
    if mode not in ("analytic", "codec"):
        raise ValueError(f"unknown mode {mode!r}")
    if scheme not in ("adaptive", "nonadaptive", "both"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    per_chunk = config.horizon - p.T
    if per_chunk < 1:
        raise ValueError("config.horizon must exceed T")
    block = _BLOCK_CHUNKS * per_chunk
    jobs = [(done // per_chunk, min(block, trials - done)) for done in range(0, trials, block)]
    workers = min(workers, len(jobs))
    losses = {"adaptive": 0, "nonadaptive": 0}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                _block_losses,
                *zip(*[(p, config, mode, scheme, c, n) for c, n in jobs]),
                chunksize=max(1, len(jobs) // (4 * workers)),
            ))
    else:
        # one draw buffer for all blocks, so the allocator does not trim the
        # heap top after each block and fault its pages in again
        buf = np.empty((_BLOCK_CHUNKS, 2, config.horizon))
        results = [_block_losses(p, config, mode, scheme, c, n, buf) for c, n in jobs]
    for a, na in results:
        losses["adaptive"] += a
        losses["nonadaptive"] += na

    def estimate(tag: str) -> LossEstimate:
        pr = losses[tag] / trials
        se = math.sqrt(pr * (1 - pr) / trials)
        m = "analytic" if (tag == "nonadaptive" and mode == "codec") else mode
        return LossEstimate(tag, m, trials, losses[tag], pr, se, config, p)

    if scheme == "both":
        return {tag: estimate(tag) for tag in ("adaptive", "nonadaptive")}
    return estimate(scheme)


# ---------------------------------------------------------------------------
# figure data (deterministic CSV)


def _write_csv(path, comment: str, header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    return str(path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_figure_data(figure: int, path: str, **kw) -> str:
    """Deterministic CSV for one of the standard comparison datasets, each
    at fixed points:

    2: achievable rates for T = 5..15 at N1=2, N2=3 (series: subset j=0,
       subset j=j*, nonadaptive, fully adaptive where reference constants
       exist);
    3: relay packet sizes for T = 10..15 at (N1, N2, j) = (4, 6, 0) (bits
       and bytes per scheme);
    4: loss probability of (5,2,3,0) at alpha = beta in {0.02, 0.04, 0.06,
       0.08, 0.1};
    5: loss probability against scheme rate of (7,2,N2,0) for N2 = 2..5 at
       alpha = 0.05, beta = 0.08.

    Figures 4 and 5 take ``trials``, ``seed``, ``horizon``, ``mode`` and
    ``workers`` as keywords, passed on to ``loss_probability``.
    """
    if figure == 2:
        return _figure_rates(path, **kw)
    if figure == 3:
        return _figure_sizes(path, **kw)
    if figure == 4:
        return _figure_loss_sweep(path, **kw)
    if figure == 5:
        return _figure_loss_vs_rate(path, **kw)
    raise ValueError(f"no figure {figure}; choose 2, 3, 4 or 5")


def _figure_rates(path) -> str:
    n1, n2 = 2, 3
    rows = []
    for T in range(5, 16):
        base = SchemeParams(T, n1, n2, 0)
        jstar, _ = optimal_j(T, n1, n2)
        best = SchemeParams(T, n1, n2, jstar)
        rows.append([T, n1, n2, "subset_j0", 0, _fmt(float(scheme_rate(base)))])
        rows.append([T, n1, n2, "subset_jstar", jstar, _fmt(float(scheme_rate(best)))])
        rows.append([T, n1, n2, "nonadaptive", "", _fmt(float(nonadaptive_rate(T, n1, n2)))])
        fa = FULLY_ADAPTIVE_RATE.get((T, n1, n2))
        rows.append([T, n1, n2, "fully_adaptive", "", "" if fa is None else _fmt(float(fa))])
    return _write_csv(
        path,
        f"achievable rates, N1={n1} N2={n2}",
        ["T", "N1", "N2", "series", "j", "rate"],
        rows,
    )


def _figure_sizes(path) -> str:
    n1, n2, j = 4, 6, 0
    rows = []
    for T in range(10, 16):
        p = SchemeParams(T, n1, n2, j)
        sub_bits = packet_size_bits(p, "relay")
        na_bits = packet_size_bits(p, "nonadaptive-baseline")
        rows.append([T, n1, n2, j, "subset", sub_bits, _fmt(sub_bits / 8)])
        rows.append([T, n1, n2, j, "nonadaptive", na_bits, _fmt(na_bits / 8)])
        fa = FULLY_ADAPTIVE_PACKET_BYTES.get((T, n1, n2))
        rows.append([T, n1, n2, j, "fully_adaptive", "" if fa is None else fa * 8,
                     "" if fa is None else _fmt(float(fa))])
    return _write_csv(
        path,
        f"relay packet sizes, N1={n1} N2={n2} j={j}",
        ["T", "N1", "N2", "j", "series", "bits", "bytes"],
        rows,
    )


def _figure_loss_sweep(
    path,
    trials: int = 10**5,
    seed: int = 1,
    horizon: int = 512,
    mode: str = "analytic",
    workers: int = 1,
) -> str:
    params = SchemeParams(5, 2, 3, 0)
    rows = []
    for pr in (0.02, 0.04, 0.06, 0.08, 0.1):
        cfg = ChannelConfig(pr, pr, seed, horizon)
        est = loss_probability(params, cfg, mode=mode, trials=trials, scheme="both",
                               workers=workers)
        for tag in ("adaptive", "nonadaptive"):
            e = est[tag]
            rows.append(
                [_fmt(pr), tag, e.mode, e.trials, e.losses,
                 _fmt(e.probability), _fmt(e.stderr)]
            )
    return _write_csv(
        path,
        f"loss vs erasure probability, params={params}, seed={seed}",
        ["alpha_beta", "scheme", "mode", "trials", "losses", "loss_probability", "stderr"],
        rows,
    )


def _figure_loss_vs_rate(
    path,
    trials: int = 10**5,
    seed: int = 1,
    horizon: int = 512,
    mode: str = "analytic",
    workers: int = 1,
) -> str:
    alpha, beta = 0.05, 0.08
    cfg = ChannelConfig(alpha, beta, seed, horizon)
    rows = []
    # N2 sweep at fixed T, N1: each scheme traces loss against its own
    # rate; the interesting comparison is between curves at matched rate
    for n2 in (2, 3, 4, 5):
        p = SchemeParams(7, 2, n2, 0)
        est = loss_probability(p, cfg, mode=mode, trials=trials, scheme="both",
                               workers=workers)
        rows.append(
            [p.T, p.N1, p.N2, p.j, _fmt(float(rate_r2(p))), "adaptive",
             est["adaptive"].losses, _fmt(est["adaptive"].probability),
             _fmt(est["adaptive"].stderr)]
        )
        rows.append(
            [p.T, p.N1, p.N2, p.j, _fmt(float(nonadaptive_rate(p.T, p.N1, p.N2))),
             "nonadaptive", est["nonadaptive"].losses,
             _fmt(est["nonadaptive"].probability), _fmt(est["nonadaptive"].stderr)]
        )
    return _write_csv(
        path,
        f"loss vs rate at alpha={alpha} beta={beta}, seed={seed}",
        ["T", "N1", "N2", "j", "rate", "scheme", "losses", "loss_probability", "stderr"],
        rows,
    )
