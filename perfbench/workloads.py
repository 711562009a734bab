"""Workload definitions: seeded inputs, one measured pass, warm-up, checks.

A workload is a closed loop of one caller in one process (``workers=1``).
A run repeats *passes*; pass ``i`` of seed ``s`` gets its own inputs, derived
from ``(s, i)`` before the pass is timed, so a run samples many distinct
inputs while every pass stays reproducible.  Each pass calls only the
library's public entry points and returns a :class:`PassResult` that the
checks in ``checks.py`` have already audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import relaystream as rs
from relaystream import sim_harness

import checks

# simulate-codec / simulate-analytic: the Figure 4 scheme at the figure's
# default chunk length, at two points of the alpha = beta sweep
SIM_PARAMS = rs.SchemeParams(12, 3, 4, 1)
SIM_ALPHAS = (0.05, 0.1)
SIM_HORIZON = 512
CODEC_TRIALS = SIM_HORIZON - SIM_PARAMS.T  # one chunk per point and pass
ANALYTIC_TRIALS = 10**5  # the figure default; chunk 0 is the codec pass's stream

# stream-long: one long header-mode episode per pass
STREAM_PARAMS = rs.SchemeParams(5, 2, 3, 0)
STREAM_HORIZON = 6000
# Gilbert-Elliott burst chain, then capped so every (T+1)-slot window holds
# at most N erasures: about 20% of slots erased on hop 1 (N1=2) and 27% on
# hop 2 (N2=3)
BURST_ENTER, BURST_LEAVE = 0.1, 0.25
ERASE_GOOD, ERASE_BAD = 0.15, 0.8

# verify-sweep: every parameter set with T <= 3 runs in full mode (complete
# pattern-pair cross products), one T=10 set runs randomized, and the region
# at the acceptance-test two-user parameters is built once.
VERIFY_FULL_T_MAX = 3
VERIFY_RANDOMIZED = (rs.SchemeParams(10, 2, 3, 1),)
REGION_MAC = rs.MacParams(T=7, N1=3, N2=2, N3=4, j1=2, j2=1)


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run with ``seed``; fits ChannelConfig."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    msgs: int = 0  # messages assessed
    slots: int = 0  # channel slots processed
    ops: int = 0  # operations attempted: chunks, estimates, episodes, verify sets
    failed: int = 0  # operations with at least one failure
    failures: list = field(default_factory=list)  # what failed, one line each
    losses: tuple = ()  # (adaptive, nonadaptive) per loss estimate
    sizes: dict = field(default_factory=dict)  # input sizes, for the record
    tick: object = field(default=None, repr=False)  # called after each operation

    def check(self, failures: list[str]) -> None:
        """Count one operation, failed if its check reported anything."""
        self.ops += 1
        self.failed += bool(failures)
        self.failures += failures
        if self.tick is not None:
            self.tick()


# ---------------------------------------------------------------------------
# simulate-codec


class ChunkAudit:
    """Wraps ``sim_harness.run_episode``, the binding codec-mode loss
    estimation calls once per chunk, and audits every report it returns.

    ``_codec_losses`` folds wrong-value messages into losses and ignores late
    ones, so without this audit a decoder returning wrong data would read as
    a slightly higher loss rate.
    """

    def __init__(self, res: PassResult):
        self.res = res
        self.chunks = 0
        self._original = None

    def __enter__(self):
        self._original = original = sim_harness.run_episode

        def audited(*args, **kwargs):
            self.chunks += 1
            rep = original(*args, **kwargs)
            failures = checks.episode_failures(rep, lossy=True)
            self.res.check([f"chunk {self.chunks}: {f}" for f in failures])
            return rep

        sim_harness.run_episode = audited
        return self

    def __exit__(self, *exc):
        sim_harness.run_episode = self._original
        return False


def simulate_inputs(seed: int, index: int):
    s = pass_seed(seed, index)
    return [rs.ChannelConfig(a, a, s, SIM_HORIZON) for a in SIM_ALPHAS]


def _loss_pass(res: PassResult, configs, mode: str, trials: int) -> PassResult:
    losses = []
    for cfg in configs:
        try:
            est = rs.loss_probability(SIM_PARAMS, cfg, mode=mode, trials=trials, scheme="both")
        except Exception as exc:
            res.check([f"{mode} estimate at {cfg}: {type(exc).__name__}: {exc}"])
            continue
        res.check(checks.estimate_failures(est, trials, mode))
        losses.append((est["adaptive"].losses, est["nonadaptive"].losses))
        res.msgs += trials
        chunks = -(-trials // (SIM_HORIZON - SIM_PARAMS.T))
        res.slots += chunks * SIM_HORIZON
    res.losses = tuple(losses)
    return res


def simulate_codec_pass(configs, tick=None) -> PassResult:
    res = PassResult(tick=tick)
    with ChunkAudit(res) as audit:
        _loss_pass(res, configs, "codec", CODEC_TRIALS)
    if audit.chunks != len(configs):
        res.check([f"{audit.chunks} audited chunks, expected {len(configs)}"])
    res.sizes = {"chunks": audit.chunks, "messages_assessed": res.msgs, "slots": res.slots}
    return res


def simulate_codec_warm_up() -> None:
    cfg = rs.ChannelConfig(SIM_ALPHAS[0], SIM_ALPHAS[0], 0, 2 * (SIM_PARAMS.T + 1))
    rs.loss_probability(SIM_PARAMS, cfg, mode="codec", trials=1, scheme="both")


# ---------------------------------------------------------------------------
# simulate-analytic


def simulate_analytic_pass(configs, tick=None) -> PassResult:
    res = _loss_pass(PassResult(tick=tick), configs, "analytic", ANALYTIC_TRIALS)
    res.sizes = {"estimates": len(configs), "messages_assessed": res.msgs, "slots": res.slots}
    return res


def simulate_analytic_warm_up() -> None:
    cfg = rs.ChannelConfig(SIM_ALPHAS[0], SIM_ALPHAS[0], 0, SIM_HORIZON)
    rs.loss_probability(SIM_PARAMS, cfg, mode="analytic", trials=1, scheme="both")


# ---------------------------------------------------------------------------
# stream-long


def admissible_pattern(rng, horizon: int, T: int, N: int) -> list[int]:
    """Bursty erasure bits in which every (T+1)-slot window holds <= N ones.

    A two-state burst chain proposes erasures; a proposal that would push
    the trailing window past N is dropped, so the pattern is admissible by
    construction at any horizon (unlike rejection sampling, which at long
    horizons never hits and falls back to a clean channel).
    """
    u = rng.random((horizon, 2))
    bits = [0] * horizon
    in_window = 0
    bad = False
    for s in range(horizon):
        bad = u[s, 0] >= BURST_LEAVE if bad else u[s, 0] < BURST_ENTER
        if s > T:
            in_window -= bits[s - T - 1]
        if in_window < N and u[s, 1] < (ERASE_BAD if bad else ERASE_GOOD):
            bits[s] = 1
            in_window += 1
    return bits


def stream_long_inputs(seed: int, index: int):
    p = STREAM_PARAMS
    rng = np.random.default_rng([seed, index])
    e1 = admissible_pattern(rng, STREAM_HORIZON, p.T, p.N1)
    e2 = admissible_pattern(rng, STREAM_HORIZON, p.T, p.N2)
    for bits, n in ((e1, p.N1), (e2, p.N2)):
        if not rs.is_admissible(rs.pattern_from_bits(bits), p.T, n):
            raise AssertionError("generated pattern is not admissible")
    return e1, e2, pass_seed(seed, index)


def stream_long_pass(inputs, tick=None) -> PassResult:
    e1, e2, ep_seed = inputs
    p = STREAM_PARAMS
    res = PassResult(msgs=STREAM_HORIZON - p.T, slots=STREAM_HORIZON, tick=tick)
    res.sizes = {
        "episodes": 1,
        "slots": STREAM_HORIZON,
        "messages_assessed": res.msgs,
        "erasures_hop1": sum(e1),
        "erasures_hop2": sum(e2),
    }
    try:
        rep = rs.run_episode(p, e1, e2, STREAM_HORIZON, seed=ep_seed, header_mode=True)
    except Exception as exc:
        res.check([f"episode raised {type(exc).__name__}: {exc}"])
        return res
    res.check(checks.episode_failures(rep, lossy=False))
    return res


def stream_long_warm_up() -> None:
    h = 2 * (STREAM_PARAMS.T + 1)
    rs.run_episode(STREAM_PARAMS, [0] * h, [0] * h, h, header_mode=True)


# ---------------------------------------------------------------------------
# verify-sweep


def verify_sets():
    full = [(p, False) for p in rs.all_valid_params(VERIFY_FULL_T_MAX)]
    return full + [(p, True) for p in VERIFY_RANDOMIZED]


def verify_sweep_pass(vseed, tick=None) -> PassResult:
    res = PassResult(tick=tick)
    episodes = windows = 0
    for p, randomized in verify_sets():
        try:
            rep = rs.exhaustive_verify(p, seed=vseed, randomized=randomized)
        except Exception as exc:
            res.check([f"{p}: raised {type(exc).__name__}: {exc}"])
            continue
        res.check(checks.verify_failures(rep))
        episodes += rep.episodes_run
        windows += rep.windows_checked
        res.msgs += rep.episodes_run * (rep.horizon - p.T)
        res.slots += rep.episodes_run * rep.horizon
    res.sizes = {
        "verify_sets": res.ops,
        "episodes": episodes,
        "windows_checked": windows,
        "messages_assessed": res.msgs,
        "slots": res.slots,
    }
    res.check(checks.region_failures(rs.build_region(REGION_MAC)))
    return res


def verify_sweep_warm_up() -> None:
    rs.exhaustive_verify(rs.SchemeParams(1, 1, 0, 0))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    params: str
    make_inputs: object  # (seed, pass index) -> inputs of one pass
    run_pass: object  # (inputs, tick=None) -> PassResult; tick() runs between operations
    warm_up: object  # small call on the workload's parameters
    traced_passes: int  # fixed pass count of a traced run
    recheck: bool  # re-run pass 0 and require identical loss counts
    must_call: tuple  # wrapped names a traced run of this workload must hit


_CODEC_PIPELINE = (
    "sim_harness.run_episode",
    "source_codec.encode_source",
    "source_codec.EstimateLedger.ingest",
    "source_codec.emission_schedule",
    "source_codec.emission_coefficients",
    "relay_codec.RelayState.emit",
    "relay_codec.build_message_plan",
    "relay_codec.build_parity_groups",
    "dest_codec.DecoderState.ingest",
    "dest_codec.DecoderState.try_decode",
    "field_mds.GaloisField.mul",
    "field_mds.solve_linear",
    "field_mds.MdsCode.encode",
    "field_mds.MdsCode.erasure_decode",
    "scheme_params.derive_dims",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-codec",
            f"{SIM_PARAMS}, alpha=beta in {SIM_ALPHAS}, horizon {SIM_HORIZON}, "
            f"{CODEC_TRIALS} codec trials per point and pass",
            simulate_inputs,
            simulate_codec_pass,
            simulate_codec_warm_up,
            traced_passes=3,
            recheck=True,
            must_call=_CODEC_PIPELINE
            + (
                "sim_harness.loss_probability",
                "source_codec.relay_recovery_slot",
                "dest_codec.interference_terms",
            ),
        ),
        Workload(
            "simulate-analytic",
            f"{SIM_PARAMS}, alpha=beta in {SIM_ALPHAS}, horizon {SIM_HORIZON}, "
            f"{ANALYTIC_TRIALS} analytic trials per point and pass",
            simulate_inputs,
            simulate_analytic_pass,
            simulate_analytic_warm_up,
            traced_passes=20,
            recheck=True,
            must_call=("sim_harness.loss_probability", "scheme_params.derive_dims"),
        ),
        Workload(
            "stream-long",
            f"{STREAM_PARAMS}, header mode, {STREAM_HORIZON} slots per pass, "
            "bursty admissible patterns on both hops",
            stream_long_inputs,
            stream_long_pass,
            stream_long_warm_up,
            traced_passes=2,
            recheck=False,
            must_call=_CODEC_PIPELINE
            + (
                "scheme_params.implemented_field_size",
                "relay_codec.encode_header",
                "relay_codec.decode_header",
            ),
        ),
        Workload(
            "verify-sweep",
            f"exhaustive_verify full mode on all_valid_params(T<={VERIFY_FULL_T_MAX}), "
            f"randomized on {', '.join(map(str, VERIFY_RANDOMIZED))}; "
            f"build_region({REGION_MAC})",
            pass_seed,
            verify_sweep_pass,
            verify_sweep_warm_up,
            traced_passes=2,
            recheck=False,
            must_call=_CODEC_PIPELINE
            + (
                "sim_harness.exhaustive_verify",
                "source_codec.relay_recovery_slot",
                "erasure_channel.enumerate_admissible",
                "erasure_channel.count_admissible",
                "field_mds.make_field",
                "mac_region.build_region",
            ),
        ),
    )
}
