"""Command-line front end: rate/size calculators, the adversarial verifier,
Monte-Carlo loss simulation, the two-user region, and figure-data export.

Exit status: 0 success, 1 usage/validation error, 2 verification failure.
Every subcommand is deterministic given its flags: where one draws random
values, its seed is --seed (default 0, and 1 for figure-data).
"""

import argparse
import os
import sys
from fractions import Fraction

from .erasure_channel import ChannelConfig
from .mac_region import MacParams, _write_region_csv, build_region, region_field_size
from .scheme_params import SchemeParams, optimal_j, summarize
from .sim_harness import (
    HorizonTooLarge,
    _write_csv,
    emit_figure_data,
    exhaustive_verify,
    loss_probability,
)

USAGE_ERROR = 1
VERIFY_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error status is 2; this CLI reserves 2 for
    verification failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _check_out(path) -> None:
    """Raise OSError if ``path`` cannot be opened for writing, leaving it as
    it was, so that a bad --out fails before the work it would hold."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _rate(fr: Fraction) -> str:
    return f"{fr} ({float(fr):.4f})"


def _params_from(args) -> SchemeParams:
    j = args.j
    if j is None:
        j, _ = optimal_j(args.T, args.N1, args.N2)
    return SchemeParams(args.T, args.N1, args.N2, j)


def _add_params(sub):
    sub.add_argument("--T", type=int, required=True, help="decoding deadline in slots")
    sub.add_argument("--N1", type=int, required=True, help="first-link erasure budget per window")
    sub.add_argument("--N2", type=int, required=True, help="second-link erasure budget per window")
    sub.add_argument(
        "--j", type=int, default=None,
        help="adaptation threshold (default: the rate-optimal j)",
    )


def cmd_rates(args) -> int:
    p = _params_from(args)
    s = summarize(p)
    jstar, best = optimal_j(p.T, p.N1, p.N2)
    print(f"parameters            T={p.T} N1={p.N1} N2={p.N2} j={p.j}"
          + ("  (auto j)" if args.j is None else ""))
    print(f"first-hop rate R1     {_rate(s['R1'])}")
    print(f"second-hop rate R2    {_rate(s['R2'])}")
    print(f"R2 incl. header       {_rate(s['R2_with_header'])}")
    print(f"overall rate          {_rate(s['rate'])}")
    print(f"nonadaptive baseline  {_rate(s['nonadaptive_rate'])}")
    print(f"optimal j             {jstar} with rate {_rate(best)}")
    print(f"field size            nominal {s['nominal_field']}, "
          f"implemented {s['implemented_field']} ({s['symbol_bits']} bits/symbol)")
    print(f"packet sizes (bits)   source {s['source_packet_bits']}, "
          f"relay {s['relay_packet_bits']}, baseline {s['baseline_packet_bits']}")
    return 0


def cmd_sizes(args) -> int:
    p = _params_from(args)
    s = summarize(p)
    d = s["dims"]
    print(f"parameters            T={p.T} N1={p.N1} N2={p.N2} j={p.j}")
    print(f"message symbols       {d.k_src} (= {d.l_prime} layers x {d.k_prime})")
    print(f"source packet         {d.n1} symbols = {s['source_packet_bits']} bits "
          f"({s['source_packet_bits'] / 8:g} bytes)")
    print(f"relay packet (worst)  {d.n2_star} symbols = {s['relay_packet_bits']} bits "
          f"({s['relay_packet_bits'] / 8:g} bytes)")
    print(f"baseline relay packet {p.T + 1 - p.N1} symbols = {s['baseline_packet_bits']} bits "
          f"({s['baseline_packet_bits'] / 8:g} bytes)")
    print(f"pattern header        {d.delta} symbols per packet (when in-band)")
    print(f"field size            nominal {s['nominal_field']}, "
          f"implemented {s['implemented_field']} ({s['symbol_bits']} bits/symbol)")
    return 0


def cmd_verify(args) -> int:
    p = _params_from(args)
    try:
        report = exhaustive_verify(
            p,
            horizon=args.horizon,
            seed=args.seed,
            randomized=args.randomized,
            episode_budget=args.episode_budget,
        )
    except HorizonTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: pass --randomized for large T", file=sys.stderr)
        return USAGE_ERROR
    mode = "randomized" if args.randomized else "full"
    print(f"verify T={p.T} N1={p.N1} N2={p.N2} j={p.j} "
          f"[{mode}, horizon {report.horizon}]")
    print(f"  windows checked   {report.windows_checked}")
    print(f"  episodes run      {report.episodes_run}")
    print(f"  worst payload     {report.max_payload} (target {report.payload_target})")
    for note in report.notes:
        print(f"  note: {note}")
    if report.ok:
        print("PASS")
        return 0
    print("FAIL")
    print(f"  counterexample: {report.counterexample}")
    return VERIFY_FAILURE


def cmd_simulate(args) -> int:
    p = _params_from(args)
    cfg = ChannelConfig(args.alpha, args.beta, args.seed, args.horizon)
    if args.out:
        _check_out(args.out)
    est = loss_probability(
        p, cfg, mode=args.mode, trials=args.trials, scheme=args.scheme,
        workers=args.workers,
    )
    estimates = est if isinstance(est, dict) else {est.scheme: est}
    rows = [
        (e.scheme, e.mode, e.trials, e.losses, repr(e.probability), repr(e.stderr))
        for e in estimates.values()
    ]
    header = ("scheme", "mode", "trials", "losses", "loss_probability", "stderr")
    if args.out:
        comment = (f"loss simulation T={p.T} N1={p.N1} N2={p.N2} j={p.j} "
                   f"alpha={args.alpha} beta={args.beta} seed={args.seed} "
                   f"horizon={args.horizon}")
        _write_csv(args.out, comment, list(header), rows)
        print(f"wrote {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    return 0


def cmd_mac(args) -> int:
    mac = MacParams(args.T, args.N1, args.N2, args.N3, args.j1, args.j2)
    if args.out:
        _check_out(args.out)
    region = build_region(mac, args.mix_bound)
    nominal, implemented = region_field_size(mac)
    over, total = region.exceeds_sumrate()
    print(f"two-user region       T={mac.T} N1={mac.N1} N2={mac.N2} N3={mac.N3} "
          f"j1={mac.j1} j2={mac.j2} (mix bound {args.mix_bound})")
    print(f"points / frontier     {len(region.points)} / {len(region.frontier)}")
    print(f"pure corners          R1={_rate(max(r1 for r1, _ in region.points))}, "
          f"R2={_rate(max(r2 for _, r2 in region.points))}")
    print(f"per-user bounds       R1 <= {_rate(region.bound1)}, R2 <= {_rate(region.bound2)}")
    print(f"sumrate reference     {_rate(region.sumrate_bound)}; exceeded by {over}/{total} points")
    print(f"field size            nominal {nominal}, implemented {implemented}")
    if args.out:
        _write_region_csv(region, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_figure_data(args) -> int:
    _check_out(args.out)
    kw: dict = {}
    if args.figure in (4, 5):
        kw.update(trials=args.trials, seed=args.seed, horizon=args.horizon,
                  mode=args.mode, workers=args.workers)
    path = emit_figure_data(args.figure, args.out, **kw)
    print(f"wrote {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="relaystream",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("rates", help="achievable rates, field and packet sizes")
    _add_params(pr)
    pr.set_defaults(fn=cmd_rates)

    ps = sub.add_parser("sizes", help="symbol counts and wire sizes per packet role")
    _add_params(ps)
    ps.set_defaults(fn=cmd_sizes)

    pv = sub.add_parser("verify", help="adversarial achievability check")
    _add_params(pv)
    pv.add_argument("--horizon", type=int, default=None,
                    help="slots per episode (default 2(T+1))")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--randomized", action="store_true",
                    help="sampled windows/episodes (required for T > 7)")
    pv.add_argument("--episode-budget", type=int, default=48, metavar="B", help="sizes, not "
                    "bounds, the probe episodes: max(8, B // 6) hop-1 patterns, each with a "
                    "clean-hop-2 episode and max(1, B // patterns) probes")
    pv.set_defaults(fn=cmd_verify)

    pm = sub.add_parser("simulate", help="Monte-Carlo loss probability")
    _add_params(pm)
    pm.add_argument("--alpha", type=float, required=True, help="first-link i.i.d. erasure rate")
    pm.add_argument("--beta", type=float, required=True, help="second-link i.i.d. erasure rate")
    pm.add_argument("--trials", type=int, default=10**5, help="assessed messages")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--horizon", type=int, default=512, help="slots per pattern chunk")
    pm.add_argument("--mode", choices=("analytic", "codec"), default="analytic")
    pm.add_argument("--scheme", choices=("adaptive", "nonadaptive", "both"), default="both")
    pm.add_argument("--workers", type=int, default=1,
                    help="parallel workers over blocks of chunks (result is worker-independent)")
    pm.add_argument("--out", default=None, help="CSV path (default: print)")
    pm.set_defaults(fn=cmd_simulate)

    pc = sub.add_parser("mac", help="two-user rate region")
    pc.add_argument("--T", type=int, required=True)
    pc.add_argument("--N1", type=int, required=True, help="user-1 first-link budget")
    pc.add_argument("--N2", type=int, required=True, help="user-2 first-link budget")
    pc.add_argument("--N3", type=int, required=True, help="shared relay-link budget")
    pc.add_argument("--j1", type=int, default=0)
    pc.add_argument("--j2", type=int, default=0)
    pc.add_argument("--mix-bound", type=int, default=64)
    pc.add_argument("--out", default=None, help="CSV path")
    pc.set_defaults(fn=cmd_mac)

    pf = sub.add_parser("figure-data", help="deterministic CSV datasets 2-5")
    pf.add_argument("--figure", type=int, choices=(2, 3, 4, 5), required=True)
    pf.add_argument("--out", required=True)
    pf.add_argument("--trials", type=int, default=10**5)
    pf.add_argument("--seed", type=int, default=1)
    pf.add_argument("--horizon", type=int, default=512)
    pf.add_argument("--mode", choices=("analytic", "codec"), default="analytic")
    pf.add_argument("--workers", type=int, default=1)
    pf.set_defaults(fn=cmd_figure_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
