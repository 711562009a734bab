"""Correctness checks applied to every report a measured pass produces.

Each function returns a list of failure descriptions; an empty list means
the report passed.  They take reports, not a workload, so tests can feed
them corrupted reports and see them trip.
"""

from __future__ import annotations

BAD_KINDS = ("wrong-value", "late")


def episode_failures(rep, *, lossy: bool) -> list[str]:
    """Audit one ``EpisodeReport``.

    A decoded message with the wrong value or past its deadline always
    fails.  With ``lossy=False`` (admissible patterns on both hops) the
    episode must also lose nothing, record no violation of any kind, and
    decode every assessable message.
    """
    out = [f"{v[0]} violation {v[1:]}" for v in rep.violations if v[0] in BAD_KINDS]
    if len(rep.payloads) != rep.horizon:
        out.append(f"{len(rep.payloads)} relay payloads for {rep.horizon} slots")
    if lossy:
        return out
    out += [f"{v[0]} violation {v[1:]}" for v in rep.violations if v[0] not in BAD_KINDS]
    if rep.failed:
        out.append(f"{len(rep.failed)} messages failed, first {rep.failed[0]}")
    n_assess = max(0, rep.horizon - rep.params.T)
    missing = [t for t in range(n_assess) if t not in rep.decode_slots]
    if missing:
        out.append(f"{len(missing)} assessable messages never decoded, first {missing[0]}")
    return out


def verify_failures(rep) -> list[str]:
    """Audit one ``VerifyReport``: it must be ok and must have checked work."""
    out = []
    if not rep.ok or rep.counterexample is not None:
        out.append(f"{rep.params}: verify failed: {rep.counterexample}")
    if rep.episodes_run < 1 or rep.windows_checked < 1:
        out.append(
            f"{rep.params}: vacuous verify ({rep.episodes_run} episodes, "
            f"{rep.windows_checked} windows)"
        )
    return out


def estimate_failures(est: dict, trials: int, mode: str) -> list[str]:
    """Audit the ``scheme="both"`` result of ``loss_probability``."""
    out = []
    for tag in ("adaptive", "nonadaptive"):
        e = est[tag]
        if e.trials != trials or not 0 <= e.losses <= trials:
            out.append(f"{tag}: {e.losses} losses of {e.trials} trials, expected {trials}")
        elif e.probability != e.losses / trials:
            out.append(f"{tag}: probability {e.probability} != {e.losses}/{trials}")
    # the nonadaptive baseline has no codec and is always classified analytically
    if est["adaptive"].mode != mode or est["nonadaptive"].mode != "analytic":
        out.append(f"modes {est['adaptive'].mode}/{est['nonadaptive'].mode} for {mode} run")
    return out


def region_failures(region) -> list[str]:
    """Audit a ``RateRegion``: a nonempty frontier inside the per-user bounds."""
    if not region.frontier:
        return ["rate region has an empty frontier"]
    return [
        f"frontier point ({r1}, {r2}) outside bounds ({region.bound1}, {region.bound2})"
        for r1, r2 in region.frontier
        if r1 > region.bound1 or r2 > region.bound2
    ]


def recheck_failures(first: tuple, again: tuple) -> list[str]:
    """Loss counts of one seeded pass must repeat exactly."""
    if first != again:
        return [f"loss counts changed between identical passes: {first} then {again}"]
    return []
