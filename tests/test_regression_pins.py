"""Byte-identity pins for the episode runner and codec-mode loss estimation.

``data/episode_pins.json`` holds the reports of seeded episodes and the loss
counts of seeded codec-mode estimates, captured from the decoder that
re-attempted every pending message on every slot.  Decoding is event-driven
now and the value layer caches its linear algebra, but neither may change a
single decode slot, failure, violation or relay payload.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from relaystream.erasure_channel import ChannelConfig
from relaystream.scheme_params import SchemeParams
from relaystream.sim_harness import loss_probability, run_episode

PINS = json.loads((Path(__file__).parent / "data" / "episode_pins.json").read_text())


def _bits(rng, horizon, rate):
    return (rng.random(horizon) < rate).astype(int).tolist()


def _burst(horizon, slots):
    return [1 if s in slots else 0 for s in range(horizon)]


def episode_cases():
    """name -> (params, e1, e2, horizon, seed, header_mode)."""
    cases = {}
    p = SchemeParams(5, 2, 3, 0)
    for seed in range(4):
        rng = np.random.default_rng([seed, 523])
        cases[f"523-header-{seed}"] = (p, _bits(rng, 48, 0.12), _bits(rng, 48, 0.15), 48, seed, True)
    cases["523-header-burst"] = (
        p, _burst(40, {1, 2, 13, 20, 21, 33}), _burst(40, {3, 4, 5, 17, 26, 27}), 40, 9, True
    )
    # N2 = 1 with two second-hop erasures in one window: a starved message
    # dooms the later messages whose estimates embed it
    p = SchemeParams(7, 3, 1, 1)
    cases["731-propagation"] = (p, _burst(19, {4, 6}), _burst(19, {5, 7}), 19, 47, False)
    for seed in range(3):
        rng = np.random.default_rng([seed, 731])
        cases[f"731-iid-{seed}"] = (p, _bits(rng, 64, 0.2), _bits(rng, 64, 0.2), 64, seed, False)
    p = SchemeParams(12, 3, 4, 1)
    for seed in range(3):
        rng = np.random.default_rng([seed, 1234])
        cases[f"1234-eps0.1-{seed}"] = (p, _bits(rng, 96, 0.1), _bits(rng, 96, 0.1), 96, seed, False)
    return cases


def observe(rep) -> dict:
    return {
        "decode_slots": [[t, s] for t, s in rep.decode_slots.items()],
        "failed": list(rep.failed),
        "violations": [list(v) for v in rep.violations],
        "payloads": list(rep.payloads),
    }


def loss_cases():
    """name -> (params, config, trials)."""
    p = SchemeParams(12, 3, 4, 1)
    return {
        f"1234-{eps}": (p, ChannelConfig(eps, eps, 5, 256), 2 * (256 - p.T))
        for eps in (0.1, 0.15)
    }


def observe_loss(est) -> list:
    return [est["adaptive"].losses, est["nonadaptive"].losses]


@pytest.mark.parametrize("name", sorted(episode_cases()))
def test_episode_report_is_pinned(name):
    p, e1, e2, horizon, seed, header_mode = episode_cases()[name]
    rep = run_episode(p, e1, e2, horizon, seed=seed, header_mode=header_mode)
    assert observe(rep) == PINS["episodes"][name]


def test_pins_cover_dependency_propagated_failures():
    """The (7,3,1,1) pins include a message lost only through cancellation:
    message 6 has enough symbols but embeds the starved message 4."""
    assert {4, 6} <= set(PINS["episodes"]["731-propagation"]["failed"])


@pytest.mark.parametrize("name", sorted(loss_cases()))
def test_codec_loss_counts_are_pinned(name):
    p, cfg, trials = loss_cases()[name]
    est = loss_probability(p, cfg, mode="codec", trials=trials, scheme="both")
    assert observe_loss(est) == PINS["losses"][name]
