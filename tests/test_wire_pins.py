"""Byte-identity pins for the relay's second-hop wire output.

``data/relay_wire_pins.json`` holds, for seeded episodes, the SHA-256 of every
``RelayPacket.wire_symbols()`` the relay emitted, slot by slot.  The episode
pins in ``test_regression_pins.py`` only see decode outcomes; these see the
exact symbols, their order in each subpacket, the parities and the header.
The first hops are i.i.d. and include estimates that carry interference, so
the relay's estimate values and their queue order are both on the wire.
(12,3,4,1) and (7,3,1,1) run over the prime fields GF(13) and GF(7); (7,2,3,0)
and (8,2,3,0) run over GF(8) and GF(9), so characteristic-2 and odd
extension-field arithmetic is pinned too.

Regenerate (only when the wire format is meant to change) with
``PYTHONPATH=src:tests python3 tests/test_wire_pins.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from codec_reference import make_codes
from relaystream.relay_codec import RelayState, build_message_plan
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.source_codec import encode_source

PIN_FILE = Path(__file__).parent / "data" / "relay_wire_pins.json"


def wire_cases():
    """name -> (params, first-hop bits, message seed, header_mode)."""
    cases = {}
    for p, horizon, rate, tag in (
        (SchemeParams(12, 3, 4, 1), 96, 0.15, "1234"),
        (SchemeParams(7, 3, 1, 1), 64, 0.25, "731"),
        (SchemeParams(7, 2, 3, 0), 64, 0.2, "gf8"),
        (SchemeParams(8, 2, 3, 0), 64, 0.2, "gf9"),
    ):
        for seed in range(2):
            rng = np.random.default_rng([seed, 0x517E])
            bits = [int(b) for b in rng.random(horizon) < rate]
            for header_mode in (False, True):
                mode = "header" if header_mode else "oracle"
                cases[f"{tag}-iid-{seed}-{mode}"] = (p, bits, seed, header_mode)
    return cases


def wire_digests(p, bits, seed, header_mode) -> list[str]:
    d = derive_dims(p)
    field, _ = make_codes(p)
    rng = np.random.default_rng([seed, 0x3E55])
    history: list[list[int]] = []
    relay = RelayState(p, header_mode=header_mode)
    out = []
    for s, b in enumerate(bits):
        history.append([int(x) for x in rng.integers(0, field.q, d.k_src)])
        relay.ingest_source(s, None if b else encode_source(p, history, s))
        wire = relay.emit(s).wire_symbols()
        out.append(hashlib.sha256(",".join(map(str, wire)).encode()).hexdigest())
    return out


def interference_count(p, bits) -> int:
    """Estimates in the episode whose value embeds another message."""
    look = lambda s: 0 <= s < len(bits) and bool(bits[s])
    return sum(
        1
        for t in range(len(bits))
        for em in build_message_plan(p, look, t).emissions
        if em.interference
    )


@pytest.mark.parametrize("name", sorted(wire_cases()))
def test_relay_wire_output_is_pinned(name):
    pins = json.loads(PIN_FILE.read_text())
    p, bits, seed, header_mode = wire_cases()[name]
    assert wire_digests(p, bits, seed, header_mode) == pins[name]


@pytest.mark.parametrize("tag", ["1234", "731", "gf8", "gf9"])
def test_wire_pins_cover_interference(tag):
    """Every pinned parameter set sends estimates that carry interference."""
    for name, (p, bits, _, _) in wire_cases().items():
        if name.startswith(tag + "-"):
            assert interference_count(p, bits) > 0, name


if __name__ == "__main__":
    pins = {name: wire_digests(*case) for name, case in sorted(wire_cases().items())}
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n")
