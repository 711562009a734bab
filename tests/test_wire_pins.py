"""Byte-identity pins for the relay's second-hop wire output.

``data/relay_wire_pins.json`` holds, for seeded episodes, the SHA-256 of every
``RelayPacket.wire_symbols()`` the relay emitted, slot by slot.  The episode
pins in ``test_regression_pins.py`` only see decode outcomes; these see the
exact symbols, their order in each subpacket, the parities and the header.
The first hops are i.i.d. and include estimates that carry interference, so
the relay's estimate values and their queue order are both on the wire.
The same episodes check the three records a slot passes along, the source
packet, the parity groups and the relay packet.
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

from codec_reference import build_parity_groups_reference, encode_source_reference, make_codes
from relaystream import relay_codec
from relaystream.relay_codec import ParityGroups, RelayPacket, RelayState, build_message_plan
from relaystream.scheme_params import SchemeParams, derive_dims
from relaystream.source_codec import SourcePacket, encode_source

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


def check_record(record, want=None) -> None:
    """``record`` equals ``want`` (itself if None) with the same hash, its
    repr names every field as a dataclass's did, and no field can be
    assigned."""
    want = record if want is None else want
    assert type(record) is type(want) and record == want and hash(record) == hash(want)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_slot_records_are_read_only_tuples_of_their_fields(monkeypatch):
    """Over every wire-pin episode, oracle and header mode: each
    ``SourcePacket`` equals ``encode_source_reference``'s and each
    ``ParityGroups`` the relay encodes equals
    ``build_parity_groups_reference``'s, with equal hashes; every record of
    the three keeps its fields, its repr and its hash and refuses field
    assignment; and each ``RelayPacket.payload_symbols`` is the sum of its
    subpacket lengths."""
    assert SourcePacket._fields == ("t", "rows")
    assert ParityGroups._fields == ("t", "grouped", "rows")
    assert RelayPacket._fields == ("slot", "subpackets", "header", "payload_symbols")
    real = relay_codec.build_parity_groups
    counts = dict.fromkeys(("source", "parity", "relay", "carrying"), 0)

    def parities(p, plan, values):
        got = real(p, plan, values)
        check_record(got, build_parity_groups_reference(p, plan, values))
        counts["parity"] += 1
        return got

    monkeypatch.setattr(relay_codec, "build_parity_groups", parities)
    for p, bits, seed, header_mode in wire_cases().values():
        d, q = derive_dims(p), make_codes(p)[0].q
        rng = np.random.default_rng([seed, 0x3E55])
        history = []
        relay = RelayState(p, header_mode=header_mode)
        for s, b in enumerate(bits):
            history.append([int(x) for x in rng.integers(0, q, d.k_src)])
            packet = None
            if not b:
                packet = encode_source(p, history, s)
                check_record(packet, encode_source_reference(p, history, s))
                counts["source"] += 1
            relay.ingest_source(s, packet)
            out = relay.emit(s)
            check_record(out)
            assert out.payload_symbols == sum(len(sy) for _, sy in out.subpackets), (p, s)
            counts["relay"] += 1
            counts["carrying"] += out.payload_symbols > 0
    assert counts["relay"] == sum(len(case[1]) for case in wire_cases().values())
    assert min(counts.values()) > 500, counts


if __name__ == "__main__":
    pins = {name: wire_digests(*case) for name, case in sorted(wire_cases().items())}
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n")
