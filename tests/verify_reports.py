"""The verifier's reports, pinned by one digest.

``reports_digest`` is the SHA-256 over the reprs of the ``VerifyReport``
``exhaustive_verify`` gives for every set of ``all_valid_params(7)`` in full
mode, then for (9,2,3,0), (10,2,3,1), (12,3,4,1) and (15,4,6,0) randomized,
each repr's UTF-8 bytes fed in that order.  A report holds the windows
checked, the episodes run, the worst payload, the counterexample and the
notes, so a change to the window sweep, the episode pairs or the codec
that moves any of them moves the digest.

Run as a script, it exits 1 unless the digest equals the one kept in
``tests/data/verify_reports.sha256``::

    PYTHONPATH=src python3 tests/verify_reports.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from relaystream.scheme_params import SchemeParams
from relaystream.sim_harness import all_valid_params, exhaustive_verify

PIN = Path(__file__).parent / "data" / "verify_reports.sha256"
RANDOMIZED_SETS = [
    SchemeParams(9, 2, 3, 0),
    SchemeParams(10, 2, 3, 1),
    SchemeParams(12, 3, 4, 1),
    SchemeParams(15, 4, 6, 0),
]


def reports():
    """Every pinned report, in digest order."""
    for p in all_valid_params(7):
        yield exhaustive_verify(p)
    for p in RANDOMIZED_SETS:
        yield exhaustive_verify(p, randomized=True)


def reports_digest() -> str:
    h = hashlib.sha256()
    for rep in reports():
        h.update(repr(rep).encode())
    return h.hexdigest()


def main() -> int:
    want = PIN.read_text().strip()
    have = reports_digest()
    if have != want:
        print(f"verifier reports moved: digest {have}, pinned {want}")
        return 1
    print(f"verifier reports match the pinned digest {want}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
