"""Fixed reference work, timed between passes to track the machine's speed.

The machines this benchmark runs on are shared: the same pass can take 30%
longer from one minute to the next while nothing in the process changes.
Each run therefore also times this routine, which never changes and uses
nothing from the library, and reports throughput per reference duration
next to the raw figure.  The routine does what the codec spends its time
on: table lookups, small-int arithmetic, dict and list churn, small objects
and short-lived lists.  A vectorized numpy part was tried and dropped: it
followed the drift of every workload, the analytic one included, worse than
plain interpreter work.
"""

import time


class _Item:
    __slots__ = ("key", "vals")

    def __init__(self, key, vals):
        self.key = key
        self.vals = vals


def _combine(a: int, b: int, exp: list, log: dict) -> int:
    if a == 0 or b == 0:
        return 0
    return exp[(log[a] + log[b]) % 255]


def reference_work(rounds: int = 4000) -> int:
    """Deterministic mixed work; returns a checksum so nothing is skipped."""
    exp = [1] * 255
    for i in range(1, 255):
        exp[i] = (exp[i - 1] * 3) % 257 % 256 or 1
    log = {v: i for i, v in enumerate(exp)}
    store: dict = {}
    rows: list = []
    acc = 0
    for i in range(rounds):
        a, b = exp[(i * 7) % 255], exp[(i * 13) % 255]
        for _ in range(4):
            acc ^= _combine(a, b, exp, log)
            a, b = b, exp[(a + acc) % 255]
        item = _Item(i & 255, (a, b, acc & 255))
        store[item.key] = item
        rows.append([v ^ acc for v in item.vals])
        if len(rows) > 32:
            rows = [r for r in rows if r[0] & 1]
        if i % 64 == 0:
            acc += sum(1 for k in store if k & 8)
    return acc


def reference_s() -> float:
    """Wall time of one ``reference_work`` call."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
