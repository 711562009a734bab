"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each function listed below at every module
binding that holds it (and each listed method on its class), so a call is
recorded whichever module makes it and calls can be split by caller.
Nothing under ``src/`` changes.  Spans -- (id, parent id, name, start, end)
in ``perf_counter_ns`` -- are kept in memory and written out at the end; self
time is computed from them afterwards.  Hot, cheap functions are counted
without a span, so their time stays inside their caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import statistics
import sys
import time
from collections import defaultdict

# (layer module, qualified name) of every traced function
SPANNED = (
    "field_mds.solve_linear",
    "field_mds.MdsCode.encode",
    "field_mds.MdsCode.erasure_decode",
    "field_mds.make_field",
    "erasure_channel.count_admissible",
    "source_codec.encode_source",
    "source_codec.EstimateLedger.ingest",
    "source_codec.emission_schedule",
    "source_codec.emission_coefficients",
    "relay_codec.RelayState.emit",
    "relay_codec.build_message_plan",
    "relay_codec.build_parity_groups",
    "relay_codec.encode_header",
    "relay_codec.decode_header",
    "dest_codec.DecoderState.ingest",
    "dest_codec.DecoderState.try_decode",
    "dest_codec.interference_terms",
    "sim_harness.run_episode",
    "sim_harness.exhaustive_verify",
    "sim_harness.loss_probability",
    "mac_region.build_region",
)
GENERATORS = ("erasure_channel.enumerate_admissible",)  # span covers resumptions only
COUNTED = (
    "scheme_params.derive_dims",
    "scheme_params.implemented_field_size",
    "field_mds.GaloisField.mul",
    "source_codec.relay_recovery_slot",
)
# caller label of each module binding of build_message_plan
PLAN_CALLERS = {"relay_codec": "relay", "dest_codec": "dest", "sim_harness": "verify"}
TAIL_MIN_CALLS = 1000  # p99 needs at least ten calls beyond it
GROWTH_MIN_SLOTS = 1000  # episodes long enough for slot_cost_growth


class TraceError(RuntimeError):
    """A traced name is gone, or a workload never called a function it must."""


def _package_modules():
    importlib.import_module("relaystream.cli")  # not imported by the package
    return [
        m for n, m in sorted(sys.modules.items())
        if n == "relaystream" or n.startswith("relaystream.")
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[tuple[str, str], list] = {}  # (name, binding) -> [count]
        self.plan_keys: set = set()
        self.finalized = 0  # try_decode results other than "pending"
        self.payload_over = 0  # relay slots whose payload exceeds n2*
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self._hooks: dict = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        self._hooks = self._post_hooks()
        for kind, names in (("span", SPANNED), ("gen", GENERATORS), ("count", COUNTED)):
            for name in names:
                for owner, attr, binding, fn in self._targets(name, modules):
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(kind, name, binding, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    @staticmethod
    def _targets(name: str, modules):
        """(owner, attribute, binding label, original) for every binding."""
        mod_name, _, qual = name.partition(".")
        mod = sys.modules.get(f"relaystream.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(fn):
                raise TraceError(f"traced method {name} no longer exists")
            return [(cls, attr, mod_name, fn)]
        fn = getattr(mod, qual, None)
        if not callable(fn):
            raise TraceError(f"traced function {name} no longer exists")
        return [
            (m, attr, m.__name__.rpartition(".")[2], fn)
            for m in modules
            for attr, value in list(vars(m).items())
            if value is fn
        ]

    def _wrap(self, kind: str, name: str, binding: str, fn):
        cell = self.calls.setdefault((name, binding), [0])
        if kind == "count":

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        if kind == "gen":

            def traced_gen(*args, **kwargs):
                cell[0] += 1
                sid, parent, active = next(ids), stack[-1], 0
                it = fn(*args, **kwargs)
                start = clock()
                try:
                    while True:
                        stack.append(sid)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            active += clock() - t0
                            stack.pop()
                        yield item
                finally:
                    spans.append((sid, parent, name, start, start + active))

            return traced_gen

        post = self._hooks.get(name)

        def traced(*args, **kwargs):
            cell[0] += 1
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if post is not None:
                post(args, result)
            return result

        return traced

    def _post_hooks(self):
        def emit(args, packet):
            if packet.payload_symbols > args[0].dims.n2_star:
                self.payload_over += 1

        def try_decode(args, result):
            if not (isinstance(result, str) and result == "pending"):
                self.finalized += 1

        def plan(args, _result):
            # a plan depends only on the bits in [t-2(k'-1), t+T-N2]
            p, erased, t = args[:3]
            k_prime = p.T + 1 - p.N1 - p.N2
            lo, hi = t - 2 * (k_prime - 1), t + p.T - p.N2
            self.plan_keys.add((p, tuple(s >= 0 and bool(erased(s)) for s in range(lo, hi + 1))))

        return {
            "relay_codec.RelayState.emit": emit,
            "dest_codec.DecoderState.try_decode": try_decode,
            "relay_codec.build_message_plan": plan,
        }

    # -- results ----------------------------------------------------------

    def total_calls(self, name: str) -> int:
        return sum(c[0] for (n, _), c in self.calls.items() if n == name)

    def require_calls(self, names) -> None:
        missing = [n for n in names if self.total_calls(n) == 0]
        if missing:
            raise TraceError(f"traced run never called {', '.join(missing)}")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer statistic, keyed ``<module>.<function>.<stat>``."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        durations: dict[str, list] = defaultdict(list)
        for sid, _parent, name, t0, t1 in self.spans:
            self_ns[name] += t1 - t0 - child_ns.get(sid, 0)
            durations[name].append(t1 - t0)

        out: dict[str, float] = {}
        for name in SPANNED + GENERATORS + COUNTED:
            out[f"{name}.calls"] = self.total_calls(name)
        for name in SPANNED + GENERATORS:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            d = durations[name]
            out[f"{name}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
            out[f"{name}.p99_us"] = (
                statistics.quantiles(d, n=100)[98] / 1e3 if len(d) >= TAIL_MIN_CALLS else 0.0
            )
        plan = "relay_codec.build_message_plan"
        for binding, label in PLAN_CALLERS.items():
            cell = self.calls.get((plan, binding))
            out[f"{plan}.calls.{label}"] = cell[0] if cell else 0
        plans = self.total_calls(plan)
        out[f"{plan}.distinct_ratio"] = len(self.plan_keys) / plans if plans else 0.0
        out["relay_codec.payload_over_n2star"] = self.payload_over
        tries = self.total_calls("dest_codec.DecoderState.try_decode")
        out["dest_codec.attempts_per_msg"] = tries / self.finalized if self.finalized else 0.0
        out["sim_harness.slot_cost_growth"] = self._slot_cost_growth()
        return out

    def _slot_cost_growth(self) -> float:
        """Per long episode: mean time per slot (gap between successive relay
        emits) over the last tenth of the stream over that of the first
        tenth; median over episodes, 0.0 when no episode is long enough."""
        episodes = {s[0] for s in self.spans if s[2] == "sim_harness.run_episode"}
        starts: dict[int, list] = defaultdict(list)
        for _sid, parent, name, t0, _t1 in self.spans:
            if name == "relay_codec.RelayState.emit" and parent in episodes:
                starts[parent].append(t0)
        ratios = []
        for emits in starts.values():
            if len(emits) < GROWTH_MIN_SLOTS:
                continue
            gaps = [b - a for a, b in zip(emits, emits[1:])]
            tenth = len(gaps) // 10
            ratios.append(sum(gaps[-tenth:]) / sum(gaps[:tenth]))
        return statistics.median(ratios) if ratios else 0.0

    def write_spans(self, path) -> None:
        """Spans as gzip CSV: id, parent, name, start and duration in ns."""
        origin = min((s[3] for s in self.spans), default=0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,dur_ns\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{name},{t0 - origin},{t1 - t0}\n")
