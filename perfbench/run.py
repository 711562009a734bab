"""relaystream benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.

``--trace 0`` measures end-to-end metrics with tracing off: set-up time in
fresh interpreters, then passes over seeded inputs until ``--seconds`` have
passed (at least ``MIN_PASSES``), reporting medians.  Throughput is reported
per duration of a fixed reference routine timed between passes (see
``Clock``), because the shared machines this runs on drift in speed by tens
of percent over minutes; raw rates are printed too.  ``--trace 1`` runs a
fixed number of passes with every layer wrapped (so call counts repeat
exactly for a seed), then the same passes untraced; the difference is the
tracing overhead.  Every pass is checked for correctness either way.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  A full record, and the spans of a traced run, go to
``perfbench/out/``.  The exit status is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
REFERENCE_EVERY_S = 1.0  # measured work between two reference timings
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_library():
    if not (SRC / "relaystream" / "__init__.py").is_file():
        fail(f"no relaystream sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import relaystream

    if Path(relaystream.__file__).resolve().parent != (SRC / "relaystream").resolve():
        fail(f"imported relaystream from {relaystream.__file__}, not from {SRC}")
    return relaystream


def measure_setup(workload: str) -> list[float]:
    """Cold set-up times, one fresh interpreter each; the first run, which
    may still write bytecode caches, is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            fail("set-up probe timed out")
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def machine_note() -> dict:
    import numpy

    note = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                note["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return note


class Clock:
    """Times passes in segments that end at operation boundaries, and times
    the reference routine between segments once REFERENCE_EVERY_S of
    measured work has gone by.  Reference timings are not part of any pass.
    """

    def __init__(self):
        from reference import reference_s

        self.reference_s = reference_s
        self.refs = [reference_s()]
        self.segments: list[tuple] = []  # (pass, seconds, index of the reference before it)
        self._since = 0.0
        self._pass = self._t0 = None

    def begin(self, index: int) -> None:
        self._pass, self._t0 = index, time.perf_counter()

    def tick(self) -> None:
        seg = time.perf_counter() - self._t0
        self.segments.append((self._pass, seg, len(self.refs) - 1))
        self._since += seg
        if self._since >= REFERENCE_EVERY_S:
            self.refs.append(self.reference_s())
            self._since = 0.0
        self._t0 = time.perf_counter()

    def pass_seconds(self, index: int) -> float:
        return sum(seg for i, seg, _ in self.segments if i == index)

    def reference_costs(self, n: int) -> list[float]:
        """Each pass's time in reference units: every segment divided by
        the mean of the two reference timings around it."""
        self.refs.append(self.reference_s())
        cost = [0.0] * n
        for i, seg, k in self.segments:
            cost[i] += seg * 2 / (self.refs[k] + self.refs[k + 1])
        return cost


class Passes:
    """Runs and times passes, collecting their checks and sizes."""

    def __init__(self, workload, seed: int, clock: Clock | None = None):
        self.w, self.seed, self.clock = workload, seed, clock
        self.times: list[float] = []
        self.results: list = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, index: int):
        inputs = self.w.make_inputs(self.seed, index)
        if self.clock is None:
            t0 = time.perf_counter()
            res = self.w.run_pass(inputs)
            self.times.append(time.perf_counter() - t0)
        else:
            self.clock.begin(index)
            res = self.w.run_pass(inputs, self.clock.tick)
            self.clock.tick()
            self.times.append(self.clock.pass_seconds(index))
        self.results.append(res)
        self.account(res, index)

    def account(self, res, index: int) -> None:
        self.attempted += res.ops
        self.failed += res.failed
        self.failures += [f"pass {index}: {f}" for f in res.failures]

    def recheck(self) -> None:
        """Run pass 0 again, untimed: its loss counts must repeat exactly."""
        from checks import recheck_failures

        again = self.w.run_pass(self.w.make_inputs(self.seed, 0))
        again.check(recheck_failures(self.results[0].losses, again.losses))
        self.account(again, 0)

    def loss_rate(self, n: int) -> float:
        """Adaptive losses over messages assessed, in the first n passes."""
        done = self.results[:n]
        return sum(a for r in done for a, _ in r.losses) / sum(r.msgs for r in done)


def untraced(workload, seed: int, seconds: float):
    setup = measure_setup(workload.name)
    workload.warm_up()
    clock = Clock()
    passes = Passes(workload, seed, clock)
    start = time.perf_counter()
    while len(passes.times) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.run(len(passes.times))
    costs = clock.reference_costs(len(passes.times))
    if workload.recheck:
        passes.recheck()
    timed = list(zip(passes.results, passes.times))
    msgs_per_s = statistics.median(r.msgs / t for r, t in timed)
    metrics = {
        "setup_s": statistics.median(setup),
        "msgs_per_ref": statistics.median(r.msgs / c for r, c in zip(passes.results, costs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "msgs_per_s": (msgs_per_s, "msg/s"),
        "reference_s": (statistics.median(clock.refs), "s"),
    }
    # the names each workload's users know; all follow from the same passes
    report.update({
        "simulate-codec": {"msg_loss_rate": (passes.loss_rate(MIN_PASSES), "ratio")},
        "simulate-analytic": {
            "analytic_msgs_per_s": (msgs_per_s, "msg/s"),
            "msg_loss_rate": (passes.loss_rate(MIN_PASSES), "ratio"),
        },
        "stream-long": {
            "slots_per_s": (statistics.median(r.slots / t for r, t in timed), "slot/s"),
        },
        "verify-sweep": {"sweep_s": (statistics.median(passes.times), "s")},
    }[workload.name])
    extra = {"setup_samples_s": setup, "reference_s": clock.refs, "pass_ref_cost": costs}
    return passes, metrics, report, extra


def traced(workload, seed: int, names: list[str]):
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.warm_up()
        passes = Passes(workload, seed)
        for i in range(workload.traced_passes):
            passes.run(i)
    finally:
        tracer.uninstall()
    tracer.require_calls(workload.must_call)
    untraced_passes = Passes(workload, seed)
    for i in range(workload.traced_passes):
        untraced_passes.run(i)
    for i, res in enumerate(untraced_passes.results):
        passes.account(res, i)

    layer = tracer.layer_metrics()
    layer["trace_overhead_s"] = sum(passes.times) - sum(untraced_passes.times)
    layer["sim_harness.loss_probability.msg_loss_rate"] = passes.loss_rate(workload.traced_passes)
    missing = [n for n in names if n not in layer]
    if missing:
        fail(f"per-layer metrics not computed: {missing}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.csv.gz")
    extra = {
        "untraced_pass_s": untraced_passes.times,
        "all_layer_metrics": layer,
        "spans": len(tracer.spans),
    }
    return passes, {n: layer[n] for n in names}, {}, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS or args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    workload = workloads.WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    if args.trace:
        passes, metrics, report, extra = traced(workload, args.seed, list(units))
    else:
        passes, metrics, report, extra = untraced(workload, args.seed, args.seconds)
    report["op_error_rate"] = (passes.failed / max(1, passes.attempted), "ratio")
    print(f"workload {workload.name}: {workload.params}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    for name, (value, unit) in report.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  passes {len(passes.times)}, operations {passes.attempted}, failed {passes.failed}")
    for f in passes.failures[:20]:
        print(f"  FAILED {f}")

    correct = not passes.failures
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "why": whys[workload.name],
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_note(),
        "input_sizes_pass0": passes.results[0].sizes if passes.results else {},
        "passes": len(passes.times),
        "pass_s": passes.times,
        "losses_per_pass": [r.losses for r in passes.results],
        "metrics": metrics,
        "report": {k: v[0] for k, v in report.items()},
        "failures": passes.failures,
        **extra,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, passes.attempted),
        "failed": passes.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
