"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads stream-long,verify-sweep --seeds 1-10

For every workload and metric it prints the median over seeds and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), which is how a metric's run-to-run
spread is compared with its bound in ``BENCHMARK.json``.  Runs are made one
after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    section = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    ok = True
    for w in args.workloads.split(","):
        values: dict[str, list] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f} s wall", flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {w:<18} {name:<48} median {med:<12.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
