"""Top-10 cProfile entries (by own time) of one pass of a workload.

    python3 perfbench/profile_top.py --workload stream-long --seed 1

cProfile charges a cost to every Python call, which shifts the shares toward
call-heavy code; use it to find candidates, and the benchmark to measure.
The table is printed and written to perfbench/out/profile-<workload>.txt.
"""

import argparse
import cProfile
import io
import pstats
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.import_library()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    w.warm_up()
    inputs = w.make_inputs(args.seed, 0)
    prof = cProfile.Profile()
    res = prof.runcall(w.run_pass, inputs)
    if res.failures:
        print("\n".join(res.failures), file=sys.stderr)
        return 1
    buf = io.StringIO()
    buf.write(f"# {w.name}, seed {args.seed}, pass 0: {w.params}\n")
    buf.write(f"# input sizes: {res.sizes}\n")
    pstats.Stats(prof, stream=buf).strip_dirs().sort_stats("tottime").print_stats(10)
    text = buf.getvalue()
    print(text)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / f"profile-{w.name}.txt").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
