"""Benchmark entry point: one workload, one seed, one mode.

    python3 perfbench/run.py --workload synth_desk --seed 1 --seconds 45 --trace 0

Run from the repository root.  --trace 0 times the workload untraced and
reports the end-to-end metrics; --trace 1 runs its first draws untraced and
then traced, checks that both give the same result CSV, and reports the
per-layer metrics.  The last line of standard output is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("synth_desk", "bench_kde")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    package = ROOT / "src" / "uncoupled" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: package source not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so after the BLAS thread pin

    import uncoupled

    if Path(uncoupled.__file__).resolve() != package.resolve():
        print(f"perfbench: imported {uncoupled.__file__}, not {package}", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    mode = "traced" if args.trace else "timed"
    print(f"perfbench {workload.name} seed={args.seed} mode={mode}")
    print(f"machine      {json.dumps(harness.machine_block(args.seed))}")
    if args.trace:
        try:
            result = harness.traced_run(workload, args.seed)
        except harness.TraceMismatch as exc:
            print(f"perfbench: {exc}; refusing to report", file=sys.stderr)
            return 1
    else:
        result = harness.timed_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
