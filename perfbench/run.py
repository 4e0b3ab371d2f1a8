"""jitflow benchmark: one workload, one seed, one measured run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sparse-analytic --seed 1 --seconds 20 --trace 0

Workloads: sparse-analytic, dense-analytic, attention-model, replay-io (see
perfbench/BENCHMARK.md).  `--trace 0` prints the end-to-end metrics and
`--trace 1` the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
program is imported from ./src; without it the benchmark exits with code 2
and prints no result.
"""

import time

START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse-analytic", "dense-analytic", "attention-model", "replay-io")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="jitflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "jitflow" / "__init__.py").is_file():
        print(f"error: no jitflow sources under {source}", file=sys.stderr)
        return 2
    # one client thread; BLAS gets one thread too, so it does not compete
    # with the client and float results are identical from process to process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(source))

    import harness  # imports numpy, scipy and jitflow

    import_s = time.perf_counter() - START
    out_dir = ROOT / ".perfbench-out"
    spans_path = None
    if args.trace:
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result, notes = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                    ROOT, import_s=import_s, spans_path=spans_path)
    for note in notes:
        print(f"# {args.workload}: {note}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
