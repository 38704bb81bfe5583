"""Benchmark of the three fedsched scheduler designs.

    python3 perfbench/run.py --workload centralized --seed 1 --seconds 30 --trace 0

Runs one workload of bench.WORKLOADS repeatedly for about `--seconds`
seconds through the unmodified package and applies the correctness gate to
every run.  It prints one line per metric and, as the last line, a JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
from one run with span wrappers and one under cProfile.  Run it from the
repository root: it imports the package from ./src.  Exit codes: 0 correct,
1 a run failed the gate, 2 usage or no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fedsched" / "__init__.py").is_file():
        print(f"error: no fedsched package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import tracing

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(want one of {sorted(bench.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    session = bench.Session(args.workload, args.seed)
    if args.trace:
        metrics, problems = tracing.per_layer(session, args.seconds)
    else:
        metrics, problems = bench.end_to_end(session, args.seconds), []
    for outcome in session.outcomes:
        for error in outcome.errors:
            print(f"FAILED run: {error}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED trace: {problem}", file=sys.stderr)
    if session.expected is not None:
        source = ("the recorded reference" if session.reference
                  else "the first repetition (no reference recorded for this seed)")
        print(f"  report digests tasks.csv {session.expected['tasks.csv'][:16]} "
              f"summary.json {session.expected['summary.json'][:16]} "
              f"checked against {source}")
    attempted = len(session.outcomes)
    print(f"  failed_run_share {session.failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    failed = session.failed + (1 if problems else 0)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
