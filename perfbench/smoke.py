"""Smoke test of the benchmark itself, at tiny task counts.

    python3 perfbench/smoke.py

For each workload shape it checks that
  - an end-to-end and a traced run emit exactly the metrics BENCHMARK.json
    names, each with its unit and a finite value;
  - the correctness gate fails a run whose tasks.csv has one byte changed.
It also checks that run.py exits non-zero, printing nothing on stdout, in a
directory that holds the benchmark but no package.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from fedsched import experiment  # noqa: E402

TINY = {"centralized": 40, "federated_contended": 60, "probe_baseline": 200}


def declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def check_metrics(label: str, metrics: dict, want: dict[str, str]) -> list[str]:
    got = {name: unit for name, (_, unit) in metrics.items()}
    problems = []
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"unit mismatch {sorted(n for n in got if n in want and got[n] != want[n])}")
    problems += [f"{label}: {name} = {value!r}" for name, (value, _) in metrics.items()
                 if not isinstance(value, (int, float)) or not math.isfinite(value)]
    return problems


def run_with_flipped_byte(session: bench.Session) -> bench.RunOutcome:
    """A gated run whose tasks.csv has its first byte changed after it is
    written; the benchmark looks up write_reports at call time."""
    write_reports = experiment.write_reports

    def flipping(result, out_dir, *args, **kwargs):
        paths = write_reports(result, out_dir, *args, **kwargs)
        with open(paths["tasks"], "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 0x01]))
        return paths

    experiment.write_reports = flipping
    try:
        return session.run()
    finally:
        experiment.write_reports = write_reports


def check_workload(workload: str) -> list[str]:
    problems = []
    count = TINY[workload]
    session = bench.Session(workload, seed=1, count=count)
    metrics = bench.end_to_end(session, seconds=0.01)
    problems += check_metrics(f"{workload} end-to-end", metrics, declared("end_to_end"))
    problems += [f"{workload}: {name} is not positive" for name, (value, _) in metrics.items()
                 if not value > 0]
    problems += [f"{workload}: {e}" for o in session.outcomes for e in o.errors]

    corrupted = run_with_flipped_byte(session)
    if corrupted.ok or "digests differ" not in " ".join(corrupted.errors):
        problems.append(f"{workload}: the gate passed a report with one byte changed")

    traced = bench.Session(workload, seed=1, count=count)
    layers, trace_problems = tracing.per_layer(traced, seconds=0.01)
    problems += check_metrics(f"{workload} per-layer", layers, declared("per_layer"))
    problems += [f"{workload}: {e}" for o in traced.outcomes for e in o.errors]
    # tiny runs need not reach every entry point; full-size traced runs must
    for problem in trace_problems:
        print(f"  note ({workload}, {count} tasks): {problem}")
    return problems


def check_without_package() -> list[str]:
    bare = bench.OUT_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "centralized",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without a package run.py exited {proc.returncode} "
                f"printing {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in bench.WORKLOADS:
        print(f"smoke: {workload} at {TINY[workload]} tasks", flush=True)
        problems += check_workload(workload)
    problems += check_without_package()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
