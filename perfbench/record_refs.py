"""Record the report digests that the benchmark's correctness gate expects.

    python3 perfbench/record_refs.py

For every workload and for seeds 0-31 plus a held-out seed, runs the
package's own one-call path (`run_experiment`, then `write_reports`) and
stores the sha256 of tasks.csv and summary.json in perfbench/references.json.
The benchmark's runs go through the same path and must reproduce these bytes.
Record again only for a change that is meant to alter what the simulator
computes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from fedsched.config import config_from_dict  # noqa: E402
from fedsched.experiment import run_experiment, write_reports  # noqa: E402

SEEDS = range(32)
HELD_OUT_SEED = 104729


def package_digests(data: dict) -> dict[str, str]:
    """Report digests of one config through run_experiment + write_reports."""
    bench.OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="ref-", dir=bench.OUT_ROOT)
    try:
        write_reports(run_experiment(config_from_dict(data)), out_dir)
        return bench.digest_reports(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    digests = {}
    for workload in bench.WORKLOADS:
        digests[workload] = {}
        for seed in (*SEEDS, HELD_OUT_SEED):
            digests[workload][str(seed)] = package_digests(
                bench.config_data(workload, seed))
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]}", flush=True)
    with open(bench.REFERENCES, "w") as handle:
        json.dump({"held_out_seed": HELD_OUT_SEED, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
