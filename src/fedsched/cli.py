"""Command line front end.

    fedsched run --config experiment.json --out-dir results/ [--audit]
    fedsched sweep --config experiment.json --axis workers --values 1000,5000,10000
    fedsched validate-config --config experiment.json

Exit codes: 0 success, 2 configuration problem or an unusable --out-dir
(checked before the simulation starts) or a failed report write, 3 detected
livelock, 4 any other simulation error (e.g. tasks that never completed).

An empty --out-dir is refused before simulating, as one under a file is.
A sweep writes each value's reports to `os.path.join(out_dir,
f"{axis}-{value:g}")`, and refuses before its first run two values with one
such label (`1.0000001,1.0000002`, or `2,2`): they would share a directory.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .config import load_config
from .errors import ConfigurationError, LivelockError, SimulationError
from .experiment import SWEEP_AXES, run_experiment, sweep, write_audits, write_reports


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out-dir", default="results",
                        help="directory for report files (default: results)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="per-task record format (default: csv)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="validate conservation and partition structure "
                             "after every event (slow; megha and centralized "
                             "runs only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsched",
        description="Discrete-event simulation of federated cluster scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write reports")
    _add_common(run_p)
    run_p.add_argument("--audit", action="store_true",
                       help="keep an entry per launch validation and preemption "
                            "decision and write them as audit_*.jsonl")

    sweep_p = sub.add_parser("sweep", help="run the experiment once per axis value")
    _add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 1000,5000,10000")

    val_p = sub.add_parser("validate-config", help="parse and validate a config")
    val_p.add_argument("--config", required=True)
    return parser


def _one_line(tag: str, summary: dict) -> str:
    counters = summary["counters"]
    if summary["tasks"] == 0:
        return f"{tag}: 0 tasks unschedulable={summary['unschedulable']}"
    alloc = summary["allocation_time"]
    return (f"{tag}: {summary['tasks']} tasks"
            f" median={alloc['median']:.6f}s p99={alloc['p99']:.6f}s"
            f" mean={alloc['mean']:.6f}s"
            f" reschedules={counters['reschedules']}"
            f" preemptions={counters['preemptions']}"
            f" unschedulable={summary['unschedulable']}")


def _load(args) -> "ExperimentConfig":
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _check_out_dir(path: str) -> None:
    """Raise ConfigurationError for an empty path, and OSError unless `path`
    is, or can be made as, a directory this process can write into.  Creates
    nothing, so a run refused later leaves no directory behind."""
    if not path:
        raise ConfigurationError("--out-dir must not be empty")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), existing)


def cmd_run(args) -> int:
    config = _load(args)
    _check_out_dir(args.out_dir)
    result = run_experiment(config, check_invariants=args.check_invariants,
                            audit=args.audit)
    paths = write_reports(result, args.out_dir, fmt=args.format)
    print(_one_line(config.scheduler, result.summary))
    print(f"wrote {paths['tasks']} and {paths['summary']}")
    if args.audit:
        audits = write_audits(result, args.out_dir)
        print(f"wrote {audits['launches']} and {audits['preemptions']}")
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad --values list: {exc}") from exc
    if not values:
        raise ConfigurationError("--values must name at least one value")
    labels: dict[str, float] = {}
    for value in values:
        label = f"{value:g}"
        if label in labels:
            raise ConfigurationError(f"--values {labels[label]!r} and {value!r} would "
                                     f"both write to {args.axis}-{label}")
        labels[label] = value
    _check_out_dir(args.out_dir)
    results = sweep(config, args.axis, values,
                    check_invariants=args.check_invariants)
    for value, result in results:
        tag = f"{args.axis}={value:g}"
        out = os.path.join(args.out_dir, f"{args.axis}-{value:g}")
        paths = write_reports(result, out, fmt=args.format)
        print(_one_line(tag, result.summary))
        print(f"  wrote {paths['tasks']}")
    return 0


def cmd_validate(args) -> int:
    config = load_config(args.config)
    workers = config.lm_count * config.workers_per_lm
    print(f"ok: scheduler={config.scheduler} gms={config.gm_count} "
          f"lms={config.lm_count} workers={workers}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "validate-config": cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LivelockError as exc:
        print(f"livelock: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
