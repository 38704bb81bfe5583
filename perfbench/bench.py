"""Workloads, the timed simulation run, and the correctness gate.

A run is the package's own `run_experiment` followed by `write_reports`.
Set-up (config to first event) and the timed part (first event to reports
written) are told apart by clock readings taken in wrappers around the
workload and cluster builders, which `run_experiment` looks up on the
`fedsched.experiment` module at call time.  Every name is looked up there at
call time here too, so the span wrappers that `tracing.py` installs in a
traced run are seen.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from fedsched import experiment
from fedsched.config import config_from_dict
from fedsched.metrics import percentile

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = BENCH_DIR / ".out"
REFERENCES = BENCH_DIR / "references.json"
REPORT_FILES = ("tasks.csv", "summary.json")
CLOSURE_TOLERANCE = 1e-9
# The timed part of a run is cut into this many slices of consecutive events
# (plus the post-loop part); see Session.fastest_run_s.
SLICES = 200
# Host times take each slice's fastest over this many repetitions after the
# warm-up one, whatever the speed of the commit measured.
FASTEST_OF = 16

# Machine profiles of configs/megha.json: every machine of the "accelerated"
# or "plain" cluster carries constraint 7 with probability 0.9.
PROFILES = [
    {"profile_id": "accelerated", "probabilities": {"2": 0.5, "7": 0.9}},
    {"profile_id": "plain", "probabilities": {"7": 0.9}},
]
# Users and shares of configs/fairness.json, each pinned to one GM.
USERS = [
    {"user_id": "uA", "share": 0.10, "gm_index": 0},
    {"user_id": "uB", "share": 0.25, "gm_index": 1},
    {"user_id": "uC", "share": 0.15, "gm_index": 2},
    {"user_id": "uD", "share": 0.50, "gm_index": 3},
]

# One workload per scheduler design.  The arrival process is open-loop
# Poisson in simulated time; task counts are scaled so that one simulation
# takes a few host seconds and a run holds several repetitions.
WORKLOADS: dict[str, dict] = {
    # 1 GM x 1 LM x 150 workers (600 slots of [16,4096]); 360 tasks/s of
    # 1.0 s keep about 60% of slots busy, and 900 tasks span 2.5 task
    # durations.  Every piggyback rebuilds the snapshot of one 150-node
    # partition and about 360 running tasks.
    "centralized": {
        "scheduler": "centralized", "gm_count": 1, "lm_count": 1,
        "workers_per_lm": 150, "worker_capacity": [64, 16384],
        "machine_profiles": PROFILES,
        "workload": {"kind": "synthetic", "count": 900, "rate": 360.0,
                     "duration": 1.0, "demand": [16, 4096],
                     "constraint_probabilities": {"7": 0.2}},
    },
    # 4 GMs x 4 LMs x 50 workers (800 slots, 12-13-node partitions) under a
    # burst of 1,000 tasks of 3.0 s: more tasks than slots, so GMs carve out
    # of each other's partitions, race, reschedule and preempt.
    "federated_contended": {
        "scheduler": "megha", "gm_count": 4, "lm_count": 4,
        "workers_per_lm": 50, "worker_capacity": [64, 16384],
        "users": USERS,
        "workload": {"kind": "synthetic", "count": 1000, "rate": 2000.0,
                     "duration": 3.0, "demand": [16, 4096]},
    },
    # 10 LMs x 100 workers of 4 slots, 2 probe schedulers with d = 2;
    # 640 tasks/s of 5.0 s keep about 80% of the 4,000 slots busy, and
    # 6,400 tasks span two task durations.
    "probe_baseline": {
        "scheduler": "sparrow", "lm_count": 10, "workers_per_lm": 100,
        "worker_capacity": [64, 16384], "slot_demand": [16, 4096],
        "probe_count": 2, "sparrow_scheduler_count": 2,
        "machine_profiles": PROFILES,
        "workload": {"kind": "synthetic", "count": 6400, "rate": 640.0,
                     "duration": 5.0, "demand": [16, 4096],
                     "constraint_probabilities": {"7": 0.2}},
    },
}


def config_data(workload: str, seed: int, count: int | None = None) -> dict:
    """The JSON config of one workload; `count` overrides the task count."""
    data = json.loads(json.dumps(WORKLOADS[workload]))
    data["seed"] = seed
    if count is not None:
        data["workload"]["count"] = count
    return data


@dataclass
class RunOutcome:
    """One simulation of one workload: timings, outputs and gate verdict."""

    setup_s: float = math.nan
    run_s: float = math.nan
    build_s: float = math.nan
    report_s: float = math.nan
    setup_stages_ns: list[int] = field(default_factory=list)
    tasks: int = 0
    events: int = 0
    slices_ns: list[int] = field(default_factory=list)
    records: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def tasks_per_s(self) -> float:
        return self.tasks / self.run_s


def digest_reports(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in REPORT_FILES:
        sha = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                sha.update(chunk)
        digests[name] = sha.hexdigest()
    return digests


def slice_times(start_ns: int, stamps: array, end_ns: int) -> list[int]:
    """Host time of each of SLICES runs of consecutive events, then of the
    part after the last event; `stamps` holds one clock reading per event."""
    n = len(stamps)
    if n == 0:
        return [end_ns - start_ns]
    count = min(SLICES, n)
    times, previous = [], start_ns
    for k in range(1, count + 1):
        stamp = stamps[k * n // count - 1]
        times.append(stamp - previous)
        previous = stamp
    times.append(end_ns - previous)
    return times


@contextmanager
def stage_clock(post_event_hook=None):
    """Clock readings at the stage boundaries of `experiment.run_experiment`.

    `run_experiment` looks up `build_workload`, `build_megha` and
    `build_sparrow` on the experiment module at call time.  Inside this
    context they are wrapped: the yielded dict gets the clock before and
    after the workload is built (and the task count), and after the cluster
    is built, which is when the first event is due.  `post_event_hook` is
    installed on the event loop that the cluster builder returns.
    """
    names = ("build_workload", "build_megha", "build_sparrow")
    marks: dict = {}
    originals = {name: experiment.__dict__[name] for name in names}
    clock = time.perf_counter_ns

    def build_workload(*args, **kwargs):
        marks["workload"] = clock()
        tasks = originals["build_workload"](*args, **kwargs)
        marks["tasks"] = len(tasks)
        marks["cluster"] = clock()
        return tasks

    def timed_cluster(build):
        def build_cluster(*args, **kwargs):
            built = build(*args, **kwargs)
            if post_event_hook is not None:
                built[0].post_event_hook = post_event_hook
            marks["run"] = clock()
            return built
        return build_cluster

    experiment.build_workload = build_workload
    experiment.build_megha = timed_cluster(originals["build_megha"])
    experiment.build_sparrow = timed_cluster(originals["build_sparrow"])
    try:
        yield marks
    finally:
        for name, original in originals.items():
            setattr(experiment, name, original)


def simulate(data: dict, out_dir: str, profiler=None) -> RunOutcome:
    """`run_experiment` then `write_reports`, timed in two parts: set-up
    (config to first event), then first event to reports written.

    The engine's post-event hook takes a clock reading after every event, so
    that the timed part can be cut into slices of identical work.  A
    `profiler` replaces that hook and is enabled for exactly the run.
    """
    outcome = RunOutcome()
    stamps = array("q")
    clock = time.perf_counter_ns
    hook = None if profiler is not None else (
        lambda _, stamp=stamps.append: stamp(clock()))
    if profiler is not None:
        profiler.enable()
    try:
        with stage_clock(hook) as marks:
            t0 = clock()
            result = experiment.run_experiment(config_from_dict(data))
            t_report = clock()
            experiment.write_reports(result, out_dir)
            t2 = clock()
    finally:
        if profiler is not None:
            profiler.disable()
    t1 = marks["run"]
    outcome.setup_s = (t1 - t0) / 1e9
    outcome.setup_stages_ns = [marks["workload"] - t0, marks["cluster"] - marks["workload"],
                               t1 - marks["cluster"]]
    outcome.run_s = (t2 - t1) / 1e9
    outcome.build_s = (t1 - marks["cluster"]) / 1e9
    outcome.report_s = (t2 - t_report) / 1e9
    if stamps:
        outcome.slices_ns = slice_times(t1, stamps, t2)
    outcome.tasks = len(result.records)
    outcome.events = result.events_dispatched
    outcome.records = result.records
    outcome.counters = result.counters
    if len(result.records) + len(result.unschedulable) != marks["tasks"]:
        outcome.errors.append(
            f"{marks['tasks']} tasks generated, {len(result.records)} placed, "
            f"{len(result.unschedulable)} unschedulable")
    return outcome


def closure_errors(records) -> list[str]:
    """Records whose four delay components do not sum to allocation_time."""
    bad = []
    for r in records:
        total = (r.framework_queuing_delay + r.processing_delay
                 + r.worker_queuing_delay + r.communication_delay)
        if abs(total - r.allocation_time) > CLOSURE_TOLERANCE:
            bad.append(f"{r.task_id}: components {total!r} != {r.allocation_time!r}")
    return bad


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_for(references: dict, workload: str, seed: int) -> dict | None:
    return references.get("digests", {}).get(workload, {}).get(str(seed))


def gated_run(data: dict, reference: dict | None, expected: dict | None,
              profiler=None) -> RunOutcome:
    """One simulation plus the correctness gate.

    The run fails when it raises or leaves tasks outstanding, when any
    record's components miss its allocation time by more than 1e-9 s, or
    when a report digest differs from `reference` (recorded at the commit
    that defined the benchmark) or from `expected` (an earlier repetition of
    the same seed in this run).
    """
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        try:
            outcome = simulate(data, out_dir, profiler)
        except Exception as exc:  # any failure of the simulated run is a failed run
            return RunOutcome(errors=[f"{type(exc).__name__}: {exc}"])
        outcome.digests = digest_reports(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    bad = closure_errors(outcome.records)
    if bad:
        outcome.errors.append(f"{len(bad)} records fail closure, first {bad[0]}")
    for label, want in (("reference", reference), ("first repetition", expected)):
        if want is not None and want != outcome.digests:
            outcome.errors.append(f"report digests differ from the {label}: "
                                  f"{outcome.digests} != {want}")
    return outcome


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_alloc_ms(records) -> dict[str, float]:
    """Simulated allocation-time statistics over all records, in ms."""
    alloc = [r.allocation_time for r in records]
    return {
        "mean": math.fsum(alloc) / len(alloc) * 1e3,
        "p50": percentile(alloc, 50.0) * 1e3,
        "p99": percentile(alloc, 99.0) * 1e3,
    }


class Session:
    """Repeated gated runs of one workload and seed."""

    def __init__(self, workload: str, seed: int, count: int | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.data = config_data(workload, seed, count)
        self.reference = (reference_for(load_references(), workload, seed)
                          if count is None else None)
        self.outcomes: list[RunOutcome] = []
        self.expected: dict | None = None
        self.sim: dict[str, float] = {}
        self.record_count = 0

    def run(self, profiler=None) -> RunOutcome:
        """One gated run.  The simulated statistics come from the first
        successful run (the gate makes every later one byte-identical); the
        returned outcome holds the run's records until the caller drops them."""
        gc.collect()
        outcome = gated_run(self.data, self.reference, self.expected, profiler)
        if outcome.ok and self.expected is None:
            self.expected = outcome.digests
            self.sim = sim_alloc_ms(outcome.records)
            self.record_count = len(outcome.records)
        self.outcomes.append(outcome)
        return outcome

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def fastest_runs(self) -> list[RunOutcome]:
        """FASTEST_OF successful runs after the warm-up one, evenly spaced
        over all of them.

        A fixed count keeps the bias of a minimum the same on every commit:
        the expected minimum falls as samples are added, so taking it over
        every run that fits would favour faster commits.  Spacing the runs
        over the whole measured window, rather than taking the first ones,
        exposes every commit to the same stretch of host time.
        """
        measured = self.measured()
        if len(measured) <= FASTEST_OF:
            return measured
        last = len(measured) - 1
        return [measured[round(i * last / (FASTEST_OF - 1))] for i in range(FASTEST_OF)]

    def fastest_run_s(self) -> float:
        """Host time of the timed part, each slice at its fastest.

        Every run of a seed dispatches the same events in the same order,
        so slice k is the same work in every run.  Summing each slice's
        fastest time filters out the phases in which a shared host runs
        this process slower, which last from under a second to minutes.
        """
        runs = [o.slices_ns for o in self.fastest_runs() if o.slices_ns]
        return sum(min(times) for times in zip(*runs)) / 1e9

    def fastest_setup_s(self) -> float:
        """Set-up time with each stage (config, workload, cluster) at its
        fastest run, for the same reason as `fastest_run_s`."""
        runs = [o.setup_stages_ns for o in self.fastest_runs()]
        return sum(min(times) for times in zip(*runs)) / 1e9

    def measured(self) -> list[RunOutcome]:
        """Successful runs after the first, which warms caches and imports."""
        ok = [o for o in self.outcomes[1:] if o.ok]
        return ok or [o for o in self.outcomes if o.ok]

    def repeat_for(self, seconds: float, minimum: int) -> None:
        """Run at least `minimum` times, then until `seconds` would be
        exceeded by one more typical run.  Each run's records are dropped
        before the next starts, so the peak resident set is that of one."""
        start = time.perf_counter()
        walls: list[float] = []
        while True:
            began = time.perf_counter()
            self.run().records = []
            walls.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if len(self.outcomes) >= minimum and \
                    elapsed + statistics.median(walls) > seconds:
                return


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_alloc_mean_ms": "ms",
    "sim_alloc_p99_ms": "ms",
}


def end_to_end(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run of about `seconds` seconds.

    `tasks_per_s` and `setup_s` charge each event slice and each set-up
    stage its fastest of FASTEST_OF runs (see `Session.fastest_run_s`).
    Simulated metrics repeat exactly for a seed (the gate checks the
    digests), so any run gives them.
    """
    session.repeat_for(seconds, minimum=FASTEST_OF + 1)
    measured = session.measured()
    if not measured:
        return {}
    first = measured[0]
    sim = session.sim
    tps = [o.tasks_per_s for o in measured]
    setup = [o.setup_s for o in measured]
    fastest = first.tasks / session.fastest_run_s()
    values = {
        "tasks_per_s": fastest,
        "setup_s": session.fastest_setup_s(),
        "peak_rss_mb": peak_rss_mb(),
        "sim_alloc_mean_ms": sim["mean"],
        "sim_alloc_p99_ms": sim["p99"],
    }
    print(f"{session.workload} seed {session.seed}: {len(session.outcomes)} runs, "
          f"{len(measured)} measured after a warm-up run; "
          f"{first.tasks} tasks and {first.events} events per run")
    print("  tasks_per_s of whole runs, quartiles %.1f %.1f %.1f tasks/s" % quartiles(tps))
    print(f"  tasks_per_s with each of {SLICES} event slices at its fastest "
          f"over {len(session.fastest_runs())} runs: {fastest:.1f} tasks/s")
    print("  setup_s of whole runs, quartiles %.4f %.4f %.4f s" % quartiles(setup))
    print(f"  simulated allocation time over n={session.record_count} tasks: "
          f"mean {sim['mean']:.6f} ms, p50 {sim['p50']:.6f} ms, "
          f"p99 {sim['p99']:.6f} ms")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
