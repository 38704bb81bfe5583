"""Per-layer measurement for the traced run: span wrappers and profile folding.

Spans are recorded from this file only, around calls into each module's
public entry points.  A wrapper replaces a name where callers look it up: a
method on its class, or a function in the namespace of the module that
imported it by name.  `Spans` installs them for one simulation and puts the
originals back afterwards, so untraced runs execute the package's own
functions.

Self time comes from a separate cProfile pass without wrappers.  It is
folded through a file-to-module map; C builtins and generated code (file
"~" or "<string>") have no module of their own, so their self time is
charged to the module that called them.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import statistics
import time
from collections import Counter, defaultdict

from bench import Session, sim_alloc_ms

from fedsched import experiment, global_master, local_master
from fedsched.engine import Network
from fedsched.global_master import GlobalMaster
from fedsched.local_master import LocalMaster
from fedsched.metrics import percentile
from fedsched.sparrow import ProbeScheduler
from fedsched.state import ClusterView, ViewPartition
from fedsched.worker import FifoWorker

PACKAGE_DIR = os.path.dirname(os.path.abspath(experiment.__file__))

# Modules whose self time is reported; any other file counts as "other".
MODULES = ("engine", "local_master", "state", "core", "global_master",
           "fairness", "sparrow", "worker", "workload", "experiment",
           "metrics", "messages", "config", "other")

MESSAGE_KINDS = ("launch_request", "launch_response", "repartition_request",
                 "preempt_request", "preempt_response", "heartbeat",
                 "task_completion", "task_preempted", "task_launch", "probe",
                 "probe_reply")

LM_REQUESTS = ("LocalMaster.on_launch_request", "LocalMaster.on_repartition_request",
               "LocalMaster.on_preempt_request")
GM_HANDLERS = ("GlobalMaster.on_task_arrival", "GlobalMaster.on_launch_response",
               "GlobalMaster.on_preempt_response", "GlobalMaster.on_heartbeat",
               "GlobalMaster.on_task_completion", "GlobalMaster.on_task_preempted")

FEDERATED = ("centralized", "federated_contended")
ALL = FEDERATED + ("probe_baseline",)

# Each wrapped entry point and the workloads that must call it at least once.
EXPECTED_CALLS = {
    "experiment.generate_synthetic": ALL,
    "experiment.assign_machine_constraints": ALL,
    "experiment.summarize": ALL,
    "Network.send": ALL,
    "LocalMaster.on_launch_request": FEDERATED,
    "LocalMaster.on_repartition_request": ("federated_contended",),
    "LocalMaster.on_preempt_request": ("federated_contended",),
    "LocalMaster.partition_snapshot": FEDERATED,
    "LocalMaster.snapshot": FEDERATED,
    "local_master.start_task": FEDERATED,
    "ViewPartition.match": FEDERATED,
    "ClusterView.merge_partitions": FEDERATED,
    "ClusterView.apply_heartbeat": FEDERATED,
    "GlobalMaster.on_task_arrival": FEDERATED,
    "GlobalMaster.on_launch_response": FEDERATED,
    "GlobalMaster.on_preempt_response": ("federated_contended",),
    "GlobalMaster.on_heartbeat": FEDERATED,
    "GlobalMaster.on_task_completion": FEDERATED,
    "GlobalMaster.on_task_preempted": ("federated_contended",),
    "global_master.plan_preemption": ("federated_contended",),
    "ProbeScheduler.on_task_arrival": ("probe_baseline",),
    "FifoWorker.enqueue": ("probe_baseline",),
}


class Spans:
    """Host-time spans and counts around the package's entry points.

    `durations[name]` holds one inclusive duration (ns) per call; `counts`
    holds what the calls returned or carried (nodes merged, match hits,
    messages per kind, ...).  Use as a context manager around one run.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_s(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names) / 1e9

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of `owner.attr`; `after(args, result)` counts."""
        original = owner.__dict__[attr]
        durations = self.durations[name]
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            began = clock()
            result = original(*args, **kwargs)
            durations.append(clock() - began)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, span)

    def _wrap_snapshots(self) -> None:
        """Time each snapshot built for a message, counting its nodes.

        `LocalMaster.snapshot` builds its partitions through
        `partition_snapshot`; those nested calls belong to the outer span.
        """
        snapshot = LocalMaster.__dict__["snapshot"]
        partition_snapshot = LocalMaster.__dict__["partition_snapshot"]
        durations = self.durations["LocalMaster.snapshot"]
        part_durations = self.durations["LocalMaster.partition_snapshot"]
        counts = self.counts
        clock = time.perf_counter_ns
        depth = [0]

        def full(lm, *args, **kwargs):
            began = clock()
            depth[0] += 1
            try:
                result = snapshot(lm, *args, **kwargs)
            finally:
                depth[0] -= 1
            durations.append(clock() - began)
            counts["snapshot_nodes"] += result.node_count
            return result

        def partial(lm, *args, **kwargs):
            if depth[0]:
                return partition_snapshot(lm, *args, **kwargs)
            began = clock()
            result = partition_snapshot(lm, *args, **kwargs)
            part_durations.append(clock() - began)
            counts["snapshot_nodes"] += len(result.nodes)
            return result

        self._patch(LocalMaster, "snapshot", full)
        self._patch(LocalMaster, "partition_snapshot", partial)

    def __enter__(self) -> "Spans":
        counts = self.counts

        def count_kind(args, result):
            counts["message." + args[2]] += 1

        def count_match(args, result):
            counts["match_checked"] += result[2]
            counts["match_hits"] += result[0] is not None

        def count_merge(args, result):
            counts["merge_nodes"] += sum(len(p.nodes) for p in args[3])

        def count_heartbeat(args, result):
            counts["merge_nodes"] += args[1].node_count

        def count_plan(args, result):
            counts["plan_yields"] += result[1] is not None

        try:
            for name in ("generate_synthetic", "assign_machine_constraints", "summarize"):
                self.wrap(experiment, name, "experiment." + name)
            self.wrap(global_master, "plan_preemption", "global_master.plan_preemption",
                      count_plan)
            self.wrap(local_master, "start_task", "local_master.start_task")
            self.wrap(Network, "send", "Network.send", count_kind)
            for name in LM_REQUESTS:
                self.wrap(LocalMaster, name.split(".")[1], name)
            self._wrap_snapshots()
            self.wrap(ViewPartition, "match", "ViewPartition.match", count_match)
            self.wrap(ClusterView, "merge_partitions", "ClusterView.merge_partitions",
                      count_merge)
            self.wrap(ClusterView, "apply_heartbeat", "ClusterView.apply_heartbeat",
                      count_heartbeat)
            for name in GM_HANDLERS:
                self.wrap(GlobalMaster, name.split(".")[1], name)
            self.wrap(ProbeScheduler, "on_task_arrival", "ProbeScheduler.on_task_arrival")
            self.wrap(FifoWorker, "enqueue", "FifoWorker.enqueue")
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def missing_calls(self, workload: str) -> list[str]:
        """Entry points meant to run on `workload` that recorded no call."""
        return [name for name, workloads in EXPECTED_CALLS.items()
                if workload in workloads and self.calls(name) == 0]

    def stray_calls(self, workload: str) -> list[str]:
        """Entry points of the other scheduler design that recorded a call.

        The probe baseline never builds GMs or LMs, and the federated
        designs never build probe schedulers or FIFO workers.
        """
        other = FEDERATED if workload == "probe_baseline" else ("probe_baseline",)
        return [name for name, workloads in EXPECTED_CALLS.items()
                if set(workloads) <= set(other) and self.calls(name)]


def module_of(filename: str) -> str | None:
    """The reporting bucket of a file, or None for code without a file."""
    if filename == "~" or filename.startswith("<"):
        return None
    if os.path.dirname(os.path.abspath(filename)) == PACKAGE_DIR:
        name = os.path.splitext(os.path.basename(filename))[0]
        if name in MODULES:
            return name
    return "other"


def fold_self_time(profile: cProfile.Profile) -> dict[str, float]:
    """Profiler self time per module, seconds.

    A function without a module passes its self time to its callers in
    proportion to the self time it spent under each; chains of such
    functions are followed up to the first caller that has a module.
    """
    stats = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def resolve(func, visiting: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        module = module_of(func[0])
        if module is not None:
            return {module: 1.0}
        callers = stats[func][4] if func in stats else {}
        weights = {caller: info[2] for caller, info in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: callers[caller][1] for caller in weights}
            total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        folded: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for module, part in resolve(caller, visiting | {func}).items():
                folded[module] += part * weight / total
        shares[func] = dict(folded)
        return shares[func]

    by_module = {module: 0.0 for module in MODULES}
    for func, (_, _, self_time, _, _) in stats.items():
        for module, part in resolve(func, frozenset()).items():
            by_module[module] += self_time * part
    return by_module


def percentile_us(durations_ns: list[int], q: float) -> float:
    """Percentile of span durations in microseconds; 0 when there are none."""
    return percentile(durations_ns, q) / 1e3 if durations_ns else 0.0


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def layer_metrics(spans: Spans, outcome, records: list, self_s: dict[str, float],
                  scheduler: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload from its spanned and profiled runs."""
    d, c, counters = spans.durations, spans.counts, outcome.counters
    tasks = len(records)
    requests = sum(spans.calls(n) for n in LM_REQUESTS)
    validations = requests - spans.calls("LocalMaster.on_preempt_request")
    snapshots = spans.calls("LocalMaster.snapshot") + spans.calls(
        "LocalMaster.partition_snapshot")
    matches = spans.calls("ViewPartition.match")
    merges = spans.calls("ClusterView.merge_partitions") + spans.calls(
        "ClusterView.apply_heartbeat")
    plans = spans.calls("global_master.plan_preemption")
    handlers = [t for n in GM_HANDLERS for t in d.get(n, ())]
    lm_requests = [t for n in LM_REQUESTS for t in d.get(n, ())]
    arrivals = d.get("ProbeScheduler.on_task_arrival", [])
    attempts = sum(r.attempts for r in records) if scheduler != "sparrow" else 0
    sim = sim_alloc_ms(records)

    def mean_ms(field: str) -> float:
        return math.fsum(getattr(r, field) for r in records) / tasks * 1e3

    m: dict[str, tuple[float, str]] = {
        "engine.events": (outcome.events, "count"),
        "engine.events_per_task": (outcome.events / tasks, "events/task"),
    }
    for kind in MESSAGE_KINDS:
        m["engine.messages." + kind] = (c["message." + kind], "count")
    m.update({
        "local_master.requests": (requests, "count"),
        "local_master.request_us_p50": (percentile_us(lm_requests, 50), "us"),
        "local_master.request_us_p99": (percentile_us(lm_requests, 99), "us"),
        "local_master.snapshot_s": (
            spans.total_s("LocalMaster.snapshot", "LocalMaster.partition_snapshot"), "s"),
        "local_master.snapshot_nodes_per_msg": (
            ratio(c["snapshot_nodes"], snapshots), "nodes/msg"),
        "local_master.validate_ok_ratio": (
            ratio(validations - counters["inconsistency_failures"], validations), "ratio"),
        "local_master.inconsistency_failures": (counters["inconsistency_failures"], "count"),
        "local_master.repartitions": (counters["repartitions"], "count"),
        "local_master.heartbeats": (counters["heartbeats"], "count"),
        "state.match_calls": (matches, "count"),
        "state.match_checked_per_call": (ratio(c["match_checked"], matches), "nodes/call"),
        "state.match_hit_ratio": (ratio(c["match_hits"], matches), "ratio"),
        "state.match_s": (spans.total_s("ViewPartition.match"), "s"),
        "state.merge_calls": (merges, "count"),
        "state.merge_nodes_per_call": (ratio(c["merge_nodes"], merges), "nodes/call"),
        "state.merge_s": (spans.total_s("ClusterView.merge_partitions",
                                        "ClusterView.apply_heartbeat"), "s"),
        "global_master.attempts_per_task": (attempts / tasks, "attempts/task"),
        "global_master.reschedules": (counters["reschedules"], "count"),
        "global_master.handler_us_p50": (percentile_us(handlers, 50), "us"),
        "global_master.handler_us_p99": (percentile_us(handlers, 99), "us"),
        "fairness.plan_calls": (plans, "count"),
        "fairness.plan_yield_ratio": (ratio(c["plan_yields"], plans), "ratio"),
        "fairness.plan_s": (spans.total_s("global_master.plan_preemption"), "s"),
        "fairness.preempt_attempts": (counters["preempt_attempts"], "count"),
        "fairness.preemptions": (counters["preemptions"], "count"),
        "sparrow.arrival_us_p50": (percentile_us(arrivals, 50), "us"),
        "sparrow.arrival_us_p99": (percentile_us(arrivals, 99), "us"),
        "worker.enqueues": (spans.calls("FifoWorker.enqueue"), "count"),
        "workload.generate_s": (spans.total_s("experiment.generate_synthetic"), "s"),
        "experiment.build_s": (outcome.build_s, "s"),
        "experiment.report_s": (outcome.report_s, "s"),
        "metrics.summarize_s": (spans.total_s("experiment.summarize"), "s"),
        "metrics.records": (tasks, "count"),
        "metrics.sim_alloc_p50_ms": (sim["p50"], "ms"),
        "metrics.sim_framework_queuing_ms": (mean_ms("framework_queuing_delay"), "ms"),
        "metrics.sim_processing_ms": (mean_ms("processing_delay"), "ms"),
        "metrics.sim_communication_ms": (mean_ms("communication_delay"), "ms"),
        "metrics.sim_worker_queuing_ms": (mean_ms("worker_queuing_delay"), "ms"),
    })
    total = sum(self_s.values())
    for module in MODULES:
        m[module + ".self_s"] = (self_s[module], "s")
        m[module + ".self_share"] = (ratio(self_s[module], total), "fraction")
    return m


def per_layer(session: Session, seconds: float
              ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Untraced runs for a baseline, then one run with spans and one profiled.

    Returns the per-layer metrics and the trace problems (entry points that
    did not run where they must, or ran where they must not).
    """
    session.repeat_for(seconds * 0.4, minimum=2)
    measured = session.measured()
    spans = Spans()
    with spans:
        spanned = session.run()
    profile = cProfile.Profile()
    profiled = session.run(profiler=profile)
    profiled.records = []
    if not (measured and spanned.ok and profiled.ok):
        return {}, []
    problems = [f"{name} recorded no call" for name in spans.missing_calls(session.workload)]
    problems += [f"{name} belongs to the other design but was called"
                 for name in spans.stray_calls(session.workload)]
    self_s = fold_self_time(profile)
    metrics = layer_metrics(spans, spanned, spanned.records, self_s,
                            session.data["scheduler"])
    untraced = statistics.median(o.tasks_per_s for o in measured)
    metrics["trace.span_overhead"] = (untraced / spanned.tasks_per_s, "ratio")
    metrics["trace.profile_overhead"] = (untraced / profiled.tasks_per_s, "ratio")
    total = sum(self_s.values())
    split = sorted(self_s.items(), key=lambda item: -item[1])
    print(f"{session.workload} seed {session.seed}: untraced median {untraced:.1f} "
          f"tasks/s, with spans {spanned.tasks_per_s:.1f}, "
          f"profiled {profiled.tasks_per_s:.1f}")
    print("  profiled self time by module: " + ", ".join(
        f"{module} {value / total:.1%}" for module, value in split if value > 0))
    return metrics, problems
