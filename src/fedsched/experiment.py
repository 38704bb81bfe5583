"""Experiment harness: build a cluster from a config, run a workload, report.

The same workload definition drives both scheduler families so allocation
times are comparable.  "centralized" is the federated scheduler pinned to a
single GM and a single LM.  Reports are deterministic: identical config and
seed produce byte-identical per-task files.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter

from .config import ExperimentConfig, UserSpec
from .core import (NO_CONSTRAINTS, ResourceVector, TaskRequest, WorkerNode, candidates,
                   constraint_bits, iter_ordinals)
from .engine import EventLoop, Network
from .errors import ConfigurationError, SimulationError
from .fairness import QueueSet, UserQueue
from .global_master import GlobalMaster
from .local_master import LocalMaster
from .metrics import AllocationRecord, MetricsCollector, RECORD_FIELDS, summarize
from .sparrow import ProbeScheduler
from .state import _EMPTY, FIT_MASKS, ClusterView, RunningTaskInfo
from .worker import FifoWorker
from .workload import (_check_span, _finite, assign_machine_constraints, assign_users,
                       augment_constraints, generate_synthetic, load_trace)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[AllocationRecord]
    summary: dict
    counters: dict[str, int]
    audit_launches: list = field(default_factory=list)
    audit_preemptions: list = field(default_factory=list)
    unschedulable: list[str] = field(default_factory=list)
    events_dispatched: int = 0


def effective_users(config: ExperimentConfig) -> list[UserSpec]:
    """Explicit users, or one equal-share user per GM."""
    if config.users:
        return config.users
    n = config.gm_count
    return [UserSpec(user_id=f"u{i}", share=1.0 / n) for i in range(n)]


def build_workload(config: ExperimentConfig, users: list[UserSpec]) -> list[TaskRequest]:
    spec = config.workload
    user_ids = [u.user_id for u in users]
    if spec.kind == "trace":
        tasks = load_trace(spec.path, cpu_divisor=spec.cpu_divisor,
                           mem_divisor=spec.mem_divisor,
                           constraint_count=config.constraint_count)
        if tasks:
            _check_span(tasks[-1].arrival_time, spec.load_factor)
        if spec.constraint_probabilities:
            tasks = augment_constraints(tasks, spec.constraint_probabilities, config.seed)
        if spec.load_factor != 1.0:
            factor = spec.load_factor
            tasks = [TaskRequest(task_id, job_id, user_id, demand, constraints,
                                 arrival / factor, duration)
                     for task_id, job_id, user_id, demand, constraints, arrival, duration
                     in tasks]
        tasks = assign_users(tasks, user_ids)
        known = set(user_ids)
        for task in tasks:
            if task.user_id not in known:
                raise ConfigurationError(
                    f"task {task.task_id} belongs to unknown user {task.user_id!r}"
                )
    else:
        demand = spec.demand if spec.demand is not None else ResourceVector.of(1, 256)
        tasks = generate_synthetic(
            count=spec.count, rate=spec.rate, duration=spec.duration,
            demand=demand, seed=config.seed, arrival=spec.arrival,
            constraint_probabilities=spec.constraint_probabilities or None,
            user_ids=user_ids, load_factor=spec.load_factor,
        )
    # trace demands and the default are 2-dimensional and validate() checks a
    # configured demand, so every task's demand has the first one's dimension
    dim = config.worker_capacity.dimension
    if tasks and tasks[0].demand.dimension != dim:
        raise ConfigurationError(f"task {tasks[0].task_id}: demand {tuple(tasks[0].demand)} "
                                 f"does not have the {dim} dimensions of worker_capacity")
    return tasks


def _build_nodes(config: ExperimentConfig) -> tuple[list[str], list[WorkerNode]]:
    lm_ids = [f"lm{i:02d}" for i in range(config.lm_count)]
    nodes: list[WorkerNode] = []
    for lm_id in lm_ids:
        for k in range(config.workers_per_lm):
            nodes.append(WorkerNode(
                node_id=f"{lm_id}-n{k:04d}",
                lm_id=lm_id,
                partition_id="",  # assigned below
                capacity=config.worker_capacity,
                machine_constraints=NO_CONSTRAINTS,
            ))
    assign_machine_constraints(nodes, config.machine_profiles, config.seed)
    return lm_ids, nodes


def _eligible(nodes: list[WorkerNode], members: list, tasks: list[TaskRequest]
              ) -> dict[frozenset[int], list]:
    """For each distinct task constraint set, the members whose node carries it.

    `members[i]` stands for `nodes[i]`, and every list keeps node order.
    Machine constraints never change, so this is the only constraint scan.
    """
    eligible: dict[frozenset[int], list] = {}
    for task in tasks:
        ids = task.constraints
        if ids not in eligible:
            eligible[ids] = [m for m, n in zip(members, nodes)
                             if n.machine_constraints >= ids]
    return eligible


def build_megha(config: ExperimentConfig, tasks: list[TaskRequest],
                users: list[UserSpec], *, audit: bool = False):
    loop = EventLoop(event_cap=config.event_cap)
    network = Network(loop, config.delays)
    collector = MetricsCollector(scheduler=config.scheduler, audit=audit)
    dim = config.worker_capacity.dimension

    lm_ids, nodes = _build_nodes(config)
    gm_ids = [f"gm{j:02d}" for j in range(config.gm_count)]
    lms: list[LocalMaster] = []
    per_lm = config.workers_per_lm
    for i, lm_id in enumerate(lm_ids):
        lm = LocalMaster(lm_id, loop, network, config.costs, collector,
                         heartbeat_period=config.heartbeat_period)
        lm_nodes = nodes[i * per_lm:(i + 1) * per_lm]  # built LM by LM
        # every LM carries one partition per GM; workers dealt round-robin
        for j, gm_id in enumerate(gm_ids):
            lm.add_partition(f"{lm_id}-p{j:02d}", gm_id, lm_nodes[j::config.gm_count],
                             config.constraint_count)
        lms.append(lm)

    total = ResourceVector.of(*[q * config.lm_count * config.workers_per_lm
                                for q in config.worker_capacity])
    shares = {u.user_id: tuple(u.share * q for q in total) for u in users}

    gms: list[GlobalMaster] = []
    queue_sets: dict[str, list[UserQueue]] = {gm_id: [] for gm_id in gm_ids}
    for i, user in enumerate(users):
        gm_id = gm_ids[user.gm_index if user.gm_index is not None else i % len(gm_ids)]
        queue_sets[gm_id].append(UserQueue(user_id=user.user_id,
                                           share=shares[user.user_id]))
    initial = [lm.snapshot(0.0) for lm in lms]
    for gm_id in gm_ids:
        gms.append(GlobalMaster(gm_id, loop, network, config.costs, collector,
                                ClusterView(initial, dim), QueueSet(queue_sets[gm_id]),
                                lms, shares, retry_limit=config.retry_limit,
                                violation_metric=config.violation_metric))
    for lm in lms:
        lm.wire_gms(gms)

    arrive = {}  # user id -> the arrival handler of the user's GM
    for gm in gms:
        for queue in gm.queues.queues:
            arrive[queue.user_id] = gm.on_task_arrival
    # every node starts with the full worker capacity
    eligible = _eligible(nodes, nodes, tasks)
    arrivals = []
    for task in tasks:
        if not (eligible[task.constraints]
                and config.worker_capacity.geq(task.demand)):
            collector.mark_unschedulable(task.task_id)
            continue
        arrivals.append((task.arrival_time, arrive[task.user_id], task))
    _feed(loop, collector, arrivals)
    for lm in lms:
        lm.start_heartbeats()
    return loop, collector, lms, gms


def build_sparrow(config: ExperimentConfig, tasks: list[TaskRequest]):
    loop = EventLoop(event_cap=config.event_cap)
    network = Network(loop, config.delays)
    collector = MetricsCollector(scheduler=config.scheduler)
    _, nodes = _build_nodes(config)

    slots = config.worker_slots()
    workers = [FifoWorker(n.node_id, slots, loop, collector) for n in nodes]

    eligible = _eligible(nodes, workers, tasks)
    schedulers = [ProbeScheduler(f"s{i:02d}", loop, network, eligible, config.costs,
                                 collector, probe_count=config.probe_count,
                                 seed=config.seed)
                  for i in range(config.sparrow_scheduler_count)]

    arrive = [scheduler.on_task_arrival for scheduler in schedulers]
    job_home = {}  # job id -> the arrival handler of the job's scheduler
    arrivals = []
    for task in tasks:
        if not eligible[task.constraints]:
            collector.mark_unschedulable(task.task_id)
            continue
        handler = job_home.get(task.job_id)
        if handler is None:
            handler = job_home[task.job_id] = arrive[len(job_home) % len(arrive)]
        arrivals.append((task.arrival_time, handler, task))
    _feed(loop, collector, arrivals)
    return loop, collector, workers, schedulers


def _feed(loop: EventLoop, collector: MetricsCollector, arrivals: list) -> None:
    """Admit the arrivals: each task's run is made when its arrival fires."""
    collector.admitted = len(arrivals)
    loop.feed(arrivals)


# -- invariants --------------------------------------------------------------


def check_conservation(lm: LocalMaster) -> None:
    """capacity == published available + running demands + live logical child
    capacities, and each user's consumption == the demands of their running
    tasks (zero for a user with none)."""
    running_sum: dict[str, ResourceVector] = {}
    user_sum: dict[str, ResourceVector] = {}
    for rt in lm.running.values():
        prev = running_sum.get(rt.node_id)
        demand = rt.info.demand
        running_sum[rt.node_id] = demand if prev is None else prev + demand
        prev = user_sum.get(rt.info.user_id)
        user_sum[rt.info.user_id] = demand if prev is None else prev + demand
    child_sum: dict[str, ResourceVector] = {}
    for node in lm.nodes.values():
        if node.is_logical:
            prev = child_sum.get(node.parent_node)
            child_sum[node.parent_node] = (node.capacity if prev is None
                                           else prev + node.capacity)
    available = {s.node_id: s.available for p in lm.partitions.values() for s in p.nodes}
    for node in lm.nodes.values():
        expected = available[node.node_id]
        running = running_sum.get(node.node_id)
        if running is not None:
            expected = expected + running
        children = child_sum.get(node.node_id)
        if children is not None:
            if node.is_logical:
                raise SimulationError(f"logical node {node.node_id} has children")
            expected = expected + children
        if expected != node.capacity:
            raise SimulationError(
                f"conservation violated on {node.node_id}: capacity "
                f"{tuple(node.capacity)}, accounted {tuple(expected)}"
            )
    for user, consumed in lm.consumed.items():
        running = user_sum.pop(user, ResourceVector.zeros(consumed.dimension))
        if consumed != running:
            raise SimulationError(
                f"{lm.lm_id}: consumption of {user} {tuple(consumed)} != its running "
                f"tasks' demands {tuple(running)}"
            )
    if user_sum:
        raise SimulationError(f"{lm.lm_id}: running tasks of {sorted(user_sum)} "
                              "without consumption")


def check_structure(lms: list[LocalMaster], gms: list[GlobalMaster]) -> None:
    """Every LM holds one partition per GM, listing its physical nodes before its
    logical ones; every GM searches its own partition on each LM, and every
    view partition exactly once over its two searches."""
    gm_ids = {gm.gm_id for gm in gms}
    for lm in lms:
        owners = [p.owner_gm_id for p in lm.partitions.values()]
        if len(owners) != len(gm_ids) or set(owners) != gm_ids:
            raise SimulationError(f"{lm.lm_id}: partition owners {owners} != GMs")
        seen: set[str] = set()
        for part in lm.partitions.values():
            machines = [lm.nodes[node_id].machine_constraints for node_id in part.node_ids]
            if part.bits != constraint_bits(len(part.bits), machines):
                raise SimulationError(f"{part.partition_id}: constraint bits != its nodes'")
            logical = [lm.nodes[node_id].is_logical for node_id in part.node_ids]
            if logical != sorted(logical):  # a GM keeps a plan's ordinal across merges
                raise SimulationError(f"{part.partition_id}: physical node after a logical one")
            if list(part.node_ids.values()) != list(range(len(part.node_ids))):
                raise SimulationError(f"{part.partition_id}: node ordinals out of order")
            for node_id in part.node_ids:
                if node_id in seen:
                    raise SimulationError(f"node {node_id} in two partitions")
                seen.add(node_id)
                if lm.nodes[node_id].partition_id != part.partition_id:
                    raise SimulationError(f"node {node_id} partition field drift")
        if seen != set(lm.nodes):
            raise SimulationError(f"{lm.lm_id}: partition membership != node set")
    for gm in gms:
        if sorted(p.lm_id for p in gm.own) != sorted(lm.lm_id for lm in lms):
            raise SimulationError(f"{gm.gm_id}: own partitions != one per LM")
        if len(gm.own) + len(gm.others) != len(gm.view.partitions):
            raise SimulationError(f"{gm.gm_id}: search orders != its view's partitions")


def check_snapshot_cache(lm: LocalMaster) -> None:
    """Every partition's snapshot list matches its nodes and running tasks, and
    its change log is shorter than the list and names only its ordinals."""
    by_node: dict[str, list[RunningTaskInfo]] = {}
    for task_id in sorted(lm.running):
        rt = lm.running[task_id]
        by_node.setdefault(rt.node_id, []).append(rt.info)
    for pid, partition in lm.partitions.items():
        fresh = [(node.node_id, node.is_logical, node.parent_node,
                  tuple(by_node.get(node.node_id, ())))
                 for node in map(lm.nodes.__getitem__, partition.node_ids)]
        kept = [(snap.node_id, snap.is_logical, snap.parent_node, snap.running)
                for snap in partition.nodes]
        if kept != fresh:
            raise SimulationError(f"{pid}: snapshot list != rebuild from its nodes")
        log = partition.log
        if log and not (len(log) < len(fresh) and 0 <= min(log) and max(log) < len(fresh)):
            raise SimulationError(f"{pid}: change log {log} for {len(fresh)} nodes")


def check_view_index(gm: GlobalMaster) -> None:
    """Every view partition's masks agree with a rebuild.

    The per-dimension columns, once built, and each cached fit mask must
    equal ones rebuilt from the viewed availability, each candidate mask and
    charge what `candidates` returns for the snapshot's bits, and at most
    FIT_MASKS fit masks are kept, none before the columns; and `match` must
    return what a first-fit walk over the candidates returns, counts
    included.  The version seen lies within the log held, and the empty
    mapping that views share until their first write is still empty.
    """
    if _EMPTY:
        raise SimulationError(f"{gm.gm_id}: the views' shared empty mapping was written")
    for (lm_id, pid), part in gm.view.partitions.items():
        where = f"{gm.gm_id}: view of {lm_id}/{pid}"
        if part.seen > len(part.log):
            raise SimulationError(f"{where}: version {part.seen} past its log")
        if part.columns is None:
            if part.fits:
                raise SimulationError(f"{where}: fit masks without columns")
        else:
            viewed = [part.deducted.get(o, node.available) for o, node in enumerate(part.nodes)]
            if part.columns != [list(c) for c in zip(*viewed)]:
                raise SimulationError(f"{where}: columns != viewed availability")
        if len(part.fits) > FIT_MASKS:
            raise SimulationError(f"{where}: {len(part.fits)} fit masks, cap {FIT_MASKS}")
        for demand, fit in part.fits.items():
            if fit != sum(1 << o for o, have in enumerate(viewed) if have.geq(demand)):
                raise SimulationError(f"{where}: fit mask for {demand} drifted")
        for ids, cand in part.cands.items():
            if cand != candidates(part.bits, len(part.nodes), ids):
                raise SimulationError(f"{where}: candidate mask for {sorted(ids)} drifted")
            mask, word_ops = cand
            for demand, fit in part.fits.items():
                # walk the candidates; the fit mask was just checked against `viewed`
                hit, checked = None, 0
                for ordinal in iter_ordinals(mask):
                    checked += 1
                    if fit >> ordinal & 1:
                        hit = ordinal
                        break
                if part.match(ids, demand) != (hit, word_ops, checked):
                    raise SimulationError(
                        f"{where}: match for {sorted(ids)} demand {demand} != first-fit walk")


class InvariantChecker:
    """Post-event hook validating conservation, partition structure and caches."""

    def __init__(self, lms: list[LocalMaster], gms: list[GlobalMaster]) -> None:
        self.lms = lms
        self.gms = gms
        self.checks = 0

    def __call__(self, now: float) -> None:
        self.checks += 1
        check_structure(self.lms, self.gms)
        for lm in self.lms:
            check_snapshot_cache(lm)  # first: conservation reads each node's snapshot
            check_conservation(lm)
        for gm in self.gms:
            check_view_index(gm)


# -- running -------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, *, check_invariants: bool = False,
                   audit: bool = False) -> ExperimentResult:
    """Run one simulation; `audit` keeps the launch and preemption audit entries."""
    config.validate()
    users = effective_users(config)
    tasks = build_workload(config, users)

    if config.scheduler == "sparrow":
        loop, collector, _, _ = build_sparrow(config, tasks)
    else:
        loop, collector, lms, gms = build_megha(config, tasks, users, audit=audit)
        if check_invariants:
            loop.post_event_hook = InvariantChecker(lms, gms)
    del tasks  # the loop holds each task until its arrival fires
    loop.run()

    if collector.outstanding:
        raise SimulationError(
            f"{collector.outstanding} tasks never completed"
        )
    records = sorted(collector.records, key=attrgetter("arrival", "task_id"))
    summary = summarize(records, collector.counters, len(collector.unschedulable))
    summary["config"] = {
        "scheduler": config.scheduler,
        "gm_count": config.gm_count,
        "lm_count": config.lm_count,
        "workers_per_lm": config.workers_per_lm,
        "workers_total": config.lm_count * config.workers_per_lm,
        "seed": config.seed,
    }
    return ExperimentResult(
        config=config, records=records, summary=summary,
        counters=dict(collector.counters),
        audit_launches=collector.audit_launches,
        audit_preemptions=collector.audit_preemptions,
        unschedulable=list(collector.unschedulable),
        events_dispatched=loop.events_dispatched,
    )


def _csv_row(record: AllocationRecord) -> list:
    """One tasks.csv row.  csv writes str() of every cell, which is repr()
    for floats; bools are written as 1/0."""
    return [int(v) if v.__class__ is bool else v for v in record]


# One tasks.csv row as csv.writer writes `_csv_row(record)` when no id needs
# quoting: repr() of the seven floats, the bool and the two counts as ints.
_CSV_HEADER = ",".join(RECORD_FIELDS) + "\n"
_CSV_FORMAT = "%s,%s,%s,%s,%r,%r,%r,%r,%r,%r,%r,%d,%d,%d\n"
# Every character csv may quote in an id (a superset: 3.11 leaves a lone \r bare)
_NEEDS_QUOTING = re.compile('[,"\r\n]')
_IDS = itemgetter(0, 1, 2, 3)


def write_reports(result: ExperimentResult, out_dir: str, fmt: str = "csv") -> dict[str, str]:
    """Write the per-task record file and the summary; returns the paths.

    tasks.csv holds what `csv.writer` writes for `_csv_row` of each record.
    Only ids can need quoting, so the rows come from one format string unless
    an id holds a character csv may quote; then csv.writer writes the file.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if fmt == "csv":
        records = result.records
        task_path = os.path.join(out_dir, "tasks.csv")
        with open(task_path, "w", newline="") as handle:
            if _NEEDS_QUOTING.search("".join(chain.from_iterable(map(_IDS, records)))):
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(RECORD_FIELDS)
                writer.writerows(map(_csv_row, records))
            else:
                handle.write(_CSV_HEADER)
                handle.writelines(map(_CSV_FORMAT.__mod__, records))
    elif fmt == "jsonl":
        task_path = os.path.join(out_dir, "tasks.jsonl")
        with open(task_path, "w") as handle:
            for record in result.records:
                handle.write(json.dumps(record._asdict(), sort_keys=True))
                handle.write("\n")
    else:
        raise ConfigurationError(f"unknown report format {fmt!r}")
    paths["tasks"] = task_path

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(result.summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    paths["summary"] = summary_path
    return paths


def write_audits(result: ExperimentResult, out_dir: str) -> dict[str, str]:
    """Write the audit entries of a run made with `audit=True`, one JSON line each."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, entries in (("launches", result.audit_launches),
                          ("preemptions", result.audit_preemptions)):
        paths[name] = os.path.join(out_dir, f"audit_{name}.jsonl")
        with open(paths[name], "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True))
                handle.write("\n")
    return paths


_SWEEP_FIELDS = {"workers": "workers_per_lm", "gm_count": "gm_count", "lm_count": "lm_count"}
SWEEP_AXES = (*_SWEEP_FIELDS, "load")


def sweep(config: ExperimentConfig, axis: str, values: list[float],
          *, check_invariants: bool = False) -> list[tuple[float, ExperimentResult]]:
    """Run the config once per value of one axis, once every variant validates."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r} (want one of {SWEEP_AXES})")
    variants = []
    for value in values:
        variant = copy.deepcopy(config)
        if axis == "load":
            variant.workload.load_factor = float(value)
        elif _finite(value) and float(value).is_integer():
            setattr(variant, _SWEEP_FIELDS[axis], int(value))
        else:
            raise ConfigurationError(f"sweep axis {axis} takes whole numbers, got {value!r}")
        variant.validate()
        variants.append((value, variant))
    return [(value, run_experiment(variant, check_invariants=check_invariants))
            for value, variant in variants]
