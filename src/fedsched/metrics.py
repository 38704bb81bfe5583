"""Per-task allocation accounting, aggregate statistics, and run counters.

Allocation time is the span from a task's arrival to the moment it starts
executing, and it decomposes exactly into framework queuing (time waiting for
a master to pick the request up, including requeues), processing (master
decision and validation work), communication (message hops on the task's
path), and worker queuing (baseline-only waiting at a worker).  Every segment
of the span is attributed to exactly one bucket so the components always sum
back to the total.

A task's `AllocationRecord` is a `NamedTuple` whose field order is the
`tasks.csv` column order; the per-task accumulator behind it, `TaskMetrics`,
is a mutable dataclass until the task starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .core import TaskRequest


@dataclass
class TaskMetrics:
    """Mutable per-task accumulator; freezes once the task starts."""

    arrival: float
    framework_queuing: float = 0.0
    processing: float = 0.0
    worker_queuing: float = 0.0
    communication: float = 0.0
    attempts: int = 0
    repartitioned: bool = False
    preempted_caused: int = 0
    task_start: float | None = None

    @property
    def finalized(self) -> bool:
        return self.task_start is not None

    def add_framework_queuing(self, dt: float) -> None:
        if not self.finalized:
            self.framework_queuing += dt

    def add_processing(self, dt: float) -> None:
        if not self.finalized:
            self.processing += dt

    def add_worker_queuing(self, dt: float) -> None:
        if not self.finalized:
            self.worker_queuing += dt

    def add_communication(self, dt: float) -> None:
        if not self.finalized:
            self.communication += dt

    def finalize(self, task_start: float) -> None:
        if self.finalized:
            return
        self.task_start = task_start


class AllocationRecord(NamedTuple):
    """One task's allocation outcome, in `tasks.csv` column order."""

    task_id: str
    job_id: str
    user_id: str
    scheduler: str
    arrival: float
    task_start: float
    allocation_time: float
    framework_queuing_delay: float
    processing_delay: float
    worker_queuing_delay: float
    communication_delay: float
    attempts: int
    repartitioned: bool
    preempted_count_caused: int


RECORD_FIELDS = AllocationRecord._fields


class TaskRun:
    """Mutable simulation-side state for one task."""

    __slots__ = (
        "request",
        "metrics",
        "queued_since",
        "tried_version",
        "consecutive_failures",
        "incarnation",
        "record",
        "times_preempted",
    )

    def __init__(self, request: TaskRequest) -> None:
        self.request = request
        self.metrics = TaskMetrics(arrival=request.arrival_time)
        self.queued_since = request.arrival_time
        self.tried_version = -1
        self.consecutive_failures = 0
        self.incarnation = 0
        self.record: AllocationRecord | None = None
        self.times_preempted = 0


COUNTER_KEYS = (
    "repartitions",
    "preempt_attempts",
    "preemptions",
    "inconsistency_failures",
    "reschedules",
    "heartbeats",
)


class MetricsCollector:
    """Accumulates records, counters, and audit entries for one simulation.

    Audit entries (one per launch or repartition validation and one per
    preemption decision) are kept only when `audit` is on: a long run would
    otherwise hold one of each in memory for every decision.
    """

    def __init__(self, *, audit: bool = False) -> None:
        self.records: list[AllocationRecord] = []
        self.counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self.audit = audit
        self.audit_launches: list[dict] = []
        self.audit_preemptions: list[dict] = []
        self.unschedulable: list[str] = []
        self.admitted = 0
        self.completed = 0

    def new_run(self, request: TaskRequest) -> TaskRun:
        self.admitted += 1
        return TaskRun(request)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def finalize(self, run: TaskRun, task_start: float, scheduler: str) -> None:
        """Freeze a task's record at its first execution start."""
        if run.record is not None:
            return
        m = run.metrics
        m.finalize(task_start)
        request = run.request
        run.record = AllocationRecord(
            request.task_id,
            request.job_id,
            request.user_id,
            scheduler,
            request.arrival_time,
            task_start,
            task_start - request.arrival_time,
            m.framework_queuing,
            m.processing,
            m.worker_queuing,
            m.communication,
            m.attempts,
            m.repartitioned,
            m.preempted_caused,
        )
        self.records.append(run.record)

    def note_completed(self) -> None:
        self.completed += 1

    @property
    def outstanding(self) -> int:
        return self.admitted - self.completed

    def mark_unschedulable(self, task_id: str) -> None:
        self.unschedulable.append(task_id)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: index ceil(q/100 * n) of the sorted values."""
    if not values:
        raise ValueError("percentile of empty input")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


COMPONENT_FIELDS = ("framework_queuing_delay", "processing_delay",
                    "worker_queuing_delay", "communication_delay")
SUMMARY_PERCENTILES = (("median", 50.0), ("p90", 90.0), ("p99", 99.0),
                       ("p99.9", 99.9), ("p99.99", 99.99))


def summarize(records: list[AllocationRecord], counters: dict[str, int],
              unschedulable_count: int = 0) -> dict:
    """Aggregate statistics over allocation times plus run counters."""
    summary: dict = {
        "tasks": len(records),
        "unschedulable": unschedulable_count,
        "counters": dict(counters),
    }
    if records:
        # sorted once, so each percentile's own sort is a linear pass
        allocation = sorted(r.allocation_time for r in records)
        stats = {"mean": math.fsum(allocation) / len(allocation)}
        for name, q in SUMMARY_PERCENTILES:
            stats[name] = percentile(allocation, q)
        summary["allocation_time"] = stats
        summary["components"] = {
            name: math.fsum(map(attrgetter(name), records)) for name in COMPONENT_FIELDS
        }
    return summary
