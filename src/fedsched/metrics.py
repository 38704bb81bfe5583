"""Per-task allocation accounting, aggregate statistics, and run counters.

Allocation time is the span from a task's arrival to the moment it starts
executing, and it decomposes exactly into framework queuing (time waiting for
a master to pick the request up, including requeues), processing (master
decision and validation work), communication (message hops on the task's
path), and worker queuing (baseline-only waiting at a worker).  Every segment
of the span is attributed to exactly one bucket so the components always sum
back to the total.

A task's `TaskRun` accumulates the four sums plus its attempt, repartition
and preemption tallies while it is simulated.  `MetricsCollector.finalize`
copies them, once, into an `AllocationRecord` when the task first starts:
that record is the freeze.  A preempted task is requeued and its run's sums
keep growing, but nothing reads them again, so the accumulators carry no
guard of their own.  The record is a `NamedTuple` whose field order is the
`tasks.csv` column order.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .core import TaskRequest


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
_new_tuple = tuple.__new__


class TaskRun:
    """Mutable simulation-side state for one task, its allocation sums included."""

    __slots__ = (
        "request",
        "framework_queuing",
        "processing",
        "worker_queuing",
        "communication",
        "attempts",
        "repartitioned",
        "preempted_caused",
        "queued_since",
        "tried_version",
        "consecutive_failures",
        "record",
    )

    def __init__(self, request: TaskRequest) -> None:
        self.request = request
        self.framework_queuing = 0.0
        self.processing = 0.0
        self.worker_queuing = 0.0
        self.communication = 0.0
        self.attempts = 0
        self.repartitioned = False
        self.preempted_caused = 0
        self.queued_since = request.arrival_time
        self.tried_version = -1
        self.consecutive_failures = 0
        self.record: AllocationRecord | None = None


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

    `scheduler` is the label every record of the run carries.  Audit entries
    (one per launch or repartition validation and one per preemption
    decision) are kept only when `audit` is on: a long run would otherwise
    hold one of each in memory for every decision.
    """

    def __init__(self, *, scheduler: str = "megha", audit: bool = False) -> None:
        self.scheduler = scheduler
        self.records: list[AllocationRecord] = []
        self.counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self.audit = audit
        self.audit_launches: list[dict] = []
        self.audit_preemptions: list[dict] = []
        self.unschedulable: list[str] = []
        self.admitted = 0  # tasks fed to the event loop, set when the run is built
        self.completed = 0

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def finalize(self, run: TaskRun, task_start: float) -> None:
        """Freeze a task's record at its first execution start."""
        if run.record is not None:
            return
        request = run.request
        # tuple.__new__ fills the record in C, past the generated Python __new__
        run.record = _new_tuple(AllocationRecord, (
            request.task_id,
            request.job_id,
            request.user_id,
            self.scheduler,
            request.arrival_time,
            task_start,
            task_start - request.arrival_time,
            run.framework_queuing,
            run.processing,
            run.worker_queuing,
            run.communication,
            run.attempts,
            run.repartitioned,
            run.preempted_caused,
        ))
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
