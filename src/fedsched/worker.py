"""Worker-side execution: exact durations, plus the FIFO model for the baseline.

In the federated scheduler workers never queue: the LM only launches a task
after validating resources, so execution begins as soon as the launch payload
lands and runs for exactly the task's duration.  The probe baseline instead
gives every worker a fixed number of slots and a FIFO queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .engine import EventLoop, Handler
from .metrics import MetricsCollector, TaskRun


def start_task(loop: EventLoop, run: TaskRun, start: float,
               on_complete: Handler, arg: Any) -> float:
    """Begin execution at `start`; `on_complete(arg, end)` fires at
    end = start + duration exactly."""
    end = start + run.request.duration
    loop.note_progress()
    loop.schedule(end, on_complete, arg)
    return end


class FifoWorker:
    """A slot-based worker for the probe baseline.

    `slots` tasks run concurrently; the rest wait in arrival order.  The wait
    estimate handed to probes is the sum of queued task durations divided by
    the slot count.
    """

    def __init__(self, node_id: str, slots: int, loop: EventLoop,
                 collector: MetricsCollector) -> None:
        self.node_id = node_id
        self.slots = slots
        self.loop = loop
        self.collector = collector
        self.active = 0
        self.queue: deque[tuple[TaskRun, float]] = deque()

    def estimated_wait(self) -> float:
        if not self.queue:
            return 0.0
        return sum(run.request.duration for run, _ in self.queue) / self.slots

    def enqueue(self, run: TaskRun, now: float) -> None:
        if self.active < self.slots:
            self._start(run, now, now)
        else:
            self.queue.append((run, now))

    def _start(self, run: TaskRun, enqueued_at: float, now: float) -> None:
        run.worker_queuing += now - enqueued_at
        self.collector.finalize(run, now)
        self.active += 1
        start_task(self.loop, run, now, self._complete, run)

    def _complete(self, run: TaskRun, now: float) -> None:
        self.active -= 1
        self.collector.note_completed()
        self.loop.note_progress()
        if self.queue and self.active < self.slots:
            next_run, enqueued_at = self.queue.popleft()
            self._start(next_run, enqueued_at, now)
