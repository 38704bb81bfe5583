"""Probe-based baseline: sample d workers per task, enqueue at the shortest queue.

Each task triggers d probes to distinct workers chosen uniformly among those
satisfying its constraints.  Worker constraints never change, so eligibility
is computed once per distinct task constraint set when the cluster is built:
each scheduler is handed that map, with every list in worker (node id) order.
Workers answer with an estimated queue wait (sum of queued task durations
over slot count); the task is sent to the lowest estimate, ties broken by
lower node id.  Workers run a fixed number of slots and queue the rest FIFO,
so allocation time includes worker-side queuing -- the component the
federated design eliminates by validating before launch.
"""

from __future__ import annotations

import random

from .engine import (PROBE, PROBE_REPLY, TASK_LAUNCH, ActorClock, CostModel,
                     EventLoop, Network)
from .errors import ConfigurationError
from .metrics import MetricsCollector, TaskRun
from .worker import FifoWorker


class ProbeScheduler:
    def __init__(
        self,
        scheduler_id: str,
        loop: EventLoop,
        network: Network,
        eligible: dict[frozenset[int], list[FifoWorker]],
        costs: CostModel,
        collector: MetricsCollector,
        *,
        probe_count: int = 2,
        seed: int = 0,
    ) -> None:
        if probe_count < 1:
            raise ConfigurationError("probe_count must be >= 1")
        self.scheduler_id = scheduler_id
        self.loop = loop
        self.network = network
        self.eligible = eligible  # constraint ids -> workers in node_id order
        self.costs = costs
        self.collector = collector
        self.probe_count = probe_count
        self.rng = random.Random(f"{seed}/probe/{scheduler_id}")
        self.clock = ActorClock()

    def on_task_arrival(self, run: TaskRun, now: float) -> None:
        start = self.clock.begin(now)
        run.framework_queuing += start - now
        done = self.clock.charge(start, self.costs.probe_handling)
        run.processing += self.costs.probe_handling
        run.attempts += 1

        eligible = self.eligible[run.request.constraints]
        sample = (self.rng.sample(eligible, self.probe_count)
                  if len(eligible) > self.probe_count else eligible)

        # probes fan out in parallel: one round trip sits on the critical
        # path, so the task is charged two hops rather than two per probe
        round_trip = 2 * self.network.delays.delay_for(PROBE)
        run.communication += round_trip
        state = {"waiting": len(sample), "best": None}
        for worker in sample:
            self.network.send(done, PROBE, self._probe(run, worker, state))

    def _probe(self, run: TaskRun, worker: FifoWorker, state: dict):
        def deliver(now: float) -> None:
            estimate = worker.estimated_wait()
            self.network.send(now, PROBE_REPLY, self._reply(run, worker, estimate, state))
        return deliver

    def _reply(self, run: TaskRun, worker: FifoWorker, estimate: float, state: dict):
        def deliver(now: float) -> None:
            best = state["best"]
            if best is None or (estimate, worker.node_id) < (best[0], best[1].node_id):
                state["best"] = (estimate, worker)
            state["waiting"] -= 1
            if state["waiting"] == 0:
                chosen = state["best"][1]
                self.network.send(now, TASK_LAUNCH,
                                  lambda t: chosen.enqueue(run, t), run=run)
        return deliver
