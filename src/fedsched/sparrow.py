"""Probe-based baseline: sample d workers per task, enqueue at the shortest queue.

Each task triggers d probes to distinct workers chosen uniformly among those
satisfying its constraints: the workers `random.sample(eligible, d)` returns,
in its order, or every eligible worker when there are d or fewer.  Above
sample's set size (21 for d <= 5) the scheduler makes sample's own draw
inline: each of the d indices is `randrange(n)`, redrawn while it repeats an
earlier one, which leaves the generator where sample would.  `randrange(n)`
is itself `getrandbits(n.bit_length())` redrawn while it is n or more, and
the indices are drawn that way here.  Worker constraints never change, so
eligibility is computed once per distinct task constraint set when the
cluster is built: each scheduler is handed that map, with every list in
worker (node id) order.  The d probes of a round travel together, as one
delivery that carries the sampled workers in sample order; as it lands, each
worker answers with its estimated queue wait (sum of queued task durations
over slot count), and one reply carries the d (estimate, node id) answers
back.  The task is sent to the lowest estimate, ties broken by lower node
id.  Workers run a fixed number of slots and queue the rest FIFO, so
allocation time includes worker-side queuing -- the component the federated
design eliminates by validating before launch.
"""

from __future__ import annotations

import math
import random

from .core import TaskRequest
from .engine import (PROBE, PROBE_REPLY, TASK_LAUNCH, ActorClock, CostModel,
                     EventLoop, Network)
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
        self.scheduler_id = scheduler_id
        self.loop = loop
        self.network = network
        self.eligible = eligible  # constraint ids -> workers in node_id order
        self.costs = costs
        self.collector = collector
        self.probe_count = probe_count
        self.rng = random.Random(f"{seed}/probe/{scheduler_id}")
        # random.sample draws indices with rejection from a population larger
        # than its set size (21 for up to 5 picks); below it, call sample
        self.draw_above = 21 if probe_count <= 5 else math.inf
        self.clock = ActorClock()
        self.round_trip = network.delay[PROBE] + network.delay[PROBE_REPLY]

    def on_task_arrival(self, request: TaskRequest, now: float) -> None:
        run = TaskRun(request)
        _, done = self.clock.serve(run, now, self.costs.probe_handling)
        run.attempts += 1

        eligible = self.eligible[request.constraints]
        n = len(eligible)
        if n > self.draw_above:
            # random.sample's own draw for a population this large: each
            # index is randrange(n), that is getrandbits(n.bit_length())
            # redrawn while >= n, and it is redrawn while it repeats a pick
            getrandbits = self.rng.getrandbits
            bits = n.bit_length()
            picked = []
            for _ in range(self.probe_count):
                j = getrandbits(bits)
                while j >= n or j in picked:
                    j = getrandbits(bits)
                picked.append(j)
            sample = [eligible[j] for j in picked]
        elif n > self.probe_count:
            sample = self.rng.sample(eligible, self.probe_count)
        else:
            sample = eligible

        # probes fan out in parallel: one probe hop and one reply hop sit on
        # the critical path, however many workers are probed
        run.communication += self.round_trip
        self.network.send(done, PROBE, self._on_probe, (run, sample))

    def _on_probe(self, probe: tuple[TaskRun, list[FifoWorker]], now: float) -> None:
        """Each sampled worker answers with its wait estimate as the probes land."""
        run, sample = probe
        self.network.send(now, PROBE_REPLY, self._on_reply,
                          (run, [(worker.estimated_wait(), worker.node_id, worker)
                                 for worker in sample]))

    def _on_reply(self, reply: tuple[TaskRun, list[tuple[float, str, FifoWorker]]],
                  now: float) -> None:
        """Launch at the lowest (estimate, node id); node ids are distinct."""
        run, answers = reply
        self.network.send(now, TASK_LAUNCH, min(answers)[2].enqueue, run, run=run)
