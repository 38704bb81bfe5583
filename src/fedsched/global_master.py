"""Global master: schedules its users' requests against a stale cluster view.

A GM never blocks on a response.  It deducts a decision's demand from its own
view optimistically, fires the request at the responsible LM, and moves on to
the next queue head.  Failure responses (state inconsistencies) merge the
LM's authoritative snapshot and retry the task immediately; after a run of
consecutive failures the task goes back to the tail of its queue.

The decision flow for one request (`_attempt`):
  1. first fit over the GM's own partition on each LM, the starting LM
     moving on by one per request -> launch request
  2. first fit over the other GMs' partitions, LM by LM, the starting LM
     moving on by one per search -> launch request on a node of another
     GM's partition, which the LM carves out (a repartition)
  3. fairness: a preemption plan -> preempt request, else reinsert at tail
Each search walks one deque of the view's `ViewPartition` objects, built once
in `seed` and rotated after the search so that it starts at the next LM: the
view refreshes each partition in place, so the deques stay current.  The
fairness step charges for the nodes_scanned of `plan_preemption`'s
(nodes_scanned, plan), a scan of the view's partitions in sorted key order,
and hands it the collector's audit list only when auditing is on.  A verified
preemption launches on the plan's physical node, by partition and ordinal.
"""

from __future__ import annotations

import logging
from collections import deque

from .core import TaskRequest
from .engine import (LAUNCH_REQUEST, PREEMPT_REQUEST, REPARTITION_REQUEST,
                     ActorClock, CostModel, EventLoop, Network)
from .errors import ConfigurationError
from .fairness import PreemptPlan, QueueSet, plan_preemption
from .messages import (LaunchRequest, LaunchResponse, PreemptRequest, PreemptResponse,
                       TaskCompletion, TaskPreempted)
from .metrics import MetricsCollector, TaskRun
from .state import ClusterView, LMStateSnapshot, ViewPartition

log = logging.getLogger(__name__)

_new = tuple.__new__  # a record from its fields in order, filled in C


class GlobalMaster:
    def __init__(
        self,
        gm_id: str,
        loop: EventLoop,
        network: Network,
        costs: CostModel,
        collector: MetricsCollector,
        *,
        retry_limit: int = 5,
        violation_metric: str = "cpu",
    ) -> None:
        self.gm_id = gm_id
        self.loop = loop
        self.network = network
        self.costs = costs
        self.collector = collector
        self.retry_limit = retry_limit
        self.violation_metric = violation_metric
        self.clock = ActorClock()
        self.view: ClusterView | None = None
        self.queues: QueueSet | None = None
        self.shares: dict[str, tuple[float, ...]] = {}
        # the two search orders, each rotated to start at its next LM: this GM's
        # partition on each LM, then the other GMs' partitions, LM by LM
        self.own: deque[ViewPartition] = deque()
        self.others: deque[ViewPartition] = deque()
        self.view_version = 0
        self._tick_pending = False
        self._inflight: dict[str, TaskRun] = {}
        self._preempting: dict[str, tuple[TaskRun, PreemptPlan]] = {}

    # -- wiring --------------------------------------------------------------

    def seed(self, view: ClusterView, queues: QueueSet, lms: list,
             shares: dict[str, tuple[float, ...]]) -> None:
        """Attach the initial view, owned queues, LM handles, and all shares."""
        self.view = view
        self.queues = queues
        self.shares = shares
        self.own, self.others = own, others = deque(), deque()
        for lm in lms:
            parts = [view.partitions[(lm.lm_id, pid)] for pid in sorted(lm.partitions)]
            mine = [part for part in parts if part.owner_gm_id == self.gm_id]
            if len(mine) != 1:
                raise ConfigurationError(
                    f"GM {self.gm_id} must own exactly one partition on {lm.lm_id}, "
                    f"found {len(mine)}"
                )
            own.extend(mine)
            others.extend(part for part in parts if part.owner_gm_id != self.gm_id)
        self._lm_by_id = {lm.lm_id: lm for lm in lms}

    # -- arrivals and the scheduling loop -------------------------------------

    def on_task_arrival(self, request: TaskRequest, now: float) -> None:
        run = TaskRun(request)
        run.queued_since = now
        self.queues.enqueue(run)
        self._kick(now)

    def _kick(self, at: float) -> None:
        if not self._tick_pending:
            self._tick_pending = True
            self.loop.schedule(at, GlobalMaster._tick, self)

    def _tick(self, now: float) -> None:
        self._tick_pending = False
        run = self.queues.next_eligible(self.view_version)
        if run is None:
            return
        start = self.clock.begin(now)
        run.framework_queuing += start - run.queued_since
        self._attempt(run, start)

    # -- the decision flow -----------------------------------------------------

    def _attempt(self, run: TaskRun, start: float) -> None:
        """Run one full decision pass for a request, charging simulated time."""
        request, own, others = run.request, self.own, self.others
        cost, part, ordinal = self._first_fit(self.costs.gm_request_overhead, request, own)
        own.rotate(-1)
        if part is None:
            cost, part, ordinal = self._first_fit(cost, request, others)
            others.rotate(-(len(others) // len(own)))  # one LM's group: gm_count - 1
        plan = None
        if part is None:
            # fairness: preempt only under contention, never for an over-share user
            plan_cost, plan = self._plan(run, start)
            cost += plan_cost

        done = self.clock.charge(start, cost)
        run.processing += cost
        run.attempts += 1
        if part is not None:
            self._request_launch(run, part, ordinal, done)
        elif plan is not None:
            self._request_preempt(run, plan, done)
        else:
            self._reinsert(run, done)
        self._kick(done)

    def _first_fit(self, cost: float, request: TaskRequest, parts: deque[ViewPartition]
                   ) -> tuple[float, ViewPartition | None, int | None]:
        """The first partition in `parts` with a fitting node, and that node's
        ordinal, or None; `cost` plus the charge for every partition searched."""
        constraints, demand = request.constraints, request.demand
        word_op, node_check = self.costs.gm_word_op, self.costs.gm_node_check
        for part in parts:
            ordinal, word_ops, checked = part.match(constraints, demand)
            cost += word_ops * word_op + checked * node_check
            if ordinal is not None:
                return cost, part, ordinal
        return cost, None, None

    def _plan(self, run: TaskRun, at: float) -> tuple[float, PreemptPlan | None]:
        """The fairness step: (scan cost, a preemption plan or None)."""
        collector = self.collector
        scanned, plan = plan_preemption(
            self.view, run, self.queues, self.shares, self.violation_metric, at,
            self.gm_id, audit=collector.audit_preemptions if collector.audit else None,
        )
        return scanned * self.costs.gm_node_check, plan

    def _request_launch(self, run: TaskRun, part: ViewPartition, ordinal: int,
                        done: float) -> None:
        """Deduct from the view and ask the LM to launch on the node; on another
        GM's partition the request is a carve-out of that node."""
        request = run.request
        message = _new(LaunchRequest, (self.gm_id, request.task_id,
                                       part.nodes[ordinal].node_id, request.demand,
                                       request.constraints, run))
        part.deduct(ordinal, request.demand)
        lm = self._lm_by_id[part.lm_id]
        self._inflight[request.task_id] = run
        if part.owner_gm_id == self.gm_id:
            kind, handler = LAUNCH_REQUEST, lm.on_launch_request
        else:
            kind, handler = REPARTITION_REQUEST, lm.on_repartition_request
        self.network.send(done, kind, handler, message, run=run)

    def _request_preempt(self, run: TaskRun, plan: PreemptPlan, done: float) -> None:
        request = run.request
        lm = self._lm_by_id[plan.partition.lm_id]
        self._preempting[request.task_id] = (run, plan)
        self.collector.bump("preempt_attempts")
        message = _new(PreemptRequest, (self.gm_id, request.task_id, plan.node_id,
                                        plan.victim_ids, request.demand, run))
        self.network.send(done, PREEMPT_REQUEST, lm.on_preempt_request, message, run=run)

    def _reinsert(self, run: TaskRun, at: float) -> None:
        """Rescheduling: back to the tail of the task's own queue."""
        run.tried_version = self.view_version
        run.queued_since = at
        run.consecutive_failures = 0
        self.queues.reinsert(run)
        self.collector.bump("reschedules")

    # -- responses --------------------------------------------------------------

    def _merge(self, state: LMStateSnapshot) -> float:
        """Merge a piggybacked state into the view; returns the simulated merge cost."""
        if self.view.merge_partitions(state.lm_id, state.timestamp, state.partitions,
                                      state.user_consumed):
            self.view_version += 1
        return state.node_count * self.costs.gm_merge_per_node

    def on_launch_response(self, response: LaunchResponse, now: float) -> None:
        run = self._inflight.pop(response.task_id, None)
        if run is None:
            log.warning("GM %s: dropping orphan response for task %s",
                        self.gm_id, response.task_id)
            return
        start = self.clock.begin(now)
        merge_cost = self._merge(response.state)

        if response.ok:
            done = self.clock.charge(start, merge_cost)
            self.queues.add_consumed(run.request.user_id, run.request.demand)
            run.consecutive_failures = 0
            self._kick(done)
            return

        # validation failed: the view was stale; retry immediately on merged state
        run.framework_queuing += start - now
        run.processing += merge_cost
        mid = self.clock.charge(start, merge_cost)
        run.consecutive_failures += 1
        if run.consecutive_failures >= self.retry_limit:
            self._reinsert(run, mid)
            self._kick(mid)
        else:
            self._attempt(run, mid)

    def on_preempt_response(self, response: PreemptResponse, now: float) -> None:
        entry = self._preempting.pop(response.task_id, None)
        if entry is None:
            log.warning("GM %s: dropping orphan preempt response for task %s",
                        self.gm_id, response.task_id)
            return
        run, plan = entry
        request = run.request
        start = self.clock.begin(now)
        run.framework_queuing += start - now
        merge_cost = self._merge(response.state)
        run.processing += merge_cost
        mid = self.clock.charge(start, merge_cost)

        part, ordinal = plan.partition, plan.ordinal
        # a plan names a physical node, whose ordinal and constraint bits never change
        if (all(s.verified for s in response.statuses)
                and part.available(ordinal).geq(request.demand)):
            cost = self.costs.gm_request_overhead
            done = self.clock.charge(mid, cost)
            run.processing += cost
            run.attempts += 1
            self._request_launch(run, part, ordinal, done)
            self._kick(done)
            return

        # stale victims (or the freed node was grabbed): repeat victim selection
        run.consecutive_failures += 1
        if run.consecutive_failures >= self.retry_limit:
            self._reinsert(run, mid)
            self._kick(mid)
            return
        cost, plan = self._plan(run, mid)
        done = self.clock.charge(mid, cost)
        run.processing += cost
        if plan is not None:
            run.attempts += 1
            self._request_preempt(run, plan, done)
        else:
            self._reinsert(run, done)
        self._kick(done)

    # -- notifications ------------------------------------------------------------

    def on_heartbeat(self, state: LMStateSnapshot, now: float) -> None:
        start = self.clock.begin(now)
        done = self.clock.charge(start, state.node_count * self.costs.gm_merge_per_node)
        if self.view.apply_heartbeat(state):
            self.view_version += 1
        self._kick(done)

    def on_task_completion(self, message: TaskCompletion, now: float) -> None:
        start = self.clock.begin(now)
        done = self.clock.charge(start, self._merge(message.state))
        self.queues.sub_consumed(message.user_id, message.demand)
        self._kick(done)

    def on_task_preempted(self, message: TaskPreempted, now: float) -> None:
        """One of this GM's running tasks was killed; requeue it from scratch."""
        start = self.clock.begin(now)
        done = self.clock.charge(start, self._merge(message.state))
        self.queues.sub_consumed(message.user_id, message.demand)
        run = message.run
        run.consecutive_failures = 0
        run.tried_version = -1
        run.queued_since = done
        self.queues.reinsert(run)
        self._kick(done)
