"""Global master: schedules its users' requests against a stale cluster view.

A GM never blocks on a response.  It deducts a decision's demand from its own
view optimistically, fires the request at the responsible LM, and moves on to
the next queue head.  Every response merges the LM's authoritative snapshot.
A failed one (a state inconsistency, or stale victims) takes the one failure
path, `_failed`: the task is retried at once on the merged view, or, after
`retry_limit` consecutive failures, goes back to the tail of its queue.

The decision flow for one request (`_attempt`):
  1. first fit over the GM's own partition on each LM, the starting LM
     moving on by one per request -> launch request
  2. first fit over the other GMs' partitions, LM by LM, the starting LM
     moving on by one per search -> launch request on a node of another
     GM's partition, which the LM carves out (a repartition)
  3. fairness: a preemption plan -> preempt request, else reinsert at tail
`_act` charges a decision and launches, preempts or reinserts; a verified
preemption's launch and a re-plan after stale victims end there too.

A GM is built whole; its constructor lays out the two search orders, deques
of the view's `ViewPartition` objects, each rotated after a search to start at
the next LM (the view refreshes each partition in place).  A launch response
carries its task's run back; the one table, `_preempting`, holds the plans
awaiting a preempt response, as a plan's view partition cannot travel on the
wire.  The fairness step charges for `plan_preemption`'s nodes_scanned, a scan
of the view's partitions in sorted key order, and hands it the audit list only
when auditing is on.  A verified preemption launches on the plan's node.
"""

from __future__ import annotations

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

_new = tuple.__new__  # a record from its fields in order, filled in C


class GlobalMaster:
    def __init__(
        self,
        gm_id: str,
        loop: EventLoop,
        network: Network,
        costs: CostModel,
        collector: MetricsCollector,
        view: ClusterView,
        queues: QueueSet,
        lms: list,
        shares: dict[str, tuple[float, ...]],
        *,
        retry_limit: int = 5,
        violation_metric: str = "cpu",
    ) -> None:
        """`shares` holds every user's share, this GM's users' and the others'."""
        self.gm_id = gm_id
        self.loop = loop
        self.network = network
        self.costs = costs
        self.collector = collector
        self.view = view
        self.queues = queues
        self.shares = shares
        self.retry_limit = retry_limit
        self.violation_metric = violation_metric
        self.clock = ActorClock()
        # the two search orders, each rotated to start at its next LM: this GM's
        # partition on each LM, then the other GMs' partitions, LM by LM
        self.own: deque[ViewPartition] = deque()
        self.others: deque[ViewPartition] = deque()
        for lm in lms:
            parts = [view.partitions[(lm.lm_id, pid)] for pid in sorted(lm.partitions)]
            mine = [part for part in parts if part.owner_gm_id == gm_id]
            if len(mine) != 1:
                raise ConfigurationError(f"GM {gm_id} must own exactly one partition "
                                         f"on {lm.lm_id}, found {len(mine)}")
            self.own.extend(mine)
            self.others.extend(part for part in parts if part.owner_gm_id != gm_id)
        self._lm_by_id = {lm.lm_id: lm for lm in lms}
        self.view_version = 0
        self._tick_pending = False
        self._preempting: dict[str, tuple[TaskRun, PreemptPlan]] = {}

    # -- arrivals and the scheduling loop -------------------------------------

    def on_task_arrival(self, request: TaskRequest, now: float) -> None:
        run = TaskRun(request)
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
        """Run one full decision pass for a request; every pass counts an attempt."""
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
        run.attempts += 1
        self._act(run, start, cost, part, ordinal, plan)

    def _act(self, run: TaskRun, start: float, cost: float, part: ViewPartition | None,
             ordinal: int | None, plan: PreemptPlan | None) -> None:
        """Charge a decision's `cost` to the GM and the task, then launch on
        `part`'s node at `ordinal`, else preempt by `plan`, else reinsert."""
        done = self.clock.charge(start, cost)
        run.processing += cost
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

    def _failed(self, run: TaskRun, at: float) -> bool:
        """Count a failure: True to retry at once, False if requeued at the limit."""
        run.consecutive_failures += 1
        if run.consecutive_failures < self.retry_limit:
            return True
        self._reinsert(run, at)
        self._kick(at)
        return False

    # -- responses --------------------------------------------------------------

    def _merge(self, state: LMStateSnapshot) -> float:
        """Merge a piggybacked state into the view; returns the simulated merge cost."""
        if self.view.merge_partitions(state.lm_id, state.timestamp, state.partitions,
                                      state.user_consumed):
            self.view_version += 1
        return state.node_count * self.costs.gm_merge_per_node

    def on_launch_response(self, response: LaunchResponse, now: float) -> None:
        run = response.run
        merge_cost = self._merge(response.state)
        if response.ok:
            # the task has started: the merge busies the GM, not the task
            done = self.clock.charge(self.clock.begin(now), merge_cost)
            self.queues.add_consumed(run.request.user_id, run.request.demand)
            run.consecutive_failures = 0
            self._kick(done)
            return
        # validation failed: the view was stale; retry on the merged state
        _, mid = self.clock.serve(run, now, merge_cost)
        if self._failed(run, mid):
            self._attempt(run, mid)

    def on_preempt_response(self, response: PreemptResponse, now: float) -> None:
        run, plan = self._preempting.pop(response.task_id)
        _, mid = self.clock.serve(run, now, self._merge(response.state))
        part, ordinal = plan.partition, plan.ordinal
        # a plan names a physical node, whose ordinal and constraint bits never change
        if response.verified and part.available(ordinal).geq(run.request.demand):
            run.attempts += 1
            self._act(run, mid, self.costs.gm_request_overhead, part, ordinal, None)
        elif self._failed(run, mid):
            # stale victims (or the freed node was grabbed): plan again
            cost, plan = self._plan(run, mid)
            if plan is not None:
                run.attempts += 1
            self._act(run, mid, cost, None, None, plan)

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
