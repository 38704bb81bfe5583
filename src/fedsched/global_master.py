"""Global master: schedules its users' requests against a stale cluster view.

A GM never blocks on a response.  It deducts a decision's demand from its own
view optimistically, fires the request at the responsible LM, and moves on to
the next queue head.  Failure responses (state inconsistencies) merge the
LM's authoritative snapshot and retry the task immediately; after a run of
consecutive failures the task goes back to the tail of its queue.

The decision flow for one request:
  1. internal partitions, round-robin starting position, bitmap match
  2. other GMs' partitions (round-robin over LMs) -> repartition request
  3. fairness: preempt a task of an over-share user, else reinsert at tail
"""

from __future__ import annotations

import logging

from .core import ResourceVector
from .engine import (LAUNCH_REQUEST, PREEMPT_REQUEST, REPARTITION_REQUEST,
                     ActorClock, CostModel, EventLoop, Network)
from .errors import ConfigurationError
from .fairness import (GUARD_FAILURE, PreemptPlan, QueueSet, plan_preemption)
from .messages import (LaunchRequest, LaunchResponse, PreemptRequest, PreemptResponse,
                       RepartitionRequest, TaskCompletion, TaskPreempted)
from .metrics import MetricsCollector, TaskRun
from .state import ClusterView, LMStateSnapshot

log = logging.getLogger(__name__)


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
        self.lm_ids: list[str] = []
        self.internal: list[tuple[str, str]] = []
        self.external: dict[str, list[str]] = {}
        self.rr_internal = 0
        self.rr_external = 0
        self.view_version = 0
        self._tick_pending = False
        self._inflight: dict[str, TaskRun] = {}

    # -- wiring --------------------------------------------------------------

    def seed(self, view: ClusterView, queues: QueueSet, lms: list,
             shares: dict[str, tuple[float, ...]]) -> None:
        """Attach the initial view, owned queues, LM handles, and all shares."""
        self.view = view
        self.queues = queues
        self.shares = shares
        self.lm_ids = [lm.lm_id for lm in lms]
        self.internal = []
        self.external = {}
        for lm in lms:
            mine = [pid for pid, part in sorted(lm.partitions.items())
                    if part.owner_gm_id == self.gm_id]
            if len(mine) != 1:
                raise ConfigurationError(
                    f"GM {self.gm_id} must own exactly one partition on {lm.lm_id}, "
                    f"found {len(mine)}"
                )
            self.internal.append((lm.lm_id, mine[0]))
            self.external[lm.lm_id] = [pid for pid, part in sorted(lm.partitions.items())
                                       if part.owner_gm_id != self.gm_id]
        self._lm_by_id = {lm.lm_id: lm for lm in lms}

    # -- arrivals and the scheduling loop -------------------------------------

    def on_task_arrival(self, run: TaskRun, now: float) -> None:
        run.queued_since = now
        self.queues.enqueue(run)
        self._kick(now)

    def _kick(self, at: float) -> None:
        if not self._tick_pending:
            self._tick_pending = True
            self.loop.schedule(at, self._tick)

    def _tick(self, now: float) -> None:
        self._tick_pending = False
        run = self.queues.next_eligible(self.view_version)
        if run is None:
            return
        start = self.clock.begin(now)
        run.metrics.add_framework_queuing(start - run.queued_since)
        self._attempt(run, start)

    # -- the decision flow -----------------------------------------------------

    def _attempt(self, run: TaskRun, start: float) -> None:
        """Run one full decision pass for a request, charging simulated time."""
        request = run.request
        cost = self.costs.gm_request_overhead
        action = None

        # 1: own partitions, starting position rotates per request
        n = len(self.internal)
        first = self.rr_internal
        self.rr_internal = (self.rr_internal + 1) % n
        for i in range(n):
            lm_id, pid = self.internal[(first + i) % n]
            part = self.view.partitions[(lm_id, pid)]
            ordinal, word_ops, checked = part.match(request.constraints, request.demand)
            cost += word_ops * self.costs.gm_word_op + checked * self.costs.gm_node_check
            if ordinal is not None:
                action = ("launch", lm_id, pid, ordinal)
                break

        # 2: everyone else's partitions -> repartition
        if action is None:
            lm_count = len(self.lm_ids)
            first_lm = self.rr_external
            self.rr_external = (self.rr_external + 1) % lm_count
            for i in range(lm_count):
                lm_id = self.lm_ids[(first_lm + i) % lm_count]
                for pid in self.external[lm_id]:
                    part = self.view.partitions[(lm_id, pid)]
                    ordinal, word_ops, checked = part.match(request.constraints, request.demand)
                    cost += word_ops * self.costs.gm_word_op + checked * self.costs.gm_node_check
                    if ordinal is not None:
                        action = ("repartition", lm_id, pid, ordinal)
                        break
                if action is not None:
                    break

        # 3: fairness — preempt only under contention, never for an over-share user
        if action is None:
            plan_cost, action = self._plan(run, start)
            cost += plan_cost

        done = self.clock.charge(start, cost)
        run.metrics.add_processing(cost)
        run.metrics.attempts += 1
        self._dispatch(run, action, done)
        self._kick(done)

    def _plan(self, run: TaskRun, at: float) -> tuple[float, tuple]:
        """The fairness step: (scan cost, a "preempt" or "reinsert" action)."""
        guard, plan, audit = plan_preemption(
            self.view, run, self.queues.by_user[run.request.user_id], self.shares,
            self.queues.by_user, self.violation_metric, at, self.gm_id,
        )
        if self.collector.audit:
            self.collector.audit_preemptions.append(audit)
        cost = audit.nodes_scanned * self.costs.gm_node_check
        if guard == GUARD_FAILURE or plan is None:
            return cost, ("reinsert",)
        return cost, ("preempt", plan)

    def _dispatch(self, run: TaskRun, action: tuple, done: float) -> None:
        request = run.request
        kind = action[0]
        if kind == "launch" or kind == "repartition":
            _, lm_id, pid, ordinal = action
            part = self.view.partitions[(lm_id, pid)]
            node_id = part.nodes[ordinal].node_id
            part.deduct(ordinal, request.demand)
            lm = self._lm_by_id[lm_id]
            self._inflight[request.task_id] = run
            if kind == "launch":
                message = LaunchRequest(
                    gm_id=self.gm_id, task_id=request.task_id, node_id=node_id,
                    demand=request.demand, constraints=request.constraints, run=run,
                )
                self.network.send(done, LAUNCH_REQUEST,
                                  lambda t: lm.on_launch_request(message, t),
                                  metrics=run.metrics)
            else:
                message = RepartitionRequest(
                    gm_id=self.gm_id, task_id=request.task_id, source_node_id=node_id,
                    demand=request.demand, constraints=request.constraints, run=run,
                )
                self.network.send(done, REPARTITION_REQUEST,
                                  lambda t: lm.on_repartition_request(message, t),
                                  metrics=run.metrics)
        elif kind == "preempt":
            plan: PreemptPlan = action[1]
            lm = self._lm_by_id[plan.lm_id]
            self._inflight[request.task_id] = run
            self.collector.bump("preempt_attempts")
            message = PreemptRequest(
                gm_id=self.gm_id, task_id=request.task_id, node_id=plan.node_id,
                victim_ids=plan.victim_ids, demand=request.demand, run=run,
            )
            self.network.send(done, PREEMPT_REQUEST,
                              lambda t: lm.on_preempt_request(message, t),
                              metrics=run.metrics)
        elif kind == "reinsert":
            self._reinsert(run, done)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown action {kind!r}")

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
        run.metrics.add_framework_queuing(start - now)
        run.metrics.add_processing(merge_cost)
        mid = self.clock.charge(start, merge_cost)
        run.consecutive_failures += 1
        if run.consecutive_failures >= self.retry_limit:
            self._reinsert(run, mid)
            self._kick(mid)
        else:
            self._attempt(run, mid)

    def on_preempt_response(self, response: PreemptResponse, now: float) -> None:
        run = self._inflight.pop(response.task_id, None)
        if run is None:
            log.warning("GM %s: dropping orphan preempt response for task %s",
                        self.gm_id, response.task_id)
            return
        request = run.request
        start = self.clock.begin(now)
        run.metrics.add_framework_queuing(start - now)
        merge_cost = self._merge(response.state)
        run.metrics.add_processing(merge_cost)
        mid = self.clock.charge(start, merge_cost)

        lm_id = response.state.lm_id
        all_verified = all(s.verified for s in response.statuses)
        target = self._locate(lm_id, response.node_id)
        fits = False
        if target is not None:
            pid, ordinal = target
            part = self.view.partitions[(lm_id, pid)]
            fits = (part.available[ordinal].geq(request.demand)
                    and part.node_satisfies(ordinal, request.constraints))

        if all_verified and fits:
            kind = "launch" if part.owner_gm_id == self.gm_id else "repartition"
            cost = self.costs.gm_request_overhead
            done = self.clock.charge(mid, cost)
            run.metrics.add_processing(cost)
            run.metrics.attempts += 1
            self._dispatch(run, (kind, lm_id, pid, ordinal), done)
            self._kick(done)
            return

        # stale victims (or the freed node was grabbed): repeat victim selection
        run.consecutive_failures += 1
        if run.consecutive_failures >= self.retry_limit:
            self._reinsert(run, mid)
            self._kick(mid)
            return
        cost, action = self._plan(run, mid)
        done = self.clock.charge(mid, cost)
        run.metrics.add_processing(cost)
        if action[0] == "preempt":
            run.metrics.attempts += 1
        self._dispatch(run, action, done)
        self._kick(done)

    def _locate(self, lm_id: str, node_id: str) -> tuple[str, int] | None:
        """Find a node's (partition, ordinal) in the current view by id."""
        for (vlm, pid), part in self.view.partitions.items():
            if vlm != lm_id:
                continue
            for ordinal, node in enumerate(part.nodes):
                if node.node_id == node_id:
                    return pid, ordinal
        return None

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
