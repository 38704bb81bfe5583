"""Global fair scheduling: per-user FIFO queues, shares, and preemption plans.

Each user owns one FIFO queue homed at exactly one GM and a share expressed as
a fraction of total data-center resources.  A GM serves its queues round-robin.
Preemption is a last resort: it runs only after both the internal-partition
scan and repartitioning fail, and only on behalf of a user still at or under
its share.  Victim users are considered in decreasing order of how far over
their share they appear in the deciding GM's view.  `plan_preemption` returns
(nodes_scanned, plan), appends its audit record to `audit` if that is a list,
and scans the view's partitions in their sorted key order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import ResourceVector
from .errors import ConfigurationError
from .metrics import TaskRun
from .state import ClusterView, ViewPartition

VIOLATION_METRIC_MAX = "max"


@dataclass
class UserQueue:
    """One user's FIFO request queue, owned by a single GM."""

    user_id: str
    share: tuple[float, ...]  # absolute units: fraction * total cluster capacity
    pending: deque[TaskRun] = field(default_factory=deque)
    consumed: ResourceVector | None = None  # authoritative at the owner GM

    def __post_init__(self) -> None:
        if self.consumed is None:
            self.consumed = ResourceVector.zeros(len(self.share))


class QueueSet:
    """The queues one GM owns, served round-robin."""

    def __init__(self, queues: list[UserQueue]) -> None:
        self.queues = queues
        self.by_user = {q.user_id: q for q in queues}
        self._cursor = 0

    def enqueue(self, run: TaskRun) -> None:
        queue = self.by_user.get(run.request.user_id)
        if queue is None:
            raise ConfigurationError(f"no queue for user {run.request.user_id!r}")
        queue.pending.append(run)

    # re-insertion at the tail is how rescheduling and fairness failures retry
    reinsert = enqueue

    def next_eligible(self, tried_version: int) -> TaskRun | None:
        """Pop the next round-robin queue head not yet tried at this view version."""
        n = len(self.queues)
        for offset in range(n):
            idx = (self._cursor + offset) % n
            queue = self.queues[idx]
            if not queue.pending:
                continue
            head = queue.pending[0]
            if head.tried_version == tried_version:
                continue
            queue.pending.popleft()
            self._cursor = (idx + 1) % n
            return head
        return None

    def add_consumed(self, user_id: str, demand: ResourceVector) -> None:
        queue = self.by_user[user_id]
        queue.consumed = queue.consumed + demand

    def sub_consumed(self, user_id: str, demand: ResourceVector) -> None:
        queue = self.by_user[user_id]
        queue.consumed = queue.consumed - demand


def metric_value(amounts, share: tuple[float, ...], metric: str) -> float:
    """Collapse a consumed/share comparison to one ratio.

    "cpu" compares dimension 0 only; "max" takes the worst ratio across
    dimensions.  A zero share with non-zero consumption is infinitely over.
    """
    ratios = []
    dims = range(len(share)) if metric == VIOLATION_METRIC_MAX else (0,)
    for i in dims:
        used = amounts[i]
        if share[i] <= 0.0:
            ratios.append(float("inf") if used > 0 else 0.0)
        else:
            ratios.append(used / share[i])
    return max(ratios)


def over_share(consumed: ResourceVector, share: tuple[float, ...], metric: str) -> bool:
    """Strictly over its share; consumption exactly at the share is allowed."""
    return metric_value(consumed, share, metric) > 1.0


@dataclass(frozen=True)
class PreemptPlan:
    """Kill `victim_ids` on the physical node `node_id`, at `ordinal` of the
    viewed `partition`; a physical node keeps its ordinal for good."""

    partition: ViewPartition
    node_id: str
    ordinal: int
    victim_user: str
    victim_ids: tuple[str, ...]


@dataclass(frozen=True)
class CandidateAudit:
    user_id: str
    viewed_consumed: tuple[int, ...]
    share: tuple[float, ...]
    ratio: float
    yielded_victims: bool


@dataclass(frozen=True)
class PreemptDecisionAudit:
    time: float
    gm_id: str
    task_id: str
    requester_user: str
    requester_consumed: tuple[int, ...]
    requester_share: tuple[float, ...]
    metric: str
    candidates: tuple[CandidateAudit, ...]
    chosen_user: str | None
    victim_ids: tuple[str, ...]
    node_id: str | None
    nodes_scanned: int = 0


def plan_preemption(
    view: ClusterView,
    run: TaskRun,
    queues: QueueSet,
    shares: dict[str, tuple[float, ...]],
    metric: str,
    now: float,
    gm_id: str,
    audit: list | None = None,
) -> tuple[int, PreemptPlan | None]:
    """Decide whether and whom to preempt for `run`, one of `queues`' requests.

    Returns (nodes_scanned, plan).  A requester already over its share gets no
    plan and scans nothing; its request goes back to the tail of its queue.
    plan is also None when no over-share user has victims that would free
    enough resources on a single eligible node.  When `audit` is a list, the
    decision's `PreemptDecisionAudit` is appended to it.
    """
    request = run.request
    own = queues.by_user
    requester = own[request.user_id]

    # rank other users by how far over their share the view says they are
    candidates: list[tuple[float, str, ResourceVector]] = []
    if not over_share(requester.consumed, requester.share, metric):
        for user_id, share in shares.items():
            if user_id == requester.user_id:
                continue
            queue = own.get(user_id)
            consumed = view.viewed_consumed(user_id) if queue is None else queue.consumed
            ratio = metric_value(consumed, share, metric)
            if ratio > 1.0:
                candidates.append((ratio, user_id, consumed))
        candidates.sort(key=lambda item: (-item[0], item[1]))

    audit_entries: list[CandidateAudit] = []
    plan: PreemptPlan | None = None
    scanned = 0
    for ratio, user_id, consumed in candidates:
        plan, checked = _victims_for_user(view, user_id, request.constraints, request.demand)
        scanned += checked
        if audit is not None:
            audit_entries.append(CandidateAudit(
                user_id=user_id, viewed_consumed=consumed.quantities,
                share=shares[user_id], ratio=ratio, yielded_victims=plan is not None,
            ))
        if plan is not None:
            break

    if audit is not None:
        audit.append(PreemptDecisionAudit(
            time=now, gm_id=gm_id, task_id=request.task_id,
            requester_user=requester.user_id,
            requester_consumed=requester.consumed.quantities,
            requester_share=requester.share, metric=metric,
            candidates=tuple(audit_entries),
            chosen_user=plan.victim_user if plan else None,
            victim_ids=plan.victim_ids if plan else (),
            node_id=plan.node_id if plan else None,
            nodes_scanned=scanned,
        ))
    return scanned, plan


def _victims_for_user(
    view: ClusterView,
    victim_user: str,
    constraints: frozenset[int],
    demand: ResourceVector,
) -> tuple[PreemptPlan | None, int]:
    """Find one node where killing this user's tasks frees enough for demand.

    Victims are taken most-recently-launched first and must cover the demand
    on a single node; tasks on different nodes are never combined.  Partitions
    are visited in the view's key order.  Returns (plan or None, nodes_scanned).
    """
    scanned = 0
    for part in view.partitions.values():
        for ordinal, node in enumerate(part.nodes):
            if node.is_logical:
                # killing a logical node's task returns capacity to its
                # parent, not to this node, so plan against physical nodes only
                continue
            owned = [info for info in node.running if info.user_id == victim_user]
            if not owned:
                continue
            scanned += 1
            if not part.node_satisfies(ordinal, constraints):
                continue
            freed = part.available(ordinal)
            owned.sort(key=lambda info: (-info.launch_time, info.task_id))
            victims: list[str] = []
            for info in owned:
                if freed.geq(demand):
                    break
                freed = freed + info.demand
                victims.append(info.task_id)
            if freed.geq(demand) and victims:
                return PreemptPlan(part, node.node_id, ordinal, victim_user,
                                   tuple(victims)), scanned
    return None, scanned
