"""Local master: authoritative owner of one cluster's workers.

Every launch, repartition, and preemption is validated against true current
state here, no matter what view the requesting GM acted on.  Every message to
a GM carries one `LMStateSnapshot`, built by `_state`: failure responses carry
the full state so the requester can correct its view immediately, success
responses and notifications just the partitions that changed, and a periodic
heartbeat pushes the full state to every GM, in one delivery per round.

Snapshot state is kept incrementally rather than rebuilt per message: each
`Partition`, built by `add_partition` from its members, keeps its
`NodeSnapshot`s in ordinal order and its change log (see `core.Partition`),
and holds the one copy of each node's availability.  A node's state has one
read and one write, and only they and `Partition` handle ordinals:
`available(node)` reads it, and `_publish(node, available, ...)` builds the
node's new entry on a launch, a release or a carve-out, adding or removing
the one `RunningTaskInfo` it concerns, and has `Partition.replace` write it
and log its ordinal.  A carve-out appends a logical node with
`Partition.append_node` and its destruction drops it with `remove_node`.  A
message carries the list as a tuple (O(n), but a C-level copy: about 0.4 µs
at 150 nodes on a 2-vCPU Xeon under Python 3.11), so untouched nodes keep
their `NodeSnapshot` objects, and the log itself with its current length, so a
GM view re-reads only the ordinals logged since the version it holds.

A running task holds the GM that launched it, `rt.gm`, which gets its
completion or preempted note; a response goes to the GM that asked.
`_release` both stops tracking a finished or killed task and frees it.

Per-user consumption is copy-on-write: `_launch` and `_release` replace
`consumed` with an updated copy and never mutate a map that has been sent,
so `_state` ships the current map by reference, as it ships the log, and a
GM keeps it as received.  `_state` also fills in the snapshot's node count
once.  The records on this path (`NodeSnapshot`, `PartitionSnapshot`,
`LMStateSnapshot`, `RunningTaskInfo` and the messages) are built positionally
with `tuple.__new__`, in their field order, past the generated keyword
`__new__`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .core import Partition, ResourceVector, WorkerNode, constraint_bits
from .engine import (HEARTBEAT, LAUNCH_RESPONSE, PREEMPT_RESPONSE, TASK_COMPLETION,
                     TASK_LAUNCH, TASK_PREEMPTED, ActorClock, CostModel, EventLoop,
                     Network)
from .messages import (LaunchRequest, LaunchResponse, PreemptRequest, PreemptResponse,
                       TaskCompletion, TaskPreempted)
from .metrics import MetricsCollector, TaskRun
from .state import LMStateSnapshot, NodeSnapshot, PartitionSnapshot, RunningTaskInfo
from .worker import start_task

_TASK_ID = attrgetter("task_id")
_new = tuple.__new__  # a record from its fields in order, filled in C


def _snapshot(node: WorkerNode, available: ResourceVector,
              running: tuple[RunningTaskInfo, ...] = ()) -> NodeSnapshot:
    return _new(NodeSnapshot, (node.node_id, available, node.is_logical,
                               node.parent_node, running))


@dataclass
class RunningTask:
    run: TaskRun
    node_id: str
    gm: object  # the GlobalMaster that launched it: its notes go there
    # as published, set once the payload is sent: launch_time is when it lands
    info: RunningTaskInfo | None = None


class LocalMaster:
    def __init__(
        self,
        lm_id: str,
        loop: EventLoop,
        network: Network,
        costs: CostModel,
        collector: MetricsCollector,
        *,
        heartbeat_period: float = 10.0,
    ) -> None:
        self.lm_id = lm_id
        self.loop = loop
        self.network = network
        self.costs = costs
        self.collector = collector
        self.heartbeat_period = heartbeat_period
        self.clock = ActorClock()
        self.nodes: dict[str, WorkerNode] = {}
        self.partitions: dict[str, Partition] = {}
        self.partition_by_owner: dict[str, Partition] = {}
        self.running: dict[str, RunningTask] = {}
        # user -> demand of the user's running tasks; replaced, never mutated
        self.consumed: dict[str, ResourceVector] = {}
        # GlobalMaster handles by id, in wiring order, wired by the experiment builder
        self.gms: dict = {}
        self._logical_seq = 0

    # -- construction ------------------------------------------------------

    def add_partition(self, partition_id: str, owner_gm_id: str,
                      members: list[WorkerNode], constraint_count: int) -> None:
        """Give `owner_gm_id` a partition of the members, in member order, all free."""
        for node in members:
            node.partition_id = partition_id
            self.nodes[node.node_id] = node
        self.partitions[partition_id] = self.partition_by_owner[owner_gm_id] = Partition(
            partition_id, owner_gm_id,
            {node.node_id: o for o, node in enumerate(members)},
            constraint_bits(constraint_count, [n.machine_constraints for n in members]),
            [_snapshot(node, node.capacity) for node in members])

    def wire_gms(self, gms: list) -> None:
        self.gms = {gm.gm_id: gm for gm in gms}

    def start_heartbeats(self) -> None:
        if self.gms and self.collector.outstanding > 0:
            self.loop.schedule(self.heartbeat_period, LocalMaster._heartbeat, self)

    # -- snapshots ----------------------------------------------------------

    def available(self, node: WorkerNode) -> ResourceVector:
        """The node's availability, as its published snapshot holds it."""
        partition = self.partitions[node.partition_id]
        return partition.nodes[partition.node_ids[node.node_id]].available

    def _publish(self, node: WorkerNode, available: ResourceVector, *,
                 add: RunningTaskInfo | None = None,
                 remove: RunningTaskInfo | None = None) -> None:
        """The node changed: publish its new entry, with the running task
        added or removed."""
        partition = self.partitions[node.partition_id]
        ordinal = partition.node_ids[node.node_id]
        running = partition.nodes[ordinal].running
        if remove is not None:
            running = tuple(info for info in running if info is not remove)
        if add is not None:
            running = tuple(sorted((*running, add), key=_TASK_ID))
        partition.replace(ordinal, _snapshot(node, available, running))

    def partition_snapshot(self, partition_id: str) -> PartitionSnapshot:
        partition = self.partitions[partition_id]
        log = partition.log
        return _new(PartitionSnapshot, (
            partition_id,
            self.lm_id,
            partition.owner_gm_id,
            tuple(partition.nodes),
            partition.bits,
            log,
            len(log),
        ))

    def snapshot(self, timestamp: float) -> LMStateSnapshot:
        """Full state: every partition of this LM."""
        return self._state(timestamp, sorted(self.partitions))

    def _state(self, timestamp: float, partition_ids) -> LMStateSnapshot:
        """The named partitions (each once, in first-named order), their node
        count and user consumption, the current map itself."""
        parts = tuple(map(self.partition_snapshot, dict.fromkeys(partition_ids)))
        count = 0
        for part in parts:
            count += len(part.nodes)
        return _new(LMStateSnapshot, (self.lm_id, timestamp, parts, self.consumed, count))

    # -- heartbeat ----------------------------------------------------------

    def _heartbeat(self, now: float) -> None:
        start = self.clock.begin(now)
        cost = self.costs.lm_heartbeat_per_node * len(self.nodes)
        done = self.clock.charge(start, cost)
        self.network.send(done, HEARTBEAT, self._deliver_heartbeat, self.snapshot(done))
        self.collector.bump("heartbeats")
        if self.collector.outstanding > 0:
            # fixed cadence from the period, independent of processing time
            self.loop.schedule(now + self.heartbeat_period, LocalMaster._heartbeat, self)

    def _deliver_heartbeat(self, state: LMStateSnapshot, now: float) -> None:
        """The round's one delivery: every GM takes the state, in wiring order.

        One message per GM would take consecutive seqs at one time, so no
        event could sort between them; one delivery dispatches the same
        handlers in the same order.
        """
        for gm in self.gms.values():
            gm.on_heartbeat(state, now)

    # -- launch -------------------------------------------------------------

    def _fits(self, node: WorkerNode | None, req: LaunchRequest) -> bool:
        """Whether the node exists, carries the task's constraints and has its demand."""
        return (node is not None and node.machine_constraints >= req.constraints
                and self.available(node).geq(req.demand))

    def on_launch_request(self, req: LaunchRequest, now: float) -> None:
        _, done = self.clock.serve(req.run, now, self.costs.lm_validate)
        node = self.nodes.get(req.node_id)
        ok = (self._fits(node, req)
              and self.partitions[node.partition_id].owner_gm_id == req.gm_id)
        self._audit(req, "launch", node, ok, done)

        if ok:
            self._launch(req.run, node, self.gms[req.gm_id], done)
            self._respond_launch(req, "launch", node.node_id,
                                 self._state(done, (node.partition_id,)))
        else:
            self._respond_launch(req, "launch", None, self.snapshot(done))

    def _audit(self, req: LaunchRequest, kind: str, node: WorkerNode | None, ok: bool,
               done: float) -> None:
        """Record a launch or repartition validation when auditing is on."""
        if not self.collector.audit:
            return
        self.collector.audit_launches.append({
            "time": done, "lm_id": self.lm_id, "gm_id": req.gm_id,
            "task_id": req.task_id, "node_id": req.node_id, "kind": kind,
            "ok": ok,
            "available_before": self.available(node).quantities if node else None,
            "demand": req.demand.quantities,
            "machine_constraints": tuple(sorted(node.machine_constraints)) if node else None,
            "task_constraints": tuple(sorted(req.constraints)),
        })

    def _launch(self, run: TaskRun, node: WorkerNode, gm, done: float) -> None:
        request = run.request
        rt = self.running[request.task_id] = RunningTask(run, node.node_id, gm)
        user, demand = request.user_id, request.demand
        rt.info = info = _new(RunningTaskInfo, (
            request.task_id, user, demand,
            self.network.send(done, TASK_LAUNCH, self._begin_execution, rt, run=run)))
        self._publish(node, self.available(node) - demand, add=info)
        consumed = self.consumed  # may have been sent: replace it, never mutate it
        have = consumed.get(user)
        self.consumed = {**consumed, user: demand if have is None else have + demand}

    def _begin_execution(self, rt: RunningTask, now: float) -> None:
        # every launch makes a new RunningTask, so a preempted launch's is gone
        if self.running.get(rt.info.task_id) is not rt:
            return  # preempted before the payload landed
        self.collector.finalize(rt.run, now)
        start_task(self.loop, rt.run, now, self._on_task_complete, rt)

    def _respond_launch(self, req: LaunchRequest, kind: str,
                        node_id: str | None, state: LMStateSnapshot) -> None:
        """Answer a launch or repartition request; `node_id` None means it failed.

        A failure counts as a state inconsistency and lies on the task's path
        to starting, so its hop is charged to the task.
        """
        ok = node_id is not None
        if not ok:
            self.collector.bump("inconsistency_failures")
        gm = self.gms[req.gm_id]
        response = _new(LaunchResponse, (ok, req.task_id, kind, node_id, state, req.run))
        self.network.send(state.timestamp, LAUNCH_RESPONSE, gm.on_launch_response,
                          response, run=None if ok else req.run)

    # -- repartition ---------------------------------------------------------

    def on_repartition_request(self, req: LaunchRequest, now: float) -> None:
        """Carve `req.demand` out of the physical node `req.node_id` into a
        logical node of the requesting GM's partition, and launch there."""
        run = req.run
        _, done = self.clock.serve(run, now, self.costs.lm_repartition)
        source = self.nodes.get(req.node_id)
        ok = self._fits(source, req) and not source.is_logical  # never carve a logical node
        self._audit(req, "repartition", source, ok, done)

        if not ok:
            self._respond_launch(req, "repartition", None, self.snapshot(done))
            return

        target = self.partition_by_owner[req.gm_id]
        self._logical_seq += 1
        logical = WorkerNode(
            node_id=f"{source.node_id}.l{self._logical_seq}",
            lm_id=self.lm_id,
            partition_id=target.partition_id,
            capacity=req.demand,
            machine_constraints=source.machine_constraints,
            is_logical=True,
            parent_node=source.node_id,
        )
        self._publish(source, self.available(source) - req.demand)
        self.nodes[logical.node_id] = logical
        target.append_node(logical.node_id, logical.machine_constraints,
                           _snapshot(logical, logical.capacity))
        self.collector.bump("repartitions")
        run.repartitioned = True

        self._launch(run, logical, self.gms[req.gm_id], done)
        self._respond_launch(
            req, "repartition", logical.node_id,
            self._state(done, (source.partition_id, target.partition_id)),
        )

    # -- preemption ----------------------------------------------------------

    def on_preempt_request(self, req: PreemptRequest, now: float) -> None:
        run = req.run
        start, done = self.clock.serve(
            run, now,
            self.costs.lm_validate + self.costs.lm_preempt_per_victim * len(req.victim_ids))

        touched: list[str] = []
        killed = 0
        for victim_id in req.victim_ids:
            rt = self.running.get(victim_id)
            # a victim must still be running on the named node; one that
            # finished, moved, or has not begun executing yet is stale
            verified = (rt is not None and rt.node_id == req.node_id
                        and rt.info.launch_time <= start)
            if not verified:
                continue
            killed += 1
            touched.extend(self._release(rt))
            self.collector.bump("preemptions")
            info = rt.info
            note = _new(TaskPreempted, (victim_id, info.user_id, info.demand,
                                        self._state(done, ()), rt.run))
            self.network.send(done, TASK_PREEMPTED, rt.gm.on_task_preempted, note)

        run.preempted_caused += killed
        # a plan always names a physical node, and those are never destroyed
        partitions = touched or (self.nodes[req.node_id].partition_id,)
        # a plan's victims run on one node, so their ids are distinct
        response = _new(PreemptResponse, (req.task_id, req.node_id,
                                          killed == len(req.victim_ids),
                                          self._state(done, partitions)))
        self.network.send(done, PREEMPT_RESPONSE, self.gms[req.gm_id].on_preempt_response,
                          response, run=run)

    # -- completion ----------------------------------------------------------

    def _release(self, rt: RunningTask) -> list[str]:
        """Stop tracking a finished or killed task and free it; destroys logical nodes."""
        info = rt.info
        del self.running[info.task_id]
        node = self.nodes[rt.node_id]
        touched = [node.partition_id]
        if node.is_logical:
            parent = self.nodes[node.parent_node]
            self._publish(parent, self.available(parent) + node.capacity)
            self.partitions[node.partition_id].remove_node(node.node_id)
            del self.nodes[node.node_id]
            touched.append(parent.partition_id)
        else:
            self._publish(node, self.available(node) + info.demand, remove=info)
        consumed = self.consumed  # may have been sent: replace it, never mutate it
        self.consumed = {**consumed, info.user_id: consumed[info.user_id] - info.demand}
        return touched

    def _on_task_complete(self, rt: RunningTask, now: float) -> None:
        info = rt.info
        if self.running.get(info.task_id) is not rt:
            return  # stale completion from a preempted launch
        touched = self._release(rt)
        self.collector.note_completed()
        self.loop.note_progress()
        message = _new(TaskCompletion, (info.task_id, info.user_id, info.demand,
                                        self._state(now, touched), rt.run))
        self.network.send(now, TASK_COMPLETION, rt.gm.on_task_completion, message)
