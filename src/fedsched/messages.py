"""Message payloads exchanged between global masters, local masters, and workers.

These are in-memory stand-ins for the wire: each `NamedTuple` mirrors what a
real deployment would serialize, immutable once sent.  The `run` field is
host-side bookkeeping that rides along with the task; it is not part of the
simulated wire.  Every message an LM sends to a GM carries one
`LMStateSnapshot` as `state`: the full state on heartbeats (delivered as the
bare snapshot) and on validation failures, and just the partitions the
request touched otherwise, so every interaction refreshes part of the
receiver's view of that LM.  The snapshot carries its node count, and the
LM's per-user consumption map by reference: the LM never mutates a map it
has sent, as it never mutates a change log.

Senders build these records positionally with `tuple.__new__`, in field
order, on the per-message path; the field order is therefore part of the
contract, and a record reads back by field name as any `NamedTuple` does.

One request type serves launches and carve-outs: a `LaunchRequest` sent as a
launch request names the node to launch on, and sent as a repartition
request it names the physical node of another GM's partition to carve the
task's demand out of.  The LM answers both with a `LaunchResponse`, which
carries the request's run back, so a GM keeps no table of the launches it
has in flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .core import ResourceVector
from .state import LMStateSnapshot

if TYPE_CHECKING:
    from .metrics import TaskRun


class LaunchRequest(NamedTuple):
    gm_id: str
    task_id: str
    node_id: str
    demand: ResourceVector
    constraints: frozenset[int]
    run: "TaskRun"


class LaunchResponse(NamedTuple):
    ok: bool
    task_id: str
    kind: str  # "launch" or "repartition"
    node_id: str | None
    state: LMStateSnapshot
    run: "TaskRun"


class PreemptRequest(NamedTuple):
    gm_id: str
    task_id: str  # the task preemption is on behalf of
    node_id: str
    victim_ids: tuple[str, ...]
    demand: ResourceVector
    run: "TaskRun"


class VictimStatus(NamedTuple):
    task_id: str
    verified: bool


class PreemptResponse(NamedTuple):
    task_id: str
    node_id: str
    statuses: tuple[VictimStatus, ...]
    state: LMStateSnapshot


class TaskCompletion(NamedTuple):
    task_id: str
    user_id: str
    demand: ResourceVector
    state: LMStateSnapshot
    run: "TaskRun"


class TaskPreempted(NamedTuple):
    task_id: str
    user_id: str
    demand: ResourceVector
    state: LMStateSnapshot
    run: "TaskRun"
