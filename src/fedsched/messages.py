"""Message payloads exchanged between global masters, local masters, and workers.

These are in-memory stand-ins for the wire: each dataclass mirrors what a real
deployment would serialize.  Every message an LM sends to a GM carries one
`LMStateSnapshot` as `state`: the full state on heartbeats (delivered as the
bare snapshot) and on validation failures, and just the partitions the
request touched otherwise, so every interaction refreshes part of the
receiver's view of that LM.

One request type serves launches and carve-outs: a `LaunchRequest` sent as a
launch request names the node to launch on, and sent as a repartition
request it names the physical node of another GM's partition to carve the
task's demand out of.  The LM answers both with a `LaunchResponse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import ConstraintSet, ResourceVector
from .state import LMStateSnapshot

if TYPE_CHECKING:
    from .metrics import TaskRun


@dataclass(frozen=True)
class LaunchRequest:
    gm_id: str
    task_id: str
    node_id: str
    demand: ResourceVector
    constraints: ConstraintSet
    run: "TaskRun" = field(repr=False)


@dataclass(frozen=True)
class LaunchResponse:
    ok: bool
    task_id: str
    kind: str  # "launch" or "repartition"
    node_id: str | None
    state: LMStateSnapshot


@dataclass(frozen=True)
class PreemptRequest:
    gm_id: str
    task_id: str  # the task preemption is on behalf of
    node_id: str
    victim_ids: tuple[str, ...]
    demand: ResourceVector
    run: "TaskRun" = field(repr=False)


@dataclass(frozen=True)
class VictimStatus:
    task_id: str
    verified: bool


@dataclass(frozen=True)
class PreemptResponse:
    task_id: str
    node_id: str
    statuses: tuple[VictimStatus, ...]
    state: LMStateSnapshot


@dataclass(frozen=True)
class TaskCompletion:
    task_id: str
    user_id: str
    demand: ResourceVector
    state: LMStateSnapshot
    run: "TaskRun" = field(repr=False)


@dataclass(frozen=True)
class TaskPreempted:
    task_id: str
    user_id: str
    demand: ResourceVector
    state: LMStateSnapshot
    run: "TaskRun" = field(repr=False)
