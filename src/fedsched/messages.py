"""Message payloads exchanged between global masters, local masters, and workers.

These are in-memory stand-ins for the wire: each dataclass mirrors what a real
deployment would serialize.  Responses and notifications carry piggybacked
partition snapshots plus the LM-side timestamp they were taken at, so every
interaction refreshes part of the sender's view of that LM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import ConstraintSet, ResourceVector
from .state import LMStateSnapshot, PartitionSnapshot

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
class RepartitionRequest:
    gm_id: str
    task_id: str
    source_node_id: str
    demand: ResourceVector
    constraints: ConstraintSet
    run: "TaskRun" = field(repr=False)


@dataclass(frozen=True)
class LaunchResponse:
    ok: bool
    gm_id: str
    lm_id: str
    task_id: str
    kind: str  # "launch" or "repartition"
    node_id: str | None
    state_timestamp: float
    piggyback: tuple[PartitionSnapshot, ...]
    user_consumed: tuple[tuple[str, ResourceVector], ...]


@dataclass(frozen=True)
class Heartbeat:
    lm_id: str
    snapshot: LMStateSnapshot


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
    gm_id: str
    lm_id: str
    task_id: str
    node_id: str
    statuses: tuple[VictimStatus, ...]
    state_timestamp: float
    piggyback: tuple[PartitionSnapshot, ...]
    user_consumed: tuple[tuple[str, ResourceVector], ...]


@dataclass(frozen=True)
class TaskCompletion:
    lm_id: str
    gm_id: str
    task_id: str
    user_id: str
    demand: ResourceVector
    state_timestamp: float
    piggyback: tuple[PartitionSnapshot, ...]
    user_consumed: tuple[tuple[str, ResourceVector], ...]
    run: "TaskRun" = field(repr=False)


@dataclass(frozen=True)
class TaskPreempted:
    lm_id: str
    gm_id: str
    task_id: str
    user_id: str
    demand: ResourceVector
    state_timestamp: float
    piggyback: tuple[PartitionSnapshot, ...]
    user_consumed: tuple[tuple[str, ResourceVector], ...]
    run: "TaskRun" = field(repr=False)
