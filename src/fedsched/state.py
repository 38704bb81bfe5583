"""Cluster-state snapshots carried on the simulated wire, and the per-GM view.

LMs are the authority for their workers.  GMs schedule against a possibly
stale copy of that state.  Every message from an LM to a GM carries one
`LMStateSnapshot`: periodic heartbeats and validation failures carry every
partition and replace the LM's slice of the view wholesale, while other
responses and notifications piggyback just the partitions they touched.  Each
snapshot carries the LM-side timestamp at which it was taken and the LM's
per-user consumption, and merges never move a view backwards in time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConstraintBitmap, ConstraintSet, ResourceVector, iter_ordinals


@dataclass(frozen=True)
class RunningTaskInfo:
    task_id: str
    user_id: str
    demand: ResourceVector
    launch_time: float


@dataclass(frozen=True)
class NodeSnapshot:
    node_id: str
    available: ResourceVector
    is_logical: bool
    parent_node: str | None
    running: tuple[RunningTaskInfo, ...]


@dataclass(frozen=True)
class PartitionSnapshot:
    partition_id: str
    lm_id: str
    owner_gm_id: str
    nodes: tuple[NodeSnapshot, ...]
    bits: tuple[int, ...]
    constraint_count: int


@dataclass(frozen=True)
class LMStateSnapshot:
    """State of one LM as of `timestamp`: all of its partitions or only some."""

    lm_id: str
    timestamp: float
    partitions: tuple[PartitionSnapshot, ...]
    user_consumed: tuple[tuple[str, ResourceVector], ...]

    @property
    def node_count(self) -> int:
        return sum(len(p.nodes) for p in self.partitions)


class ViewPartition:
    """One partition as last reported by its LM, plus optimistic deductions.

    A GM deducts a task's demand from the viewed availability the moment it
    commits to a node, so back-to-back decisions in the same pass do not pick
    the same resources twice.  The next snapshot from the LM overwrites the
    guesswork with authority.

    `nodes` is the LM's snapshot of each node, kept as received; `available`
    is the GM's mutable copy of their availability, which deductions shrink.

    Misses of `match` are memoised per (constraint ids, demand) until the
    next `refresh`.  Between refreshes the bitmap is fixed and `deduct` only
    shrinks availability, so a miss stays a miss over the same candidates
    and the memo returns exactly the counts a rescan would.
    """

    __slots__ = ("partition_id", "lm_id", "owner_gm_id", "nodes", "available",
                 "bitmap", "misses")

    def __init__(self, snapshot: PartitionSnapshot) -> None:
        self.partition_id = snapshot.partition_id
        self.lm_id = snapshot.lm_id
        self.owner_gm_id = snapshot.owner_gm_id
        self.refresh(snapshot)

    def refresh(self, snapshot: PartitionSnapshot) -> None:
        self.nodes = snapshot.nodes
        self.available = [n.available for n in snapshot.nodes]
        self.bitmap = ConstraintBitmap(
            snapshot.constraint_count, len(snapshot.nodes), list(snapshot.bits)
        )
        self.misses: dict[tuple[frozenset[int], tuple[int, ...]], tuple[int, int]] = {}

    def match(self, constraints: ConstraintSet, demand: ResourceVector
              ) -> tuple[int | None, int, int]:
        """First node ordinal satisfying constraints and viewed availability.

        Returns (ordinal or None, word_ops, nodes_checked).  Candidates come
        from intersecting the constraint bit vectors; they are then scanned in
        ascending ordinal order for sufficient viewed resources.  A repeated
        miss is answered from the memo with the counts of the original scan.
        """
        key = (constraints.ids, demand.quantities)
        miss = self.misses.get(key)
        if miss is not None:
            return None, miss[0], miss[1]
        found = self.scan(constraints, demand)
        if found[0] is None:
            self.misses[key] = found[1:]
        return found

    def scan(self, constraints: ConstraintSet, demand: ResourceVector
             ) -> tuple[int | None, int, int]:
        """`match` without the memo: always walks the candidates."""
        mask, word_ops = self.bitmap.candidates(constraints)
        word_ops += self.bitmap.words  # one scan pass over the candidate words
        checked = 0
        for ordinal in iter_ordinals(mask):
            checked += 1
            if self.available[ordinal].geq(demand):
                return ordinal, word_ops, checked
        return None, word_ops, checked

    def deduct(self, ordinal: int, demand: ResourceVector) -> None:
        self.available[ordinal] = self.available[ordinal] - demand

    def node_satisfies(self, ordinal: int, constraints: ConstraintSet) -> bool:
        return all(self.bitmap.satisfies(cid, ordinal) for cid in constraints)


class ClusterView:
    """A GM's eventually-consistent picture of every LM's partitions."""

    def __init__(self, snapshots: list[LMStateSnapshot], resource_dim: int) -> None:
        self.resource_dim = resource_dim
        self.partitions: dict[tuple[str, str], ViewPartition] = {}
        self.last_update_time: dict[str, float] = {}
        self.lm_user_consumed: dict[str, dict[str, ResourceVector]] = {}
        for snapshot in snapshots:
            self._merge(snapshot.lm_id, snapshot.timestamp, snapshot.partitions,
                        snapshot.user_consumed)

    def _merge(
        self,
        lm_id: str,
        timestamp: float,
        partitions: tuple[PartitionSnapshot, ...],
        user_consumed: tuple[tuple[str, ResourceVector], ...] | None,
    ) -> bool:
        """Overwrite the named partitions unless the update is older than the view."""
        if timestamp < self.last_update_time.get(lm_id, float("-inf")):
            return False
        for part in partitions:
            key = (lm_id, part.partition_id)
            existing = self.partitions.get(key)
            if existing is None:
                self.partitions[key] = ViewPartition(part)
            else:
                existing.refresh(part)
        if user_consumed is not None:
            self.lm_user_consumed[lm_id] = dict(user_consumed)
        self.last_update_time[lm_id] = timestamp
        return True

    def apply_heartbeat(self, snapshot: LMStateSnapshot) -> bool:
        """Replace an LM's slice of the view; stale snapshots are discarded."""
        return self._merge(snapshot.lm_id, snapshot.timestamp, snapshot.partitions,
                           snapshot.user_consumed)

    def merge_partitions(
        self,
        lm_id: str,
        timestamp: float,
        partitions: tuple[PartitionSnapshot, ...],
        user_consumed: tuple[tuple[str, ResourceVector], ...] | None = None,
    ) -> bool:
        """Merge a partial (piggybacked) update covering only some partitions."""
        return self._merge(lm_id, timestamp, partitions, user_consumed)

    def viewed_consumed(self, user_id: str) -> ResourceVector:
        """Sum of the user's consumption as last reported by each LM."""
        total = ResourceVector.zeros(self.resource_dim)
        for per_lm in self.lm_user_consumed.values():
            consumed = per_lm.get(user_id)
            if consumed is not None:
                total = total + consumed
        return total
