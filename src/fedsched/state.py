"""Cluster-state snapshots carried on the simulated wire, and the per-GM view.

LMs are the authority for their workers.  GMs schedule against a possibly
stale copy of that state.  Every message from an LM to a GM carries one
`LMStateSnapshot`: periodic heartbeats and validation failures carry every
partition and replace the LM's slice of the view wholesale, while other
responses and notifications piggyback just the partitions they touched.  Each
snapshot carries the LM-side timestamp at which it was taken, the LM's
per-user consumption and the number of nodes in its partitions, and merges
never move a view backwards in time.  The consumption map is the LM's own
dict, shared and never mutated, like the change log below: the LM replaces
it with an updated copy on every launch and release, so a view keeps the map
it received, by reference, as its copy.  The node count is filled in once by
the LM; the GM's simulated merge charge reads it.

Both ends keep this state incrementally, with one copy of a node's
availability on each: the LM's published `NodeSnapshot`, which a GM's
`ViewPartition` reads as received unless its deduction overlay holds the
node.  A partition snapshot carries every node, but it also carries the LM's
change log for the partition, an append-only list of the ordinals replaced
since the list was started, shared and never copied, and its length as
`version`.  A view that holds the same list re-reads only the ordinals
between the version it saw and the snapshot's, plus the overlay's, so the
host cost of a merge follows the nodes that changed rather than the
partition's size.  Messages with equal timestamps can arrive out of order,
so the window runs backwards for an older version.  One LM serves several
GMs and each view keeps its own version, so nothing is cleared on send.  A
snapshot with another list (the LM starts a new one when a node is added or
removed, or when the log would grow to the partition's size) rebuilds the
view; that happens at most once per partition-size worth of publishes.  A new
list is the view's one rebuild signal: only adding or removing a node changes
a partition's node count or constraint bits, and both start a new list.  The
simulated merge charge still counts every node carried.  A partition's
constraint bits travel as the LM's own immutable `Partition.bits` tuple,
which the view reads as it stands, so neither end copies them per message.

The snapshot records are `NamedTuple`s: immutable, as a view keeps the
`NodeSnapshot`s it received as its copy of each node.  Every message carries
several, so the LM builds them positionally with `tuple.__new__`, past the
generated keyword `__new__`.

A view is built whole, from one snapshot per LM: an LM's partitions are
fixed when it is built (a carve-out adds a node, never a partition), so a
merge only refreshes partitions the view holds.

Every GM views every partition, but a GM searches few of them in a short run,
so a view partition builds what only a search reads on first use: its
per-dimension `columns` on the first fit mask, and its overlay, fit masks and
candidate masks on their first write.  Until then they share one empty
mapping, never written, and a refresh of a partition never searched only
swaps in the snapshot.  A view the GM never searches costs the snapshot
reference and a few slots.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import ge, itemgetter
from typing import NamedTuple

from .core import ResourceVector, candidates


class RunningTaskInfo(NamedTuple):
    task_id: str
    user_id: str
    demand: ResourceVector
    launch_time: float


class NodeSnapshot(NamedTuple):
    node_id: str
    available: ResourceVector
    is_logical: bool
    parent_node: str | None
    running: tuple[RunningTaskInfo, ...]


class PartitionSnapshot(NamedTuple):
    partition_id: str
    lm_id: str
    owner_gm_id: str
    nodes: tuple[NodeSnapshot, ...]
    bits: tuple[int, ...]  # the LM's `Partition.bits`, shared, never copied
    # the LM's change log for the partition, shared, never copied, and its
    # length when `nodes` was taken: log[:version] names every ordinal
    # replaced since the list was started
    log: list[int]
    version: int


class LMStateSnapshot(NamedTuple):
    """State of one LM as of `timestamp`: all of its partitions or only some."""

    lm_id: str
    timestamp: float
    partitions: tuple[PartitionSnapshot, ...]
    user_consumed: dict[str, ResourceVector]  # the LM's map, shared, never mutated
    node_count: int  # sum(len(p.nodes) for p in partitions)


# Fit masks kept per view partition.  Every deduction and every re-read node
# updates each kept mask, so the cap bounds that cost when tasks bring many
# distinct demands; past it the oldest mask is evicted, and a demand that
# comes back rebuilds its mask from `columns`.
FIT_MASKS = 8

# 1 << j at each ordinal j, shared by every view partition and as long as the
# longest built `columns`; `compress` stops at a shorter partition's column,
# so none is sliced
_POWERS: list[int] = []

# The overlay, fit masks and candidate masks of every view partition until
# their first write, which replaces it with a dict of their own: never written
_EMPTY: dict = {}


class ViewPartition:
    """One partition as last reported by its LM, plus optimistic deductions.

    A GM deducts a task's demand from the viewed availability the moment it
    commits to a node, so back-to-back decisions in the same pass do not pick
    the same resources twice.  The next snapshot from the LM overwrites the
    guesswork with authority.

    `nodes` is the LM's snapshot of each node, kept as received; `deducted`
    is the overlay, {ordinal: availability left} for the nodes deducted from
    since the last refresh.  Node j's viewed availability, `available(j)`, is
    its overlay entry, else its snapshot's.  `columns` holds it again, one
    list per resource dimension, so a fit mask takes one C-level pass each.

    `match` answers first-fit with two bit masks instead of a walk:
    `fits[demand]` has bit j set iff `available(j)` covers that demand, and
    `cands[constraint ids]` holds what `candidates` returns for the snapshot's
    `bits`: the candidate mask and its word-op charge.
    Both are kept incrementally, `fits` for at most FIT_MASKS demands.
    `log` and `seen` are the LM's change log and the version of it that
    `nodes` reflects.  `refresh` re-reads the overlay's ordinals and those
    logged between `seen` and the snapshot's version; it records a re-read
    node only where its availability differs from the viewed one, then drops
    the overlay: the same as overwriting it all.  A snapshot with another log
    rebuilds everything; it is the one signal, as only `Partition.append_node`
    and `remove_node` change the node count or the bits, and each starts a
    new log.

    All of these are built on first use.  `columns` is None until the first
    fit mask builds it from the viewed availability, overlay included, and
    `_set` writes it only once it exists; no fit mask exists before it, so a
    refresh while it is None re-reads nothing.  `deducted`, `fits` and
    `cands` are the shared `_EMPTY` until their first write, and a refresh or
    rebuild hands them back to it.
    """

    __slots__ = ("partition_id", "lm_id", "owner_gm_id", "nodes", "columns", "bits",
                 "log", "seen", "deducted", "fits", "cands")

    def __init__(self, snapshot: PartitionSnapshot) -> None:
        self.partition_id = snapshot.partition_id
        self.lm_id = snapshot.lm_id
        self.owner_gm_id = snapshot.owner_gm_id
        self._rebuild(snapshot)

    def _rebuild(self, snapshot: PartitionSnapshot) -> None:
        self.nodes = snapshot.nodes
        self.columns: list[list[int]] | None = None
        self.bits = snapshot.bits
        self.log, self.seen = snapshot.log, snapshot.version
        self.deducted: dict[int, ResourceVector] = _EMPTY
        self.fits: dict[ResourceVector, int] = _EMPTY
        self.cands: dict[frozenset[int], tuple[int, int]] = _EMPTY

    def refresh(self, snapshot: PartitionSnapshot) -> None:
        """Take another snapshot: re-read changed nodes and the overlay, then drop it."""
        old, nodes, log = self.nodes, snapshot.nodes, snapshot.log
        if log is not self.log:
            self._rebuild(snapshot)
            return
        version, seen, deducted = snapshot.version, self.seen, self.deducted
        self.nodes, self.seen, self.deducted = nodes, version, _EMPTY
        if self.columns is None:  # nothing kept reads the availability
            return
        # the window between the two versions, run backwards for an older one
        changed = set(log[seen:version] if seen <= version else log[version:seen])
        changed.update(deducted)
        for ordinal in changed:
            have = nodes[ordinal].available
            viewed = deducted.get(ordinal)
            if have != (old[ordinal].available if viewed is None else viewed):
                self._set(ordinal, have)

    def _set(self, ordinal: int, have: ResourceVector) -> None:
        """Record a node's viewed availability in `columns`, once built, and
        every fit mask."""
        columns = self.columns
        if columns is None:  # and so no fit mask either
            return
        for column, quantity in zip(columns, have):
            column[ordinal] = quantity
        fits = self.fits
        bit = 1 << ordinal
        for demand, fit in fits.items():
            fits[demand] = fit | bit if have.geq(demand) else fit & ~bit

    def match(self, constraints: frozenset[int], demand: ResourceVector
              ) -> tuple[int | None, int, int]:
        """First node ordinal satisfying constraints and viewed availability.

        Returns (ordinal or None, word_ops, nodes_checked): the counts of a
        walk that intersects the constraint bit vectors, then checks the
        candidates in ascending ordinal order for sufficient viewed
        resources, stopping at the first that fits.
        """
        cand = self.cands.get(constraints)
        if cand is None:
            cand = candidates(self.bits, len(self.nodes), constraints)
            if self.cands is _EMPTY:
                self.cands = {}
            self.cands[constraints] = cand
        mask, word_ops = cand
        fits = self.fits
        fit = fits.get(demand)
        if fit is None:
            if fits is _EMPTY:
                fits = self.fits = {}
            elif len(fits) >= FIT_MASKS:
                del fits[next(iter(fits))]  # the oldest
            fit = fits[demand] = self._fit_mask(demand)
        hit = mask & fit
        if hit:
            low = hit & -hit
            return low.bit_length() - 1, word_ops, (mask & ((low << 1) - 1)).bit_count()
        return None, word_ops, mask.bit_count()

    def _fit_mask(self, demand: ResourceVector) -> int:
        """Bit j set iff `available(j)` covers the demand; builds `columns`
        from the viewed availability on first use."""
        nodes, columns = self.nodes, self.columns
        if columns is None:
            _POWERS.extend(1 << ordinal for ordinal in range(len(_POWERS), len(nodes)))
            viewed = (map(self.available, range(len(nodes))) if self.deducted
                      else (node.available for node in nodes))
            columns = self.columns = [list(column) for column in zip(*viewed)]
        fit = (1 << len(nodes)) - 1
        for column, want in zip(columns, demand):
            fit &= sum(compress(_POWERS, map(ge, column, repeat(want))))
        return fit

    def available(self, ordinal: int) -> ResourceVector:
        """The node's viewed availability: the overlay's entry, else the snapshot's."""
        have = self.deducted.get(ordinal)
        return self.nodes[ordinal].available if have is None else have

    def deduct(self, ordinal: int, demand: ResourceVector) -> None:
        have = self.available(ordinal) - demand
        if self.deducted is _EMPTY:
            self.deducted = {}
        self.deducted[ordinal] = have
        self._set(ordinal, have)


def view_order(snapshots: list[LMStateSnapshot]
               ) -> list[tuple[tuple[str, str], PartitionSnapshot]]:
    """Every partition of the snapshots under its (lm_id, partition_id) key,
    in key order, which the victim scan visits."""
    return sorted((((snapshot.lm_id, part.partition_id), part)
                   for snapshot in snapshots for part in snapshot.partitions),
                  key=itemgetter(0))


class ClusterView:
    """A GM's eventually-consistent picture of every LM's partitions.

    `order` is `view_order(snapshots)`: views built from the same snapshots
    can share one sort.
    """

    def __init__(self, snapshots: list[LMStateSnapshot], resource_dim: int,
                 order: list[tuple[tuple[str, str], PartitionSnapshot]] | None = None) -> None:
        self.resource_dim = resource_dim
        if order is None:
            order = view_order(snapshots)
        self.partitions: dict[tuple[str, str], ViewPartition] = {
            key: ViewPartition(part) for key, part in order}
        self.last_update_time = {snapshot.lm_id: snapshot.timestamp for snapshot in snapshots}
        self.lm_user_consumed = {snapshot.lm_id: snapshot.user_consumed
                                 for snapshot in snapshots}

    def _merge(
        self,
        lm_id: str,
        timestamp: float,
        partitions: tuple[PartitionSnapshot, ...],
        user_consumed: dict[str, ResourceVector],
    ) -> bool:
        """Overwrite the named partitions unless the update is older than the view;
        the consumption map is kept as received."""
        if timestamp < self.last_update_time[lm_id]:
            return False
        for part in partitions:
            self.partitions[lm_id, part.partition_id].refresh(part)
        self.lm_user_consumed[lm_id] = user_consumed
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
        user_consumed: dict[str, ResourceVector],
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
