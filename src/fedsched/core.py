"""Core value types: resource vectors, tasks, nodes, partitions.

Resources are exact integer quantities (whole CPU cores, memory in MB by
default).  A `ResourceVector` is stored as a tuple subclass holding those
quantities, because the simulator builds one on nearly every event: the
tuple's C code then hashes, compares and indexes it.  Constraints are small
integer ids, and a task's or a machine's constraints are a plain
`frozenset[int]`; a machine satisfies a task when its set is a superset of
the task's.  Partition membership is indexed per constraint with bit
vectors, an immutable tuple built by `constraint_bits`, so a scheduler can
intersect them with bitwise AND (`candidates`) instead of walking every node.
A `Partition` is the one owner of its ordinal layout: the node ids, their
bits, the LM's published `NodeSnapshot` at each ordinal and the change log
move together in its three mutators.  The LM's `Partition.bits` and `log`
are the only copies: snapshots ship them and GM views read them as they stand.

Input is validated where it enters, not in every operation.  `ResourceVector.of`
checks each vector built from outside input (config, trace, default demand);
arithmetic trusts its operands.  `ExperimentConfig.validate` and
`load_trace` reject constraint ids outside `[0, constraint_count)`,
`augment_constraints` any id that is not a non-negative int, and
`ExperimentConfig.validate` and `build_workload` demand vectors whose
dimension differs from the worker capacity's, so the constraint bits and the
vector operations never see either.

A `TaskRequest` is a plain record, checked where its fields enter: each trace
row by `load_trace`, the duration and demand specs by `generate_synthetic`
(once per call, so duration > 0 and demand non-zero), each task's user and
demand dimension by `build_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import add, ge, sub
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .state import NodeSnapshot

DEFAULT_RESOURCE_DIM = 2  # (cpu cores, memory MB)
DEFAULT_CONSTRAINT_COUNT = 21
WORD_BITS = 64

# the constraint set of every unconstrained task and machine, shared
NO_CONSTRAINTS: frozenset[int] = frozenset()


class ResourceVector(tuple):
    """Element-wise non-negative integer resource amounts.

    The vector is the tuple of its quantities, so hashing, equality, indexing
    and iteration run as the tuple's own C code.  A vector therefore also
    equals a plain tuple of the same quantities, and `<` compares
    lexicographically; neither means anything for resources.

    Invariants:
      - at least one dimension
      - every quantity is an int >= 0 (checked by `of`, kept by arithmetic)
    """

    __slots__ = ()

    @classmethod
    def of(cls, *quantities: int) -> "ResourceVector":
        """A vector from outside input, checked against the invariants."""
        if not quantities:
            raise ConfigurationError("resource vector needs at least one dimension")
        for q in quantities:
            if not isinstance(q, int) or isinstance(q, bool) or q < 0:
                raise ConfigurationError(
                    f"resource quantities must be non-negative integers, got {q!r}"
                )
        return cls(quantities)

    @classmethod
    def zeros(cls, dimension: int = DEFAULT_RESOURCE_DIM) -> "ResourceVector":
        return cls((0,) * dimension)

    @property
    def quantities(self) -> tuple[int, ...]:
        """The quantities, read-only: the vector itself."""
        return self

    @property
    def dimension(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"ResourceVector(quantities={tuple.__repr__(self)})"

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(map(add, self, other))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        out = ResourceVector(map(sub, self, other))
        if min(out) < 0:
            raise ValueError(f"resource underflow: {tuple(self)} - {tuple(other)}")
        return out

    def geq(self, other: "ResourceVector") -> bool:
        """True when every dimension of self is >= the same dimension of other."""
        return all(map(ge, self, other))

    def is_zero(self) -> bool:
        return not any(self)


class TaskRequest(NamedTuple):
    """One schedulable unit of work: duration > 0, arrival >= 0, demand non-zero,
    as checked where the workload enters.  Being a tuple, it equals a plain
    tuple of the same fields."""

    task_id: str
    job_id: str
    user_id: str
    demand: ResourceVector
    constraints: frozenset[int]
    arrival_time: float
    duration: float


@dataclass
class WorkerNode:
    """A physical worker or a logical node carved out of one, as fixed once
    built; its availability lives only in its LM's snapshot list.

    Invariant: is_logical implies parent_node is set and capacity equals the
    demand the node was carved for.
    """

    node_id: str
    lm_id: str
    partition_id: str
    capacity: ResourceVector
    machine_constraints: frozenset[int]
    is_logical: bool = False
    parent_node: str | None = None

    def __post_init__(self) -> None:
        if self.is_logical and self.parent_node is None:
            raise ConfigurationError(f"logical node {self.node_id} needs a parent node")


def constraint_bits(count: int, sets: Iterable[frozenset[int]]) -> tuple[int, ...]:
    """Per-constraint membership bit vectors for nodes with these constraint sets.

    Vector c has bit j set iff the node at ordinal j satisfies constraint c.
    Python ints act as unbounded bitsets, so intersecting constraint vectors
    is a single AND per constraint.
    """
    bits = [0] * count
    for ordinal, constraints in enumerate(sets):
        for cid in constraints:
            bits[cid] |= 1 << ordinal
    return tuple(bits)


def candidates(bits: tuple[int, ...], length: int, constraints: frozenset[int]
               ) -> tuple[int, int]:
    """Intersect the constraint vectors of `length` nodes for a task.

    Returns (candidate mask, word operation count).  The count is in 64-bit
    words, so callers can charge simulated processing time: one AND pass per
    constraint plus one scan pass over the candidates.  With no constraints
    every node is a candidate and only the scan is charged.
    """
    mask = (1 << length) - 1
    for cid in constraints:
        mask &= bits[cid]
    return mask, (len(constraints) + 1) * ((length + WORD_BITS - 1) // WORD_BITS)


def iter_ordinals(mask: int) -> Iterator[int]:
    """Yield set bit positions of a candidate mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class Partition:
    """A logical slice of one LM's workers, owned by exactly one GM, and the one
    owner of its ordinal layout.

    `node_ids` maps each node id to its ordinal, in ordinal order.  `bits` is
    the `constraint_bits` of the nodes in that order, an immutable tuple
    replaced on every membership change, so a snapshot carries it as it stands.
    `nodes` holds the LM's published `NodeSnapshot` at each ordinal, and `log`
    the ordinals replaced since it was started, in order.  The three mutators
    keep all four in step: `replace` logs the ordinal, or starts a new log
    where it would grow as long as `nodes`, which bounds it without a setting;
    `append_node` and `remove_node` move ordinals, so both start a new log.
    """

    partition_id: str
    owner_gm_id: str
    node_ids: dict[str, int]
    bits: tuple[int, ...]
    nodes: list[NodeSnapshot]
    log: list[int] = field(default_factory=list)

    def replace(self, ordinal: int, snapshot: NodeSnapshot) -> None:
        """Publish the node at `ordinal` anew."""
        self.nodes[ordinal] = snapshot
        if len(self.log) < len(self.nodes) - 1:
            self.log.append(ordinal)
        else:
            self.log = []

    def append_node(self, node_id: str, constraints: frozenset[int],
                    snapshot: NodeSnapshot) -> int:
        """Give the node the next ordinal and return it."""
        ordinal = self.node_ids[node_id] = len(self.node_ids)
        bit = 1 << ordinal
        self.bits = tuple(v | bit if cid in constraints else v
                          for cid, v in enumerate(self.bits))
        self.nodes.append(snapshot)
        self.log = []
        return ordinal

    def remove_node(self, node_id: str) -> int:
        """Drop the node's position and return it; higher ordinals shift down by one."""
        ordinal = self.node_ids.pop(node_id)
        for later in islice(reversed(self.node_ids), len(self.node_ids) - ordinal):
            self.node_ids[later] -= 1
        low = (1 << ordinal) - 1
        self.bits = tuple((v >> (ordinal + 1) << ordinal) | (v & low) for v in self.bits)
        del self.nodes[ordinal]
        self.log = []
        return ordinal
