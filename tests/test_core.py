"""Value types: resource vectors, constraint bits and partitions."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsched
from fedsched.config import config_from_dict
from fedsched.core import (Partition, ResourceVector, WorkerNode, candidates,
                           constraint_bits, iter_ordinals)
from fedsched.errors import ConfigurationError
from fedsched.messages import LaunchRequest
from fedsched.metrics import RECORD_FIELDS, AllocationRecord
from fedsched.state import (LMStateSnapshot, NodeSnapshot, PartitionSnapshot,
                            RunningTaskInfo)

from oracles import brute_force_match


class TestResourceVector:
    def test_dominates(self):
        assert ResourceVector.of(8, 16384).geq(ResourceVector.of(2, 4096))

    def test_equality_boundary_dominates(self):
        assert ResourceVector.of(8, 16384).geq(ResourceVector.of(8, 16384))

    def test_one_dimension_insufficient(self):
        assert not ResourceVector.of(8, 2048).geq(ResourceVector.of(2, 4096))

    def test_dimension_mismatch_rejected(self):
        # checked where vectors enter, not by each operation: a demand with
        # more dimensions than the workers' capacity is a config error
        with pytest.raises(ConfigurationError):
            config_from_dict({"worker_capacity": [1, 2],
                              "workload": {"demand": [1, 2, 3]}})

    def test_add_subtract(self):
        a = ResourceVector.of(6, 12288)
        b = ResourceVector.of(2, 4096)
        assert (a + b).quantities == (8, 16384)
        assert (a - b).quantities == (4, 8192)

    def test_subtract_underflow_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector.of(1, 100) - ResourceVector.of(2, 50)

    def test_no_negative_or_fractional_quantities(self):
        with pytest.raises(ConfigurationError):
            ResourceVector.of(-1, 5)
        with pytest.raises(ConfigurationError):
            ResourceVector.of(1.5, 5)
        with pytest.raises(ConfigurationError):
            ResourceVector.of(True, 5)

    def test_needs_a_dimension(self):
        with pytest.raises(ConfigurationError):
            ResourceVector.of()

    def test_zeros_and_iteration(self):
        z = ResourceVector.zeros(3)
        assert list(z) == [0, 0, 0]
        assert z.is_zero()
        assert not ResourceVector.of(0, 1).is_zero()

    def test_repr(self):
        # error messages print vectors, so the repr is part of their text
        assert repr(ResourceVector.of(4, 8)) == "ResourceVector(quantities=(4, 8))"
        assert repr(ResourceVector.of(4)) == "ResourceVector(quantities=(4,))"

    def test_copy_and_pickle_round_trip(self):
        v = ResourceVector.of(4, 8192)
        config = config_from_dict({"worker_capacity": [4, 8192]})
        for copied in (copy.deepcopy(v), pickle.loads(pickle.dumps(v)),
                       copy.deepcopy(config).worker_capacity):  # as `sweep` copies
            assert copied == v
            assert type(copied) is ResourceVector


quantity = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=2 ** 40)
vector_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.tuples(*[quantity] * n), st.tuples(*[quantity] * n)))


@given(vector_pairs)
@settings(max_examples=300, derandomize=True)
def test_vector_operations_agree_with_tuple_arithmetic(pair):
    a, b = pair
    va, vb = ResourceVector.of(*a), ResourceVector.of(*b)
    total = va + vb
    assert total == tuple(x + y for x, y in zip(a, b))
    assert type(total) is ResourceVector
    diff = tuple(x - y for x, y in zip(a, b))
    if min(diff) < 0:
        with pytest.raises(ValueError):
            va - vb
    else:
        assert va - vb == diff
        assert type(va - vb) is ResourceVector
    assert va.geq(vb) == all(x >= y for x, y in zip(a, b))
    assert va.is_zero() == (a == (0,) * len(a))
    assert (va == vb) == (a == b)
    assert hash(va) == hash(a)
    assert va.quantities == a
    assert va.dimension == len(a)


def test_every_exported_name_resolves():
    missing = [name for name in fedsched.__all__ if not hasattr(fedsched, name)]
    assert not missing


def test_wire_and_record_types_are_immutable():
    """A GM view keeps the published snapshots it received as its copy."""
    demand = ResourceVector.of(1, 1)
    info = RunningTaskInfo("t", "u", demand, 0.0)
    node = NodeSnapshot("n", demand, False, None, (info,))
    part = PartitionSnapshot("p", "lm", "gm", (node,), (1,), [], 0)
    state = LMStateSnapshot("lm", 0.0, (part,), {"u": demand}, 1)
    request = LaunchRequest("gm", "t", "n", demand, frozenset(), None)
    record = AllocationRecord(*range(len(RECORD_FIELDS)))
    for value in (info, node, part, state, request, record):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        demand.quantities = (2, 2)


class TestWorkerNodeValidation:
    def test_logical_requires_parent(self):
        with pytest.raises(ConfigurationError):
            WorkerNode("n", "lm", "p", capacity=ResourceVector.of(1, 1),
                       machine_constraints=frozenset(), is_logical=True)


class TestConstraintBits:
    def test_two_constraint_intersection_example(self):
        # node membership: c0 on nodes {0,2}, c1 on nodes {1,2}; the only
        # common node is ordinal 2
        bits = constraint_bits(2, [
            frozenset({0}), frozenset({1}),
            frozenset({0, 1}), frozenset(),
        ])
        assert bits == (0b0101, 0b0110)
        mask, word_ops = candidates(bits, 4, frozenset({0, 1}))
        assert mask == 0b0100
        assert list(iter_ordinals(mask)) == [2]
        assert word_ops == 3  # two constraint vectors and the scan, one word each

    def test_no_constraints_all_candidates_no_word_ops(self):
        # no AND is charged: only the one scan pass over the candidates
        bits = constraint_bits(3, [frozenset()] * 5)
        assert bits == (0, 0, 0)
        mask, word_ops = candidates(bits, 5, frozenset())
        assert mask == 0b11111
        assert word_ops == 1

    def test_unknown_constraint_id(self):
        # ids are checked where they enter, so the bits never see one
        # outside [0, constraint_count): neither a task's nor a machine's
        with pytest.raises(ConfigurationError):
            config_from_dict({"constraint_count": 2, "workload": {
                "constraint_probabilities": {"5": 0.5}}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"constraint_count": 2, "machine_profiles": [
                {"profile_id": "p", "probabilities": {"2": 1.0}}]})

    def test_words_spans_64_bit_boundaries(self):
        one = frozenset({0})
        assert candidates(constraint_bits(1, []), 0, one) == (0, 0)
        bits = constraint_bits(1, [one] * 64)
        assert candidates(bits, 64, one) == ((1 << 64) - 1, 2)
        assert candidates(bits, 64, frozenset()) == ((1 << 64) - 1, 1)
        bits = constraint_bits(1, [one] * 65)
        assert candidates(bits, 65, one) == ((1 << 65) - 1, 4)


node_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7)),
    min_size=0, max_size=40,
)


@given(sets=node_sets, task_ids=st.sets(st.integers(min_value=0, max_value=7)))
@settings(max_examples=200, derandomize=True)
def test_candidates_match_per_node_superset_oracle(sets, task_ids):
    task_constraints = frozenset(task_ids)
    mask, _ = candidates(constraint_bits(8, sets), len(sets), task_constraints)
    expected = {i for i, machine in enumerate(sets)
                if machine >= task_constraints}
    assert set(iter_ordinals(mask)) == expected


@given(sets=node_sets,
       task_ids=st.sets(st.integers(min_value=0, max_value=7)),
       cpus=st.lists(st.integers(min_value=0, max_value=8), min_size=40, max_size=40),
       demand_cpu=st.integers(min_value=1, max_value=8))
@settings(max_examples=200, derandomize=True)
def test_masked_scan_equals_brute_force(sets, task_ids, cpus, demand_cpu):
    """Constraint-bit AND + ordered availability scan == naive per-node oracle."""
    task_constraints = frozenset(task_ids)
    available = [ResourceVector.of(c, 1024) for c in cpus[:len(sets)]]
    demand = ResourceVector.of(demand_cpu, 512)
    mask, _ = candidates(constraint_bits(8, sets), len(sets), task_constraints)
    hit = next((o for o in iter_ordinals(mask) if available[o].geq(demand)), None)
    assert hit == brute_force_match(sets, available, task_constraints, demand)


@given(st.integers(min_value=0, max_value=2 ** 70 - 1))
@settings(max_examples=100, derandomize=True)
def test_iter_ordinals_enumerates_set_bits(mask):
    assert list(iter_ordinals(mask)) == [i for i in range(70) if mask >> i & 1]


def stand_in(node_id):
    """A published snapshot standing in for the LM's, named for its node."""
    return NodeSnapshot(node_id, ResourceVector.of(1), False, None, ())


def assert_layout_moved(part, old_log):
    """`nodes` follows the ids in ordinal order, and a new, empty log started."""
    assert [n.node_id for n in part.nodes] == list(part.node_ids)
    assert part.log == [] and part.log is not old_log


def append(part, node_id, machine):
    log = part.log
    ordinal = part.append_node(node_id, machine, stand_in(node_id))
    assert_layout_moved(part, log)
    return ordinal


def remove(part, node_id):
    log = part.log
    ordinal = part.remove_node(node_id)
    assert_layout_moved(part, log)
    return ordinal


def partition_of(sets, m=8):
    """A partition built by appending one node, with a stand-in snapshot, per
    constraint set."""
    part = Partition("p", "gm", node_ids={}, bits=constraint_bits(m, []), nodes=[])
    for i, machine in enumerate(sets):
        append(part, f"n{i}", machine)
    return part


@given(sets=node_sets, drop=st.integers(min_value=0, max_value=39))
@settings(max_examples=200, derandomize=True)
def test_remove_matches_rebuild(sets, drop):
    """Appending builds the bits of the members; removing a node leaves exactly
    the bits of the survivors."""
    if not sets:
        return
    drop %= len(sets)
    part = partition_of(sets)
    assert part.bits == constraint_bits(8, sets)
    assert remove(part, f"n{drop}") == drop
    assert part.bits == constraint_bits(8, sets[:drop] + sets[drop + 1:])
    survivors = [f"n{i}" for i in range(len(sets)) if i != drop]
    assert part.node_ids == {node_id: o for o, node_id in enumerate(survivors)}


class TestPartition:
    def test_bits_track_membership(self):
        part = partition_of([frozenset({1}), frozenset({2})], m=3)
        assert list(part.node_ids) == ["n0", "n1"]
        assert part.bits == (0b00, 0b01, 0b10)
        remove(part, "n0")
        assert list(part.node_ids) == ["n1"]
        assert part.bits == (0, 0, 0b1)

    def test_remove_node_splices_bits(self):
        sets = [frozenset({0}), frozenset({1}), frozenset({0, 1}),
                frozenset(), frozenset({0})]
        part = partition_of(sets, m=2)
        remove(part, "n2")
        assert list(part.node_ids) == ["n0", "n1", "n3", "n4"]
        assert part.bits == constraint_bits(2, [sets[i] for i in (0, 1, 3, 4)])

    def test_ordinals_through_append_and_remove(self):
        part = partition_of([frozenset({0}), frozenset({1})], m=2)
        assert part.node_ids == {"n0": 0, "n1": 1}
        for logical in ("n0.l1", "n1.l2", "n0.l3"):  # carve-outs join at the tail
            append(part, logical, frozenset({0}))
        assert part.node_ids == {"n0": 0, "n1": 1, "n0.l1": 2, "n1.l2": 3, "n0.l3": 4}
        # a logical node destroyed before the others: only those after it move
        assert remove(part, "n0.l1") == 2
        assert part.node_ids == {"n0": 0, "n1": 1, "n1.l2": 2, "n0.l3": 3}
        assert remove(part, "n0.l3") == 3
        assert part.node_ids == {"n0": 0, "n1": 1, "n1.l2": 2}
        append(part, "n1.l4", frozenset({1}))
        assert part.node_ids == {"n0": 0, "n1": 1, "n1.l2": 2, "n1.l4": 3}
        assert part.bits == constraint_bits(2, [frozenset({0}), frozenset({1}),
                                                frozenset({0}), frozenset({1})])

    def test_replace_logs_each_ordinal_until_the_log_would_reach_the_node_count(self):
        part = partition_of([frozenset()] * 4, m=1)
        first = part.log
        for ordinal in (2, 0, 2):
            part.replace(ordinal, stand_in(f"n{ordinal}"))
        assert part.log is first and first == [2, 0, 2]  # one short of the 4 nodes
        snapshot = stand_in("n1")
        part.replace(1, snapshot)
        assert part.nodes[1] is snapshot
        assert part.log is not first and part.log == []
        part.replace(3, stand_in("n3"))
        assert part.log == [3]
        assert [n.node_id for n in part.nodes] == list(part.node_ids)
