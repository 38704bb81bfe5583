"""Value types: resource vectors and constraint bitmaps."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsched
from fedsched.config import config_from_dict
from fedsched.core import (ConstraintBitmap, Partition, ResourceVector,
                           WorkerNode, iter_ordinals)
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
    """A GM's identity diff relies on a published snapshot never changing."""
    demand = ResourceVector.of(1, 1)
    info = RunningTaskInfo("t", "u", demand, 0.0)
    node = NodeSnapshot("n", demand, False, None, (info,))
    part = PartitionSnapshot("p", "lm", "gm", (node,), (1,), 1)
    state = LMStateSnapshot("lm", 0.0, (part,), (("u", demand),))
    request = LaunchRequest("gm", "t", "n", demand, frozenset(), None)
    record = AllocationRecord(*range(len(RECORD_FIELDS)))
    for value in (info, node, part, state, request, record):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        demand.quantities = (2, 2)


class TestWorkerNodeValidation:
    def test_available_bounded_by_capacity(self):
        with pytest.raises(ConfigurationError):
            WorkerNode("n", "lm", "p", capacity=ResourceVector.of(1, 1),
                       available=ResourceVector.of(2, 1),
                       machine_constraints=frozenset())

    def test_logical_requires_parent(self):
        with pytest.raises(ConfigurationError):
            WorkerNode("n", "lm", "p", capacity=ResourceVector.of(1, 1),
                       available=ResourceVector.of(1, 1),
                       machine_constraints=frozenset(), is_logical=True)


def bitmap_from_sets(m, sets):
    return ConstraintBitmap.from_constraint_sets(m, sets)


class TestConstraintBitmap:
    def test_two_constraint_intersection_example(self):
        # node membership: c0 on nodes {0,2}, c1 on nodes {1,2}; the only
        # common node is ordinal 2
        bitmap = bitmap_from_sets(2, [
            frozenset({0}), frozenset({1}),
            frozenset({0, 1}), frozenset(),
        ])
        assert bitmap.bits[0] == 0b0101
        assert bitmap.bits[1] == 0b0110
        mask, word_ops = bitmap.candidates(frozenset({0, 1}))
        assert mask == 0b0100
        assert list(iter_ordinals(mask)) == [2]
        assert word_ops == 2  # two constraint vectors of one word each

    def test_no_constraints_all_candidates_no_word_ops(self):
        bitmap = bitmap_from_sets(3, [frozenset()] * 5)
        mask, word_ops = bitmap.candidates(frozenset())
        assert mask == 0b11111
        assert word_ops == 0

    def test_unknown_constraint_id(self):
        # ids are checked where they enter, so a bitmap never sees one
        # outside [0, constraint_count): neither a task's nor a machine's
        with pytest.raises(ConfigurationError):
            config_from_dict({"constraint_count": 2, "workload": {
                "constraint_probabilities": {"5": 0.5}}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"constraint_count": 2, "machine_profiles": [
                {"profile_id": "p", "probabilities": {"2": 1.0}}]})

    def test_append_assigns_sequential_ordinals(self):
        bitmap = ConstraintBitmap(4)
        assert bitmap.append_node(frozenset({1})) == 0
        assert bitmap.append_node(frozenset({2})) == 1
        assert bitmap.length == 2
        assert bitmap.satisfies(1, 0) and not bitmap.satisfies(1, 1)

    def test_remove_ordinal_splices_bits(self):
        sets = [frozenset({0}), frozenset({1}), frozenset({0, 1}),
                frozenset(), frozenset({0})]
        bitmap = bitmap_from_sets(2, sets)
        bitmap.remove_ordinal(2)
        survivors = [sets[i] for i in (0, 1, 3, 4)]
        expected = bitmap_from_sets(2, survivors)
        assert bitmap.bits == expected.bits
        assert bitmap.length == 4

    def test_remove_out_of_range(self):
        bitmap = bitmap_from_sets(2, [frozenset()])
        with pytest.raises(ConfigurationError):
            bitmap.remove_ordinal(1)

    def test_words_spans_64_bit_boundaries(self):
        bitmap = ConstraintBitmap(1)
        assert bitmap.words == 0
        for _ in range(64):
            bitmap.append_node(frozenset())
        assert bitmap.words == 1
        bitmap.append_node(frozenset())
        assert bitmap.words == 2


node_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7)),
    min_size=0, max_size=40,
)


@given(sets=node_sets, task_ids=st.sets(st.integers(min_value=0, max_value=7)))
@settings(max_examples=200)
def test_candidates_match_per_node_superset_oracle(sets, task_ids):
    task_constraints = frozenset(task_ids)
    bitmap = bitmap_from_sets(8, sets)
    mask, _ = bitmap.candidates(task_constraints)
    expected = {i for i, machine in enumerate(sets)
                if machine >= task_constraints}
    assert set(iter_ordinals(mask)) == expected


@given(sets=node_sets,
       task_ids=st.sets(st.integers(min_value=0, max_value=7)),
       cpus=st.lists(st.integers(min_value=0, max_value=8), min_size=40, max_size=40),
       demand_cpu=st.integers(min_value=1, max_value=8))
@settings(max_examples=200)
def test_masked_scan_equals_brute_force(sets, task_ids, cpus, demand_cpu):
    """Bitmap AND + ordered availability scan == naive per-node oracle."""
    task_constraints = frozenset(task_ids)
    available = [ResourceVector.of(c, 1024) for c in cpus[:len(sets)]]
    demand = ResourceVector.of(demand_cpu, 512)
    bitmap = bitmap_from_sets(8, sets)
    mask, _ = bitmap.candidates(task_constraints)
    hit = next((o for o in iter_ordinals(mask) if available[o].geq(demand)), None)
    assert hit == brute_force_match(sets, available, task_constraints, demand)


@given(st.integers(min_value=0, max_value=2 ** 70 - 1))
def test_iter_ordinals_enumerates_set_bits(mask):
    assert list(iter_ordinals(mask)) == [i for i in range(70) if mask >> i & 1]


@given(sets=node_sets, drop=st.integers(min_value=0, max_value=39))
@settings(max_examples=200)
def test_remove_matches_rebuild(sets, drop):
    """Removing an ordinal leaves exactly the bitmap of the survivors."""
    if drop >= len(sets):
        drop = drop % len(sets) if sets else 0
    if not sets:
        return
    bitmap = bitmap_from_sets(8, sets)
    bitmap.remove_ordinal(drop)
    survivors = sets[:drop] + sets[drop + 1:]
    assert bitmap.bits == bitmap_from_sets(8, survivors).bits


class TestPartition:
    def test_bitmap_length_tracks_membership(self):
        part = Partition("p", "lm", "gm", node_ids=[], bitmap=ConstraintBitmap(3))
        part.append_node("a", frozenset({1}))
        part.append_node("b", frozenset({2}))
        assert part.bitmap.length == 2
        part.remove_node("a")
        assert part.node_ids == ["b"]
        assert part.bitmap.length == 1
        assert part.bitmap.satisfies(2, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition("p", "lm", "gm", node_ids=["a"], bitmap=ConstraintBitmap(3))
