"""Snapshots, the per-GM cluster view, and view merge monotonicity."""

import random

from fedsched.core import ConstraintBitmap, ConstraintSet, ResourceVector
from fedsched.state import (ClusterView, LMStateSnapshot, NodeSnapshot,
                            PartitionSnapshot, ViewPartition)

from oracles import brute_force_match


def rv(*qs):
    return ResourceVector.of(*qs)


def make_partition_snapshot(partition_id="p0", lm_id="lm0", owner="gm0",
                            nodes=(), m=8):
    """nodes: list of (node_id, constraints, available[, running, is_logical])."""
    bitmap = ConstraintBitmap.from_constraint_sets(m, [n[1] for n in nodes])
    node_snaps = []
    for spec in nodes:
        node_id, _, available = spec[:3]
        running = spec[3] if len(spec) > 3 else ()
        logical = spec[4] if len(spec) > 4 else False
        node_snaps.append(NodeSnapshot(
            node_id=node_id, available=available, is_logical=logical,
            parent_node=None, running=tuple(running),
        ))
    return PartitionSnapshot(
        partition_id=partition_id, lm_id=lm_id, owner_gm_id=owner,
        nodes=tuple(node_snaps), bits=bitmap.snapshot_bits(), constraint_count=m,
    )


def make_lm_snapshot(lm_id="lm0", ts=0.0, partitions=(), consumed=()):
    return LMStateSnapshot(lm_id=lm_id, timestamp=ts,
                           partitions=tuple(partitions),
                           user_consumed=tuple(consumed))


class TestViewPartitionMatch:
    def test_first_qualifying_ordinal(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", ConstraintSet.of(1), rv(1, 100)),
            ("b", ConstraintSet.of(1), rv(8, 800)),
            ("c", ConstraintSet.of(1), rv(8, 800)),
        ]))
        ordinal, _, checked = part.match(ConstraintSet.of(1), rv(4, 400))
        assert ordinal == 1
        assert checked == 2  # a failed the resource check, b passed

    def test_empty_constraints_but_no_resources(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", ConstraintSet.empty(), rv(1, 100)),
            ("b", ConstraintSet.empty(), rv(1, 100)),
        ]))
        ordinal, _, checked = part.match(ConstraintSet.empty(), rv(4, 400))
        assert ordinal is None
        assert checked == 2

    def test_constraint_filter_excludes_nodes(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", ConstraintSet.empty(), rv(8, 800)),
            ("b", ConstraintSet.of(2), rv(8, 800)),
        ]))
        ordinal, _, _ = part.match(ConstraintSet.of(2), rv(1, 1))
        assert ordinal == 1

    def test_random_instances_match_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(0, 64)
            sets = [ConstraintSet.of(*[c for c in range(8) if rng.random() < 0.4])
                    for _ in range(n)]
            avail = [rv(rng.randint(0, 16), rng.randint(0, 4096)) for _ in range(n)]
            nodes = [(f"n{i}", sets[i], avail[i]) for i in range(n)]
            part = ViewPartition(make_partition_snapshot(nodes=nodes))
            t_cs = ConstraintSet.of(*[c for c in range(8) if rng.random() < 0.25])
            demand = rv(rng.randint(1, 16), rng.randint(1, 4096))
            got, _, _ = part.match(t_cs, demand)
            assert got == brute_force_match(sets, avail, t_cs, demand)

    def test_word_op_telemetry_tracks_bitmap_width(self):
        # one AND pass per requested constraint plus one scan pass, each
        # touching ceil(n / 64) words
        rng = random.Random(4)
        m = 21
        for _ in range(200):
            n = rng.randint(1, 300)
            nodes = [(f"n{i}",
                      ConstraintSet.of(*(c for c in range(m) if rng.random() < 0.4)),
                      rv(rng.randint(0, 4), rng.randint(0, 4)))
                     for i in range(n)]
            part = ViewPartition(make_partition_snapshot(nodes=nodes, m=m))
            wanted = ConstraintSet.of(
                *(rng.randrange(m) for _ in range(rng.randint(0, 3))))
            _, word_ops, checked = part.match(wanted, rv(2, 2))
            words = -(-n // 64)
            assert word_ops == (len(wanted) + 1) * words
            assert word_ops <= (m + 1) * words
            assert checked <= n

    def test_deduct_shrinks_viewed_availability(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", ConstraintSet.empty(), rv(8, 800)),
        ]))
        part.deduct(0, rv(3, 300))
        assert part.available[0].quantities == (5, 500)
        ordinal, _, _ = part.match(ConstraintSet.empty(), rv(6, 100))
        assert ordinal is None


def _memo_partition(first=rv(2, 200)):
    return make_partition_snapshot(nodes=[
        ("a", ConstraintSet.of(1), first),
        ("b", ConstraintSet.empty(), rv(8, 800)),
        ("c", ConstraintSet.of(1, 2), rv(3, 300)),
    ])


class TestViewPartitionMissMemo:
    def test_miss_after_deduct_returns_the_same_counts(self):
        part = ViewPartition(_memo_partition())
        miss = part.match(ConstraintSet.of(1), rv(4, 400))
        assert miss[0] is None and miss[2] == 2  # a and c are the candidates
        assert len(part.misses) == 1
        part.deduct(2, rv(1, 100))
        assert part.match(ConstraintSet.of(1), rv(4, 400)) == miss
        assert part.scan(ConstraintSet.of(1), rv(4, 400)) == miss

    def test_refresh_that_frees_capacity_turns_the_miss_into_a_hit(self):
        part = ViewPartition(_memo_partition())
        assert part.match(ConstraintSet.of(1), rv(4, 400))[0] is None
        part.refresh(_memo_partition(first=rv(4, 400)))
        assert part.misses == {}
        ordinal, _, checked = part.match(ConstraintSet.of(1), rv(4, 400))
        assert (ordinal, checked) == (0, 1)

    def test_other_demands_are_not_served_from_the_memo(self):
        part = ViewPartition(_memo_partition())
        assert part.match(ConstraintSet.of(1), rv(4, 400))[0] is None
        ordinal, _, checked = part.match(ConstraintSet.of(1), rv(3, 300))
        assert (ordinal, checked) == (2, 2)
        ordinal, _, _ = part.match(ConstraintSet.empty(), rv(4, 400))
        assert ordinal == 1
        assert list(part.misses) == [(frozenset({1}), (4, 400))]

    def test_hits_are_never_memoised(self):
        part = ViewPartition(_memo_partition())
        assert part.match(ConstraintSet.of(1), rv(2, 200))[0] == 0
        part.deduct(0, rv(2, 200))
        assert part.match(ConstraintSet.of(1), rv(2, 200))[0] == 2
        assert part.misses == {}


def two_node_snapshot(ts, avail_a, avail_b):
    part = make_partition_snapshot(nodes=[
        ("a", ConstraintSet.empty(), avail_a),
        ("b", ConstraintSet.empty(), avail_b),
    ])
    return make_lm_snapshot(ts=ts, partitions=[part],
                            consumed=[("u0", rv(1, 100))])


class TestClusterViewMerges:
    def test_heartbeat_replaces_lm_slice(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(10.0, rv(1, 100), rv(2, 200)))
        assert view.partitions[("lm0", "p0")].available[0].quantities == (1, 100)
        assert view.last_update_time["lm0"] == 10.0

    def test_newer_then_older_discards_older(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(20.0, rv(2, 200), rv(2, 200)))
        assert not view.apply_heartbeat(two_node_snapshot(10.0, rv(7, 700), rv(7, 700)))
        assert view.partitions[("lm0", "p0")].available[0].quantities == (2, 200)
        assert view.last_update_time["lm0"] == 20.0

    def test_heartbeat_sequence_reflects_latest(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        view.apply_heartbeat(two_node_snapshot(10.0, rv(5, 500), rv(5, 500)))
        view.apply_heartbeat(two_node_snapshot(20.0, rv(3, 300), rv(3, 300)))
        assert view.partitions[("lm0", "p0")].available[1].quantities == (3, 300)

    def test_partial_merge_updates_only_named_partitions(self):
        p0 = make_partition_snapshot("p0", nodes=[("a", ConstraintSet.empty(), rv(8, 800))])
        p1 = make_partition_snapshot("p1", nodes=[("b", ConstraintSet.empty(), rv(8, 800))])
        view = ClusterView([make_lm_snapshot(ts=0.0, partitions=[p0, p1])], 2)
        newer_p0 = make_partition_snapshot("p0", nodes=[("a", ConstraintSet.empty(), rv(1, 100))])
        assert view.merge_partitions("lm0", 5.0, (newer_p0,))
        assert view.partitions[("lm0", "p0")].available[0].quantities == (1, 100)
        assert view.partitions[("lm0", "p1")].available[0].quantities == (8, 800)
        assert view.last_update_time["lm0"] == 5.0

    def test_heartbeat_cannot_regress_piggybacked_state(self):
        """A full snapshot taken before an already-merged response is dropped."""
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        newer = make_partition_snapshot("p0", nodes=[
            ("a", ConstraintSet.empty(), rv(0, 0)),
            ("b", ConstraintSet.empty(), rv(8, 800)),
        ])
        assert view.merge_partitions("lm0", 15.0, (newer,))
        stale_heartbeat = two_node_snapshot(12.0, rv(8, 800), rv(8, 800))
        assert not view.apply_heartbeat(stale_heartbeat)
        assert view.partitions[("lm0", "p0")].available[0].quantities == (0, 0)
        later = two_node_snapshot(16.0, rv(4, 400), rv(4, 400))
        assert view.apply_heartbeat(later)
        assert view.partitions[("lm0", "p0")].available[0].quantities == (4, 400)
        assert view.last_update_time["lm0"] == 16.0

    def test_stale_partial_merge_discarded(self):
        view = ClusterView([two_node_snapshot(10.0, rv(8, 800), rv(8, 800))], 2)
        older = make_partition_snapshot("p0", nodes=[("a", ConstraintSet.empty(), rv(1, 1))])
        assert not view.merge_partitions("lm0", 9.0, (older,))
        assert view.partitions[("lm0", "p0")].available[0].quantities == (8, 800)

    def test_equal_timestamp_applies(self):
        view = ClusterView([two_node_snapshot(10.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(10.0, rv(2, 2), rv(2, 2)))

    def test_viewed_consumed_sums_across_lms(self):
        snaps = [
            make_lm_snapshot("lm0", 0.0,
                             [make_partition_snapshot("p0", "lm0")],
                             [("u0", rv(2, 200))]),
            make_lm_snapshot("lm1", 0.0,
                             [make_partition_snapshot("p1", "lm1")],
                             [("u0", rv(3, 300)), ("u1", rv(1, 100))]),
        ]
        view = ClusterView(snaps, 2)
        assert view.viewed_consumed("u0").quantities == (5, 500)
        assert view.viewed_consumed("u1").quantities == (1, 100)
        assert view.viewed_consumed("nobody").quantities == (0, 0)

    def test_consumed_replaced_by_merge(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.viewed_consumed("u0").quantities == (1, 100)
        p = make_partition_snapshot("p0", nodes=[("a", ConstraintSet.empty(), rv(8, 800))])
        view.merge_partitions("lm0", 1.0, (p,), user_consumed=(("u0", rv(9, 900)),))
        assert view.viewed_consumed("u0").quantities == (9, 900)
